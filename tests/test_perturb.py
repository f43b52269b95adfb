"""Perturbation draws, transforms, and keyed-substream independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcon import perturb as P
from relcon.errors import DimensionError


def _noisy_cfg(variance=0.01, clip=0.2):
    return P.PerturbConfig(noise_enabled=True, noise_variance=variance, noise_clip=clip)


def _perturbed(x, cfg, rng):
    return _apply(x, P.draw_perturbation(x.shape, cfg, rng))


def _apply(x, draw):
    """One sample through the batched path."""
    return P.apply_draws(x[None], [draw])[0]


# ---------------------------------------------------------------------------
# reference: the per-sample rotate -> translate -> flip path that
# apply_draws composes into one gather


def _reference_rotate(img, angle_deg):
    c, h, w = img.shape
    theta = np.deg2rad(angle_deg)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = rows - cy, cols - cx
    src_r = np.cos(theta) * dy + np.sin(theta) * dx + cy
    src_c = -np.sin(theta) * dy + np.cos(theta) * dx + cx
    sr = np.rint(src_r).astype(int)
    sc = np.rint(src_c).astype(int)
    inside = (sr >= 0) & (sr < h) & (sc >= 0) & (sc < w)
    out = np.zeros_like(img)
    out[:, inside] = img[:, sr[inside], sc[inside]]
    return out


def _reference_translate(img, dx, dy):
    """Valid for |dx| < W and |dy| < H only."""
    if dx == 0 and dy == 0:
        return img
    out = np.zeros_like(img)
    c, h, w = img.shape
    src_r = slice(max(0, -dy), min(h, h - dy))
    dst_r = slice(max(0, dy), min(h, h + dy))
    src_c = slice(max(0, -dx), min(w, w - dx))
    dst_c = slice(max(0, dx), min(w, w + dx))
    out[:, dst_r, dst_c] = img[:, src_r, src_c]
    return out


def _reference_view(x, draw):
    out = np.asarray(x, dtype=np.float64)
    if out.ndim == 3:
        if draw.angle_deg != 0.0:
            out = _reference_rotate(out, draw.angle_deg)
        out = _reference_translate(out, draw.dx, draw.dy)
        if draw.flip_h:
            out = out[:, :, ::-1]
        if draw.flip_v:
            out = out[:, ::-1, :]
    if draw.noise is not None:
        out = out + draw.noise
    return np.ascontiguousarray(out)


def _reference_pair(x, cfg, master_key, sample_ids):
    views = []
    for view_id in (0, 1):
        out = np.empty_like(x)
        for i, sid in enumerate(sample_ids):
            rng = P.substream(*master_key, int(sid), view_id)
            out[i] = _reference_view(x[i], P.draw_perturbation(x.shape[1:], cfg, rng))
        views.append(out)
    return views


class TestGaussianNoise:
    def test_clip_bound(self):
        cfg = _noisy_cfg(variance=4.0, clip=0.2)  # huge sd, clipping dominates
        rng = np.random.default_rng(0)
        x = np.zeros(100_000)
        out = _perturbed(x, cfg, rng)
        assert np.abs(out).max() <= 0.2
        assert np.isclose(np.abs(out).max(), 0.2)

    def test_zero_variance_identity(self):
        cfg = _noisy_cfg(variance=0.0)
        x = np.random.default_rng(1).normal(size=32)
        out = _perturbed(x, cfg, np.random.default_rng(2))
        assert np.array_equal(out, x)

    def test_delta_always_within_clip(self):
        cfg = _noisy_cfg()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 50))
        for _ in range(20):
            out = _perturbed(x, cfg, rng)
            # one ulp of slack: the bound is on the drawn noise, and the
            # reconstructed delta (x + n) - x carries addition rounding
            assert np.abs(out - x).max() <= 0.2 + 1e-12

    def test_disabled_draws_no_noise(self):
        x = np.random.default_rng(1).normal(size=3)
        draw = P.draw_perturbation(x.shape, P.PerturbConfig(), np.random.default_rng(0))
        assert draw.noise is None
        assert np.array_equal(_apply(x, draw), x)


class TestTransforms:
    def test_identity_draw(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        out = _apply(img, P.PerturbDraw())
        assert np.array_equal(out, img)

    def test_horizontal_flip(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = _apply(img, P.PerturbDraw(flip_h=True))
        assert np.array_equal(out[0], [[2.0, 1.0], [4.0, 3.0]])

    def test_vertical_flip(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = _apply(img, P.PerturbDraw(flip_v=True))
        assert np.array_equal(out[0], [[3.0, 4.0], [1.0, 2.0]])

    def test_translate_shift_oracle(self):
        # shifting right by one: first column becomes zero padding
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = _apply(img, P.PerturbDraw(dx=1))
        assert np.array_equal(out[0], [[0.0, 1.0], [0.0, 3.0]])

    def test_translate_down(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = _apply(img, P.PerturbDraw(dy=1))
        assert np.array_equal(out[0], [[0.0, 0.0], [1.0, 2.0]])

    def test_rotation_90_degrees(self):
        img = np.zeros((1, 5, 5))
        img[0, 0, 2] = 1.0  # mark top-center
        out = _apply(img, P.PerturbDraw(angle_deg=90.0))
        assert out.sum() == 1.0
        assert out[0, 0, 2] == 0.0  # it moved

    def test_rotation_preserves_center(self):
        img = np.zeros((1, 5, 5))
        img[0, 2, 2] = 1.0
        out = _apply(img, P.PerturbDraw(angle_deg=37.0))
        assert out[0, 2, 2] == 1.0

    def test_tiny_image_rejected(self):
        with pytest.raises(DimensionError):
            _perturbed(np.zeros((1, 1, 4)), P.PerturbConfig(), np.random.default_rng(0))

    def test_zero_image_stays_zero(self):
        rng = np.random.default_rng(4)
        out = _perturbed(np.zeros((1, 6, 6)), P.PerturbConfig(), rng)
        assert np.array_equal(out, np.zeros((1, 6, 6)))


class TestDrawBounds:
    def test_sampled_parameters_within_bounds(self):
        cfg = _noisy_cfg()
        rng = np.random.default_rng(5)
        for _ in range(2000):
            draw = P.draw_perturbation((1, 50, 50), cfg, rng)
            assert -10.0 <= draw.angle_deg <= 10.0
            assert abs(draw.dx) <= round(0.02 * 50)
            assert abs(draw.dy) <= round(0.02 * 50)
            assert np.abs(draw.noise).max() <= 0.2

    def test_noise_bound_many_draws(self):
        cfg = _noisy_cfg()
        rng = np.random.default_rng(6)
        draws = rng.normal(0, 0.1, size=100_000)
        out = _perturbed(np.zeros(100_000), cfg, rng)
        assert np.abs(out).max() <= 0.2
        assert draws.shape  # rng independence sanity


class TestPerturbPair:
    def test_zero_config_identity(self):
        x = np.random.default_rng(7).normal(size=(4, 1, 6, 6))
        identity = P.PerturbConfig(rotation_deg_max=0.0, translate_frac_max=0.0, flip_prob=0.0)
        v1, v2 = P.perturb_pair(x, identity, (0,))
        assert np.array_equal(v1, x)
        assert np.array_equal(v2, x)

    def test_views_from_disjoint_substreams(self):
        cfg = _noisy_cfg()
        x = np.random.default_rng(8).normal(size=(3, 1, 8, 8))
        v1a, v2a = P.perturb_pair(x, cfg, (5,))
        v1b, v2b = P.perturb_pair(x, cfg, (5,))
        assert np.array_equal(v1a, v1b) and np.array_equal(v2a, v2b)
        assert not np.array_equal(v1a, v2a)

    def test_per_sample_keying_commutes_with_permutation(self):
        cfg = _noisy_cfg()
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 1, 8, 8))
        ids = np.array([10, 11, 12, 13, 14, 15])
        v1, _ = P.perturb_pair(x, cfg, (3,), sample_ids=ids)
        perm = np.array([4, 2, 0, 5, 1, 3])
        v1p, _ = P.perturb_pair(x[perm], cfg, (3,), sample_ids=ids[perm])
        assert np.array_equal(v1p, v1[perm])

    def test_batch_composition_independence(self):
        cfg = _noisy_cfg()
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 1, 8, 8))
        ids = np.arange(5)
        full, _ = P.perturb_pair(x, cfg, (4,), sample_ids=ids)
        subset, _ = P.perturb_pair(x[1:3], cfg, (4,), sample_ids=ids[1:3])
        assert np.array_equal(subset, full[1:3])

    def test_reproducible_given_master_key(self):
        cfg = _noisy_cfg()
        x = np.random.default_rng(11).normal(size=(4, 3))
        a = P.perturb_pair(x, cfg, (1, 2, 3))
        b = P.perturb_pair(x, cfg, (1, 2, 3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_vector_inputs_only_noise(self):
        cfg = _noisy_cfg()
        x = np.random.default_rng(12).normal(size=(4, 7))
        v1, v2 = P.perturb_pair(x, cfg, (2,))
        assert np.abs(v1 - x).max() <= 0.2 + 1e-12
        draw = P.draw_perturbation((7,), cfg, np.random.default_rng(0))
        assert draw.angle_deg == 0 and draw.dx == 0 and draw.dy == 0
        assert not (draw.flip_h or draw.flip_v)
        # noise only: without it both views are the input
        plain = P.perturb_pair(x, P.PerturbConfig(rotation_deg_max=90.0, flip_prob=1.0), (2,))
        assert all(np.array_equal(v, x) for v in plain)


@st.composite
def _image_cases(draw):
    c = draw(st.integers(1, 3))
    h = draw(st.integers(2, 16))
    w = draw(st.integers(2, 16))
    n = draw(st.integers(1, 6))
    # shifts stay below the image size, where the reference path is defined
    max_px = draw(st.integers(0, min(h, w) - 1))
    cfg = P.PerturbConfig(
        rotation_deg_max=draw(st.sampled_from([0.0, 10.0, 90.0, 180.0, 400.0])),
        translate_frac_max=max_px / w,
        flip_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        noise_enabled=draw(st.booleans()))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    key = tuple(draw(st.lists(st.integers(0, 1000), min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**32 - 1))
    return (c, h, w), cfg, key, np.array(ids), seed


class TestReferenceEquality:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_image_cases())
    def test_images_match_per_sample_path_bytewise(self, case):
        shape, cfg, key, ids, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(len(ids), *shape))
        x[rng.random(x.shape) < 0.2] = -0.0   # signed zeros must survive the gather
        got = P.perturb_pair(x, cfg, key, sample_ids=ids)
        want = _reference_pair(x, cfg, key, ids)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_vectors_match_per_sample_path_bytewise(self, d, n, noisy, seed):
        x = np.random.default_rng(seed).normal(size=(n, d))
        cfg = P.PerturbConfig(noise_enabled=noisy)
        got = P.perturb_pair(x, cfg, (seed,))
        want = _reference_pair(x, cfg, (seed,), np.arange(n))
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got, want))


class TestLargeShift:
    @pytest.mark.parametrize("dx, dy", [(4, 0), (-4, 0), (0, 4), (0, -9), (7, 7)])
    def test_shift_at_least_image_size_gives_zeros(self, dx, dy):
        img = np.ones((2, 4, 4))
        assert np.array_equal(_apply(img, P.PerturbDraw(dx=dx, dy=dy)), np.zeros((2, 4, 4)))

    def test_non_square_vertical_shift_past_height(self):
        # the shift bound comes from W, so a wide image can shift past its height
        img = np.ones((1, 4, 8))
        assert np.array_equal(_apply(img, P.PerturbDraw(dy=5)), np.zeros((1, 4, 8)))
        assert _apply(img, P.PerturbDraw(dx=5)).sum() == 4 * 3

    def test_perturb_pair_with_shift_bound_past_image(self):
        x = np.ones((4, 1, 12, 12))
        cfg = P.PerturbConfig(translate_frac_max=1.5)
        views = P.perturb_pair(x, cfg, (0,))
        for view_id, view in enumerate(views):
            for i in range(4):
                draw = P.draw_perturbation((1, 12, 12), cfg, P.substream(0, i, view_id))
                if abs(draw.dx) >= 12 or abs(draw.dy) >= 12:
                    assert not view[i].any()
                else:
                    assert view[i].tobytes() == _reference_view(x[i], draw).tobytes()
