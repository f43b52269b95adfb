"""Perturbation draws, transforms, and counter-keyed independence."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcon import perturb as P
from relcon.errors import ContractError, DimensionError

_WORD = 2 ** 64


def _noisy_cfg(variance=0.01, clip=0.2):
    return P.PerturbConfig(noise_enabled=True, noise_variance=variance, noise_clip=clip)


def _geometry(angle_deg=0.0, dx=0, dy=0, flip_h=False, flip_v=False):
    """Geometry of a one-sample batch."""
    return P.Geometry(np.array([angle_deg]), np.array([dx]), np.array([dy]),
                      np.array([flip_h]), np.array([flip_v]))


def _apply(img, **geometry):
    """One image through the batched path."""
    return P.apply_draws(img[None], _geometry(**geometry), None)[0]


def _still(**fields):
    """A config whose geometry is the identity unless ``fields`` say otherwise."""
    return P.PerturbConfig(**{"rotation_deg_max": 0.0, "translate_frac_max": 0.0,
                              "flip_prob": 0.0, **fields})


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


def _numpy_counter_before(counter):
    """numpy's four-word Philox counter one below ``counter`` (words, least
    significant first): numpy bumps its counter before each block."""
    value = (sum(int(c) << (64 * i) for i, c in enumerate(counter)) - 1) % _WORD ** 4
    return np.array([(value >> (64 * i)) % _WORD for i in range(4)], dtype=np.uint64)


def _reference_words(master_key, sid, view, first_block, n_blocks):
    """Words of blocks first_block.. for one sample and view, from numpy's Philox."""
    key = np.random.SeedSequence(list(master_key)).generate_state(2, np.uint64)
    bitgen = np.random.Philox(key=key, counter=_numpy_counter_before((first_block, view, sid, 0)))
    return [int(w) for w in bitgen.random_raw(4 * n_blocks)]


def _reference_draw(shape, cfg, master_key, sid, view):
    """One sample's draw: block 0 is geometry (images only), the rest noise."""
    image = len(shape) == 3
    size = math.prod(shape)
    n_words = -(-size // 2) if cfg.noise_enabled else 0
    first = 0 if image else 1
    words = _reference_words(master_key, sid, view, first, 1 - first + -(-n_words // 4))
    draw = SimpleNamespace(angle_deg=0.0, dx=0, dy=0, flip_h=False, flip_v=False, noise=None)
    if image:
        w0, w1, w2, w3 = words[:4]
        words = words[4:]
        r, m = cfg.rotation_deg_max, round(cfg.translate_frac_max * shape[2])

        def unit(word):
            return (word >> 11) * 2.0 ** -53

        draw.angle_deg = -r + 2.0 * r * unit(w0)
        draw.dx = ((w1 >> 32) * (2 * m + 1) >> 32) - m
        draw.dy = ((w1 % 2 ** 32) * (2 * m + 1) >> 32) - m
        draw.flip_h = unit(w2) < cfg.flip_prob
        draw.flip_v = unit(w3) < cfg.flip_prob
    if n_words:
        # numpy's log, as in the library: math.log can differ in the last bit
        w = np.array(words[:n_words], dtype=np.uint64)
        u1 = ((w >> np.uint64(32)).astype(float) + 1.0) * 2.0 ** -32
        u2 = (w % np.uint64(2 ** 32)).astype(float) * 2.0 ** -32
        radius = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                            radius * np.sin(2.0 * np.pi * u2)])[:size].reshape(shape)
        draw.noise = np.clip(z * np.sqrt(cfg.noise_variance), -cfg.noise_clip, cfg.noise_clip)
    return draw


def _reference_pair(x, cfg, master_key, sample_ids):
    views = []
    for view_id in (0, 1):
        out = np.empty_like(x)
        for i, sid in enumerate(sample_ids):
            draw = _reference_draw(x.shape[1:], cfg, master_key, int(sid), view_id)
            out[i] = _reference_view(x[i], draw)
        views.append(out)
    return views


class TestPhilox:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, _WORD - 1), min_size=2, max_size=2),
           st.lists(st.lists(st.integers(0, _WORD - 1) | st.sampled_from([0, 1, _WORD - 1]),
                             min_size=4, max_size=4), min_size=1, max_size=5))
    def test_matches_numpy_philox(self, key, counters):
        key = np.array(key, dtype=np.uint64)
        got = P._philox(key, tuple(np.array(c, dtype=np.uint64) for c in zip(*counters)))
        for i, counter in enumerate(counters):
            bitgen = np.random.Philox(key=key, counter=_numpy_counter_before(counter))
            want = [int(w) for w in bitgen.random_raw(4)]
            assert [int(words[i]) for words in got] == want

    def test_counters_broadcast(self):
        key = np.array([3, 4], dtype=np.uint64)
        blocks = np.arange(3, dtype=np.uint64)
        ids = np.array([[7], [9]], dtype=np.uint64)
        got = P._philox(key, (blocks, 1, ids, 0))
        assert got[0].shape == (2, 3)
        one = P._philox(key, (np.uint64(2), 1, np.uint64(9), 0))
        assert [int(w[1, 2]) for w in got] == [int(w) for w in one]


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.lists(st.integers(0, _WORD - 1), min_size=2, max_size=2),
                              st.lists(st.integers(0, _WORD - 1), min_size=4, max_size=4)),
                    min_size=1, max_size=5))
    def test_per_element_keys_match_numpy_philox(self, rows):
        keys = np.array([key for key, _ in rows], dtype=np.uint64).T
        counters = np.array([counter for _, counter in rows], dtype=np.uint64).T
        got = P._philox(keys, tuple(counters))
        for i, (key, counter) in enumerate(rows):
            bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64),
                                      counter=_numpy_counter_before(counter))
            assert [int(words[i]) for words in got] == [int(w) for w in bitgen.random_raw(4)]

    def test_keys_broadcast_against_counters(self):
        keys = np.array([[[3], [5]], [[4], [0]]], dtype=np.uint64)   # two keys, one per row
        blocks = np.arange(3, dtype=np.uint64)
        got = P._philox(keys, (blocks, 1, np.uint64(9), 0))
        assert got[0].shape == (2, 3)
        for row, key in enumerate(([3, 4], [5, 0])):
            one = P._philox(np.array(key, dtype=np.uint64), (blocks, 1, np.uint64(9), 0))
            assert all(np.array_equal(g[row], w) for g, w in zip(got, one))


class TestGaussianNoise:
    def test_clip_bound(self):
        cfg = _noisy_cfg(variance=4.0, clip=0.2)  # huge sd, clipping dominates
        x = np.zeros((10, 10_000))
        for view in P.perturb_pair(x, cfg, (0,)):
            assert np.abs(view).max() <= 0.2
            assert np.isclose(np.abs(view).max(), 0.2)

    def test_zero_variance_identity(self):
        cfg = _noisy_cfg(variance=0.0)
        x = np.random.default_rng(1).normal(size=(3, 32))
        for view in P.perturb_pair(x, cfg, (2,)):
            assert np.array_equal(view, x)

    def test_delta_always_within_clip(self):
        cfg = _noisy_cfg()
        x = np.random.default_rng(3).normal(size=(50, 50))
        for key in range(20):
            for view in P.perturb_pair(x, cfg, (key,)):
                # one ulp of slack: the bound is on the drawn noise, and the
                # reconstructed delta (x + n) - x carries addition rounding
                assert np.abs(view - x).max() <= 0.2 + 1e-12

    def test_disabled_draws_no_noise(self):
        x = np.random.default_rng(1).normal(size=(2, 3))
        assert all(np.array_equal(v, x) for v in P.perturb_pair(x, P.PerturbConfig(), (0,)))
        img = np.random.default_rng(2).normal(size=(2, 1, 4, 4))
        assert all(np.array_equal(v, img) for v in P.perturb_pair(img, _still(), (0,)))

    @pytest.mark.parametrize("width", [1001, 144])
    def test_noise_moments_within_five_standard_errors(self, width):
        # an odd width keeps only the cosine half of the last word
        x = np.zeros((400, width))
        views = P.perturb_pair(x, _noisy_cfg(variance=1.0, clip=1e9), (5, 2, 0, 0))
        z = np.stack(views)
        half = -(-width // 2)
        for part in (z, z[..., :half], z[..., half:]):   # both, cosine, sine values
            n = part.size
            assert abs(part.mean()) < 5 / math.sqrt(n)
            assert abs(part.var() - 1.0) < 5 * math.sqrt(2 / n)
        # the two views are independent
        assert abs(np.corrcoef(z[0].ravel(), z[1].ravel())[0, 1]) < 5 / math.sqrt(z[0].size)

    def test_noise_scaled_by_standard_deviation(self):
        x = np.zeros((3, 9))
        unit = P.perturb_pair(x, _noisy_cfg(variance=1.0, clip=1e9), (1,))
        scaled = P.perturb_pair(x, _noisy_cfg(variance=0.25, clip=1e9), (1,))
        assert all(np.array_equal(s, u * 0.5) for s, u in zip(scaled, unit))


class TestTransforms:
    def test_identity_draw(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        out = _apply(img)
        assert np.array_equal(out, img)

    def test_horizontal_flip(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = _apply(img, flip_h=True)
        assert np.array_equal(out[0], [[2.0, 1.0], [4.0, 3.0]])

    def test_vertical_flip(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = _apply(img, flip_v=True)
        assert np.array_equal(out[0], [[3.0, 4.0], [1.0, 2.0]])

    def test_translate_shift_oracle(self):
        # shifting right by one: first column becomes zero padding
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = _apply(img, dx=1)
        assert np.array_equal(out[0], [[0.0, 1.0], [0.0, 3.0]])

    def test_translate_down(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = _apply(img, dy=1)
        assert np.array_equal(out[0], [[0.0, 0.0], [1.0, 2.0]])

    def test_rotation_90_degrees(self):
        img = np.zeros((1, 5, 5))
        img[0, 0, 2] = 1.0  # mark top-center
        out = _apply(img, angle_deg=90.0)
        assert out.sum() == 1.0
        assert out[0, 0, 2] == 0.0  # it moved

    def test_rotation_preserves_center(self):
        img = np.zeros((1, 5, 5))
        img[0, 2, 2] = 1.0
        out = _apply(img, angle_deg=37.0)
        assert out[0, 2, 2] == 1.0

    def test_tiny_image_rejected(self):
        with pytest.raises(DimensionError):
            P.perturb_pair(np.zeros((1, 1, 1, 4)), P.PerturbConfig(), (0,))

    def test_zero_image_stays_zero(self):
        for view in P.perturb_pair(np.zeros((3, 1, 6, 6)), P.PerturbConfig(), (4,)):
            assert np.array_equal(view, np.zeros((3, 1, 6, 6)))


def _pixel_moves(cfg, n, size, key):
    """Where one lit pixel at the center lands in each view of n images."""
    img = np.zeros((n, 1, size, size))
    img[:, 0, size // 2, size // 2] = 1.0
    out = []
    for view in P.perturb_pair(img, cfg, key, sample_ids=np.arange(n)):
        assert (view.reshape(n, -1).sum(axis=1) == 1.0).all()
        at = view.reshape(n, -1).argmax(axis=1)
        out.append(np.stack([at // size - size // 2, at % size - size // 2], axis=1))
    return np.concatenate(out)


class TestDrawBounds:
    def test_sampled_parameters_within_bounds(self):
        cfg = _noisy_cfg()
        words = np.random.default_rng(5).integers(0, 2 ** 63, size=(4, 2000), dtype=np.uint64)
        words = np.concatenate([words * np.uint64(2),
                                np.zeros((4, 1), np.uint64),
                                np.full((4, 1), _WORD - 1, np.uint64)], axis=1)
        g = P._geometry(tuple(words), cfg, 50)
        m = round(0.02 * 50)
        assert (-10.0 <= g.angle_deg).all() and (g.angle_deg < 10.0).all()
        assert (np.abs(g.dx) <= m).all() and (np.abs(g.dy) <= m).all()
        # the smallest and largest words reach both ends
        assert g.angle_deg[-2] == -10.0 and g.dx[-2] == -m and g.dy[-2] == -m
        assert g.dx[-1] == m and g.dy[-1] == m and not g.flip_h[-1] and not g.flip_v[-1]
        assert g.flip_h[-2] and g.flip_v[-2]
        for view in P.perturb_pair(np.zeros((200, 1, 50, 50)), cfg, (5,)):
            assert np.abs(view).max() <= 0.2

    def test_noise_bound_many_draws(self):
        cfg = _noisy_cfg()
        for view in P.perturb_pair(np.zeros((10, 10_000)), cfg, (6,)):
            assert np.abs(view).max() <= 0.2

    def test_every_shift_occurs_uniformly(self):
        size, m = 11, 3
        moves = _pixel_moves(_still(translate_frac_max=m / size), 500, size, (7,))
        for axis in (0, 1):
            values, counts = np.unique(moves[:, axis], return_counts=True)
            assert values.tolist() == list(range(-m, m + 1))
            p = 1 / (2 * m + 1)
            se = math.sqrt(len(moves) * p * (1 - p))
            assert (np.abs(counts - len(moves) * p) < 5 * se).all()

    def test_flip_rate_near_p(self):
        p, n = 0.3, 2000
        img = np.zeros((n, 1, 4, 4))
        img[:, 0, 0, 0] = 1.0
        views = P.perturb_pair(img, _still(flip_prob=p), (8,), sample_ids=np.arange(n))
        corner = np.concatenate([v[:, 0].reshape(n, -1).argmax(axis=1) for v in views])
        flip_h, flip_v = corner % 4 == 3, corner // 4 == 3
        for flips, rate in ((flip_h, p), (flip_v, p), (flip_h & flip_v, p * p)):
            assert abs(flips.mean() - rate) < 5 * math.sqrt(rate * (1 - rate) / flips.size)

    def test_angle_spans_range(self):
        cfg = _still(rotation_deg_max=30.0)
        words = P._philox(np.array([1, 2], np.uint64), (0, 0, np.arange(4000), 0))
        angles = P._geometry(words, cfg, 12).angle_deg
        assert angles.min() >= -30.0 and angles.max() < 30.0
        assert abs(angles.mean()) < 5 * 60 / math.sqrt(12 * angles.size)

    def test_negative_sample_id_rejected(self):
        with pytest.raises(ContractError):
            P.perturb_pair(np.zeros((2, 3)), _noisy_cfg(), (0,), sample_ids=np.array([0, -1]))

    def test_shift_bound_past_32_bits_rejected(self):
        with pytest.raises(ContractError):
            P.perturb_pair(np.zeros((1, 1, 4, 4)), _still(translate_frac_max=2.0 ** 31 / 4), (0,))


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
        # the geometry settings do not reach a vector's draw
        wild = P.PerturbConfig(rotation_deg_max=90.0, translate_frac_max=0.5, flip_prob=1.0,
                               noise_enabled=True)
        assert all(np.array_equal(a, b) for a, b in zip(P.perturb_pair(x, wild, (2,)), (v1, v2)))
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
        assert np.array_equal(_apply(img, dx=dx, dy=dy), np.zeros((2, 4, 4)))

    def test_non_square_vertical_shift_past_height(self):
        # the shift bound comes from W, so a wide image can shift past its height
        img = np.ones((1, 4, 8))
        assert np.array_equal(_apply(img, dy=5), np.zeros((1, 4, 8)))
        assert _apply(img, dx=5).sum() == 4 * 3

    def test_perturb_pair_with_shift_bound_past_image(self):
        x = np.ones((4, 1, 12, 12))
        cfg = P.PerturbConfig(translate_frac_max=1.5)
        views = P.perturb_pair(x, cfg, (0,))
        for view_id, view in enumerate(views):
            for i in range(4):
                draw = _reference_draw((1, 12, 12), cfg, (0,), i, view_id)
                if abs(draw.dx) >= 12 or abs(draw.dy) >= 12:
                    assert not view[i].any()
                else:
                    assert view[i].tobytes() == _reference_view(x[i], draw).tobytes()


def _meshgrid_source_pixels(g, h, w):
    """``_source_pixels`` with every index array built at [N, H, W] from a
    meshgrid, the form that the broadcast map must match element for element."""
    def per_sample(values):
        return np.asarray(values)[:, None, None]

    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    r = np.where(per_sample(g.flip_v), h - 1 - rows, rows) - per_sample(g.dy)
    c = np.where(per_sample(g.flip_h), w - 1 - cols, cols) - per_sample(g.dx)
    theta = np.deg2rad(per_sample(g.angle_deg))
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy, dx = r - cy, c - cx
    sr = np.rint(cos * dy + sin * dx + cy).astype(int)
    sc = np.rint(-sin * dy + cos * dx + cx).astype(int)
    inside = ((r >= 0) & (r < h) & (c >= 0) & (c < w)
              & (sr >= 0) & (sr < h) & (sc >= 0) & (sc < w))
    shape = (len(g.angle_deg), 1, h * w)
    return np.where(inside, sr * w + sc, 0).reshape(shape), inside.reshape(shape)


@st.composite
def _geometry_cases(draw):
    """A batch's geometry with shifts past the edge, angles up to 400 degrees
    either way and both flips."""
    n = draw(st.integers(1, 119))
    h, w = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    angle = st.one_of(st.sampled_from([0.0, 45.0, -90.0, 180.0, 400.0, -400.0]),
                      st.floats(-400.0, 400.0))
    shift = st.integers(-2 * max(h, w), 2 * max(h, w))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    g = P.Geometry(angle_deg=column(angle).astype(np.float64), dx=column(shift),
                   dy=column(shift), flip_h=column(st.booleans()),
                   flip_v=column(st.booleans()))
    return g, h, w


class TestSourcePixels:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_geometry_cases())
    def test_broadcast_map_equals_meshgrid_form(self, case):
        g, h, w = case
        got, want = P._source_pixels(g, h, w), _meshgrid_source_pixels(g, h, w)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


@st.composite
def _grouped_cases(draw):
    """Several batches of one input shape, each with its own master key."""
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 2)), draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    else:
        shape = (draw(st.integers(1, 9)),)
    cfg = P.PerturbConfig(
        rotation_deg_max=draw(st.sampled_from([0.0, 10.0, 90.0])),
        translate_frac_max=draw(st.sampled_from([0.0, 0.2])),
        flip_prob=draw(st.sampled_from([0.0, 0.5])),
        noise_enabled=draw(st.booleans()))
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=sum(sizes), max_size=sum(sizes)))
    # few key values, so that separate batches may share a key
    width = draw(st.integers(1, 4))
    keys = draw(st.lists(st.lists(st.integers(0, 2), min_size=width, max_size=width),
                         min_size=len(sizes), max_size=len(sizes)))
    return shape, cfg, sizes, np.array(ids, dtype=np.int64), keys, draw(st.integers(0, 2**32 - 1))


class TestPerRowKeys:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_grouped_cases())
    def test_one_call_equals_per_batch_calls_bytewise(self, case):
        shape, cfg, sizes, ids, keys, seed = case
        x = np.random.default_rng(seed).normal(size=(len(ids), *shape))
        got = P.perturb_pair(x, cfg, np.repeat(np.array(keys), sizes, axis=0), sample_ids=ids)
        bounds = np.cumsum([0] + sizes)
        parts = [P.perturb_pair(x[a:b], cfg, tuple(key), sample_ids=ids[a:b])
                 for a, b, key in zip(bounds, bounds[1:], keys)]
        for v in (0, 1):
            want = np.concatenate([part[v] for part in parts])
            assert got[v].shape == want.shape and got[v].tobytes() == want.tobytes()

    def test_integer_wraparound_signals_nothing(self):
        """Philox's uint64 products wrap by design: image views with noise and
        per-row keys raise no numpy error or warning under
        ``np.errstate(all="raise")``, and keep their bytes."""
        x = np.random.default_rng(0).normal(size=(5, 2, 7, 7))
        keys = np.array([[0, 2 ** 62], [1, 5], [1, 5], [2 ** 62 + 9, 3], [7, 0]])
        ids = np.array([0, 3, 4, 2 ** 40, 11])
        cfg = P.PerturbConfig(rotation_deg_max=30.0, translate_frac_max=0.2, flip_prob=0.5,
                              noise_enabled=True)
        want = P.perturb_pair(x, cfg, keys, sample_ids=ids)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = P.perturb_pair(x, cfg, keys, sample_ids=ids)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_key_rows_must_match_batch(self):
        x = np.zeros((3, 4))
        with pytest.raises(ContractError):
            P.perturb_pair(x, _noisy_cfg(), np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ContractError):
            P.perturb_pair(x, _noisy_cfg(), np.array([[0], [1], [-1]]))
        with pytest.raises(ContractError):
            P.perturb_pair(x, _noisy_cfg(), np.zeros((3, 2)))
