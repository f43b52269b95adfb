"""Perturbation draws, transforms, and keyed-substream independence."""

import numpy as np
import pytest

from relcon import perturb as P
from relcon.errors import DimensionError


def _noisy_cfg(variance=0.01, clip=0.2):
    return P.PerturbConfig(noise=P.GaussianNoiseConfig(True, variance, clip))


def _perturbed(x, cfg, rng):
    return P.apply_draw(x, P.draw_perturbation(x.shape, cfg, rng))


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
        assert np.array_equal(P.apply_draw(x, draw), x)


class TestTransforms:
    def test_identity_draw(self):
        img = np.arange(16.0).reshape(1, 4, 4)
        out = P.apply_draw(img, P.PerturbDraw())
        assert np.array_equal(out, img)

    def test_horizontal_flip(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = P.apply_draw(img, P.PerturbDraw(flip_h=True))
        assert np.array_equal(out[0], [[2.0, 1.0], [4.0, 3.0]])

    def test_vertical_flip(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = P.apply_draw(img, P.PerturbDraw(flip_v=True))
        assert np.array_equal(out[0], [[3.0, 4.0], [1.0, 2.0]])

    def test_translate_shift_oracle(self):
        # shifting right by one: first column becomes zero padding
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = P.apply_draw(img, P.PerturbDraw(dx=1))
        assert np.array_equal(out[0], [[0.0, 1.0], [0.0, 3.0]])

    def test_translate_down(self):
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = P.apply_draw(img, P.PerturbDraw(dy=1))
        assert np.array_equal(out[0], [[0.0, 0.0], [1.0, 2.0]])

    def test_rotation_90_degrees(self):
        img = np.zeros((1, 5, 5))
        img[0, 0, 2] = 1.0  # mark top-center
        out = P.apply_draw(img, P.PerturbDraw(angle_deg=90.0))
        assert out.sum() == 1.0
        assert out[0, 0, 2] == 0.0  # it moved

    def test_rotation_preserves_center(self):
        img = np.zeros((1, 5, 5))
        img[0, 2, 2] = 1.0
        out = P.apply_draw(img, P.PerturbDraw(angle_deg=37.0))
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
        v1, v2, _ = P.perturb_pair(x, P.PerturbConfig.zero(), (0,))
        assert np.array_equal(v1, x)
        assert np.array_equal(v2, x)

    def test_views_from_disjoint_substreams(self):
        cfg = _noisy_cfg()
        x = np.random.default_rng(8).normal(size=(3, 1, 8, 8))
        v1a, v2a, _ = P.perturb_pair(x, cfg, (5,))
        v1b, v2b, _ = P.perturb_pair(x, cfg, (5,))
        assert np.array_equal(v1a, v1b) and np.array_equal(v2a, v2b)
        assert not np.array_equal(v1a, v2a)

    def test_per_sample_keying_commutes_with_permutation(self):
        cfg = _noisy_cfg()
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 1, 8, 8))
        ids = np.array([10, 11, 12, 13, 14, 15])
        v1, _, _ = P.perturb_pair(x, cfg, (3,), sample_ids=ids)
        perm = np.array([4, 2, 0, 5, 1, 3])
        v1p, _, _ = P.perturb_pair(x[perm], cfg, (3,), sample_ids=ids[perm])
        assert np.array_equal(v1p, v1[perm])

    def test_batch_composition_independence(self):
        cfg = _noisy_cfg()
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 1, 8, 8))
        ids = np.arange(5)
        full, _, _ = P.perturb_pair(x, cfg, (4,), sample_ids=ids)
        subset, _, _ = P.perturb_pair(x[1:3], cfg, (4,), sample_ids=ids[1:3])
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
        v1, v2, (draws1, _) = P.perturb_pair(x, cfg, (2,))
        assert np.abs(v1 - x).max() <= 0.2 + 1e-12
        assert all(d.angle_deg == 0 and d.dx == 0 for d in draws1)
