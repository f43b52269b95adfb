"""Loss functions and relation-matrix algebra."""

import math

import numpy as np
import pytest

from relcon import experiments as E
from relcon import losses
from relcon import tensor as T
from relcon.errors import ContractError, DimensionError

SQ2 = math.sqrt(2.0)


class TestWeightedCrossEntropy:
    def test_uniform_logits_binary(self):
        loss = losses.weighted_cross_entropy(T.constant([[0.0, 0.0]]), np.array([0]), np.ones(2))
        assert abs(loss.item() - math.log(2)) <= 1e-12

    def test_confident_correct_goes_to_zero(self):
        loss = losses.weighted_cross_entropy(
            T.constant([[40.0, 0.0]]), np.array([0]), np.ones(2))
        assert loss.item() <= 1e-12

    def test_weights_scale_per_sample_terms(self):
        logits = np.array([[0.0, 0.0], [0.0, 0.0]])
        y = np.array([0, 1])
        w = np.array([2.0, 1.0])
        loss = losses.weighted_cross_entropy(T.constant(logits), y, w)
        assert abs(loss.item() - (2 * math.log(2) + math.log(2)) / 2) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            losses.weighted_cross_entropy(T.constant([[0.0, 0.0]]), np.array([2]), np.ones(2))

    def test_multilabel_uniform(self):
        # sigmoid(0) = 0.5 for every entry: BCE = ln 2 per element
        loss = losses.weighted_cross_entropy(
            T.constant(np.zeros((3, 4))), np.zeros((3, 4), dtype=int), np.ones(4))
        assert abs(loss.item() - math.log(2)) <= 1e-12

    def test_multilabel_matches_manual(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=(5, 3))
        w = rng.uniform(0.5, 2.0, size=3)
        p = 1 / (1 + np.exp(-z))
        manual = -(y * np.log(p) + (1 - y) * np.log(1 - p)) * w
        loss = losses.weighted_cross_entropy(T.constant(z), y, w)
        assert abs(loss.item() - manual.mean()) <= 1e-10


class TestConsistencyMse:
    def test_equal_inputs_zero(self):
        p = np.random.default_rng(0).dirichlet(np.ones(3), size=4)
        assert losses.consistency_mse(T.constant(p), p).item() == 0.0

    def test_opposite_onehot(self):
        loss = losses.consistency_mse(T.constant([[1.0, 0.0]]), [[0.0, 1.0]])
        assert loss.item() == 2.0

    def test_mean_over_batch(self):
        p_s = np.array([[1.0, 0.0], [0.3, 0.7]])
        p_t = np.array([[0.0, 1.0], [0.3, 0.7]])
        assert losses.consistency_mse(T.constant(p_s), p_t).item() == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            losses.consistency_mse(T.constant([[1.0, 0.0]]), [[1.0, 0.0, 0.0]])


class TestGramMatrix:
    def test_identity(self):
        out = losses.gram_matrix(T.constant(np.eye(2)))
        assert np.array_equal(out.data, np.eye(2))

    def test_inner_product_oracle(self):
        out = losses.gram_matrix(T.constant([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out.data, [[5.0, 11.0], [11.0, 25.0]])

    def test_constant_rows(self):
        out = losses.gram_matrix(T.constant([[1.0, 1.0], [1.0, 1.0]]))
        assert np.array_equal(out.data, [[2.0, 2.0], [2.0, 2.0]])

    def test_single_sample_rejected(self):
        with pytest.raises(ContractError):
            losses.gram_matrix(T.constant([[1.0, 2.0]]))

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(1, 12))))
            g = losses.gram_matrix(T.constant(a)).data
            assert np.abs(g - g.T).max() <= 1e-12
            assert np.linalg.eigvalsh(g).min() >= -1e-8


class TestRelationMatrix:
    def test_identity_rows_already_unit(self):
        out = losses.relation_matrix(T.constant(np.eye(2)))
        assert np.allclose(out.data, np.eye(2), atol=1e-15)

    def test_constant_rows(self):
        out = losses.relation_matrix(T.constant([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(out.data, SQ2 / 2, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 7))
        base = losses.relation_matrix(T.constant(a)).data
        for c in (0.5, 3.7, 100.0):
            scaled = losses.relation_matrix(T.constant(c * a)).data
            assert np.abs(scaled - base).max() <= 1e-9

    def test_unit_row_norms(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.normal(size=(int(rng.integers(2, 10)), int(rng.integers(1, 16))))
            r = losses.relation_matrix(T.constant(a)).data
            assert np.abs(np.linalg.norm(r, axis=1) - 1.0).max() <= 1e-9
            assert (np.abs(r) <= 1 + 1e-9).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 5))
        r = losses.relation_matrix(T.constant(a)).data
        for _ in range(20):
            p = rng.permutation(6)
            rp = losses.relation_matrix(T.constant(a[p])).data
            assert np.abs(rp - r[np.ix_(p, p)]).max() <= 1e-12

    def test_zero_rows_guarded(self):
        out = losses.relation_matrix(T.constant([[0.0, 0.0], [1.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert np.array_equal(out.data[0], [0.0, 0.0])


class TestRelationLoss:
    def test_equal_inputs_exactly_zero(self):
        a = np.random.default_rng(9).normal(size=(4, 6))
        assert losses.src_loss(T.constant(a), a).item() == 0.0

    def test_hand_value(self):
        value = losses.src_loss(T.constant(np.eye(2)), np.ones((2, 2))).item()
        expected = 0.5 * 2 * ((1 - SQ2 / 2) ** 2 + (SQ2 / 2) ** 2)
        assert abs(value - expected) <= 1e-12
        assert abs(value - 0.58579) <= 1e-5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        a1, a2 = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        base = losses.src_loss(T.constant(a1), a2).item()
        p = rng.permutation(5)
        permuted = losses.src_loss(T.constant(a1[p]), a2[p]).item()
        assert abs(base - permuted) <= 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a1 = rng.normal(size=(3, 4))
            a2 = rng.normal(size=(3, 4))
            assert losses.src_loss(T.constant(a1), a2).item() >= 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            b = int(rng.integers(2, 17))
            d = int(rng.integers(1, 33))
            a1, a2 = rng.normal(size=(b, d)), rng.normal(size=(b, d))
            fast = losses.src_loss(T.constant(a1), a2).item()

            def rel(a):
                g = [[sum(a[i][x] * a[j][x] for x in range(d)) for j in range(b)]
                     for i in range(b)]
                rows = []
                for i in range(b):
                    norm = max(math.sqrt(sum(v * v for v in g[i])), 1e-8)
                    rows.append([v / norm for v in g[i]])
                return rows

            r1, r2 = rel(a1), rel(a2)
            slow = sum((r1[i][j] - r2[i][j]) ** 2
                       for i in range(b) for j in range(b)) / b
            assert abs(fast - slow) <= 1e-10 * max(abs(slow), 1.0)


class TestFeatureConsistency:
    def test_equal_inputs(self):
        a = np.ones((2, 3))
        assert losses.feature_consistency_loss(T.constant(a), a).item() == 0.0

    def test_unit_difference(self):
        loss = losses.feature_consistency_loss(T.constant([[1.0, 1.0]]), [[0.0, 0.0]])
        assert loss.item() == 1.0

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(13)
        a1, a2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        base = losses.feature_consistency_loss(T.constant(a1), a2).item()
        scaled = losses.feature_consistency_loss(T.constant(3 * a1), 3 * a2).item()
        assert abs(scaled - 9 * base) <= 1e-9 * max(abs(base), 1.0)


class TestDistanceMatrix:
    def test_equal_inputs(self):
        r = np.random.default_rng(14).normal(size=(3, 3))
        assert np.array_equal(losses.distance_matrix(r, r), np.zeros((3, 3)))

    def test_amplification(self):
        d = losses.distance_matrix(np.array([[0.2]]), np.array([[0.0]]))
        assert np.allclose(d, [[0.6]])

    def test_clipping(self):
        d = losses.distance_matrix(np.array([[0.5]]), np.array([[0.0]]))
        assert np.array_equal(d, [[1.0]])


class TestGradients:
    """Central-difference validation for every loss, including the row
    normalization chain, and the no-gradient-to-teacher contract."""

    @pytest.mark.parametrize("seed", range(25))
    def test_all_losses(self, seed):
        rng = np.random.default_rng(1000 + seed)
        b = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        d = int(rng.integers(2, 10))
        y = rng.integers(0, k, size=b)
        w = rng.uniform(0.5, 2.0, size=k)
        y_multi = rng.integers(0, 2, size=(b, k))
        p_t = rng.dirichlet(np.ones(k), size=b)
        a_t = rng.normal(size=(b, d))

        checks = [
            (lambda t: losses.weighted_cross_entropy(t, y, w), (b, k)),
            (lambda t: losses.weighted_cross_entropy(t, y_multi, w), (b, k)),
            (lambda t: losses.consistency_mse(T.softmax(t), p_t), (b, k)),
            (lambda t: losses.src_loss(t, a_t), (b, d)),
            (lambda t: losses.feature_consistency_loss(t, a_t), (b, d)),
        ]
        for f, shape in checks:
            assert T.finite_difference_check(f, rng.normal(size=shape)) <= 1e-4

    def test_gradient_through_row_normalization(self):
        # degenerate-ish rows with large norm disparities: the hard case.
        # The tiny row raises the curvature near the normalization, so a
        # smaller eps is needed to keep central-difference truncation low.
        rng = np.random.default_rng(55)
        a_t = rng.normal(size=(4, 3))
        x = rng.normal(size=(4, 3)) * np.array([[1e-2], [1.0], [10.0], [0.3]])
        err = T.finite_difference_check(lambda t: losses.src_loss(t, a_t), x, eps=1e-6)
        assert err <= 1e-4

    def test_teacher_side_receives_no_gradient(self):
        rng = np.random.default_rng(56)
        a_s = T.parameter(rng.normal(size=(3, 4)), name="student")
        a_t = T.parameter(rng.normal(size=(3, 4)), name="teacher")
        for node in (losses.src_loss(a_s, a_t),
                     losses.feature_consistency_loss(a_s, a_t),
                     losses.consistency_mse(a_s, a_t)):
            grads = T.backward(node)
            assert "teacher" not in grads
            assert a_t.grad is None
            assert "student" in grads


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        r = losses.relation_matrix(T.constant(rng.normal(size=(5, 3)))).data
        path = tmp_path / "rel.csv"
        E.write_matrix_csv(r, path)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        assert back.shape == (5, 5)
        assert np.abs(back - r).max() <= 1e-8  # 9 significant digits

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        E.write_matrix_csv(np.array([[1.0 / 3.0]]), path)
        assert path.read_text().strip() == "0.333333333"
