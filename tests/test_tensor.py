"""Tape engine: op semantics, backward rules, finite-difference validation."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relcon import tensor as T
from relcon.errors import ContractError, DimensionError, NumericError


class TestMatmul:
    def test_identity(self):
        a = T.constant(np.eye(2))
        b = T.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_inner_product_oracle(self):
        # expected values computed by hand as row-by-column inner products
        out = T.matmul(T.constant([[1.0, 2.0], [3.0, 4.0]]), T.constant([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_zero_case(self):
        out = T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.ones((3, 2))))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 2))))

    def test_backward_rule(self):
        a = T.parameter([[1.0, 2.0], [3.0, 4.0]], name="a")
        b = T.parameter([[5.0], [6.0]], name="b")
        grads = T.backward(T.sum_all(T.matmul(a, b)))
        # dA = dC B^T, dB = A^T dC with dC = ones
        assert np.allclose(grads["a"], np.ones((2, 1)) @ b.data.T)
        assert np.allclose(grads["b"], a.data.T @ np.ones((2, 1)))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.constant([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_closed_form_ratio(self):
        out = T.softmax(T.constant([[np.log(1.0), np.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_large_logits_stay_finite(self):
        out = T.softmax(T.constant([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] > 1 - 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(scale=10, size=(4, 5))
            out = T.softmax(T.constant(x))
            assert np.abs(out.data.sum(axis=1) - 1).max() <= 1e-12
            assert (out.data > 0).all() and (out.data < 1).all()

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(T.constant([[np.inf, 0.0]]))


class TestElementwise:
    def test_relu(self):
        assert np.array_equal(T.clip_min(T.constant([-1.0, 2.0]), 0.0).data, [0.0, 2.0])

    def test_scale(self):
        assert np.array_equal(T.scale(T.constant([1.0, 2.0]), 0.5).data, [0.5, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(T.constant([1.0]), T.constant([1.0, 2.0]))


class TestReductions:
    def test_frobenius_sq(self):
        assert T.frobenius_sq(T.constant(np.ones((2, 2)))).item() == 4.0

    def test_row_l2_norm(self):
        assert np.allclose(T.row_l2_norm(T.constant([[3.0, 4.0]])).data, [5.0])

    def test_mean(self):
        assert T.mean_all(T.constant([1.0, 2.0, 3.0])).item() == 2.0


class TestBackward:
    def test_sum_gradient(self):
        x = T.parameter([1.0, 2.0, 3.0], name="x")
        grads = T.backward(T.sum_all(x))
        assert np.array_equal(grads["x"], [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = T.parameter([2.0], name="x")
        grads = T.backward(T.frobenius_sq(x))
        assert np.array_equal(grads["x"], [4.0])

    def test_non_scalar_root_rejected(self):
        x = T.parameter([1.0, 2.0], name="x")
        with pytest.raises(ContractError):
            T.backward(x)

    def test_composite_vs_finite_differences(self):
        rng = np.random.default_rng(42)
        b = T.constant(rng.normal(size=(3, 4)))

        def f(t):
            tb = T.matmul(t, b)
            return T.mean_all(T.mul(tb, tb))

        err = T.finite_difference_check(f, rng.normal(size=(2, 3)))
        assert err <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(4, 4))

        def run():
            x = T.parameter(data, name="x")
            out = T.frobenius_sq(T.softmax(T.matmul(x, T.transpose(x))))
            return T.backward(out)["x"]

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_value_reevaluation_bitwise_identical(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(5, 3))
        v1 = T.softmax(T.matmul(T.constant(data), T.transpose(T.constant(data)))).data
        v2 = T.softmax(T.matmul(T.constant(data), T.transpose(T.constant(data)))).data
        assert np.array_equal(v1, v2)

    def test_reused_node_accumulates(self):
        x = T.parameter([[1.0, 2.0], [3.0, 4.0]], name="x")
        grads = T.backward(T.frobenius_sq(T.matmul(x, T.transpose(x))))
        err = T.finite_difference_check(
            lambda t: T.frobenius_sq(T.matmul(t, T.transpose(t))), x.data)
        assert err <= 1e-6
        assert grads["x"].shape == (2, 2)

    def test_constant_only_nodes_keep_no_tape(self):
        c = T.constant(np.ones((2, 2)))
        const_out = T.clip_min(T.matmul(c, c), 0.0)
        assert const_out.inputs == () and not const_out.requires_grad
        x = T.parameter(np.ones((2, 2)), name="x")
        mixed = T.matmul(x, c)
        assert mixed.inputs == (x, c)

    def test_vjps_skip_operands_without_gradient(self):
        x, m = T.parameter(np.ones((2, 3)), name="x"), T.constant(np.ones((2, 3)))
        g = np.ones((2, 3))
        assert [t is None for t in T.mul(x, m)._vjp(g)] == [False, True]
        assert [t is None for t in T.mul(m, x)._vjp(g)] == [True, False]
        assert [t is None for t in T.matmul(x, T.constant(np.ones((3, 3))))._vjp(g)] == \
            [False, True]
        assert [t is None for t in T.matmul(T.constant(np.ones((2, 2))), x)._vjp(g)] == \
            [True, False]
        assert [t is None for t in T.add_bias(x, T.constant(np.ones(3)))._vjp(g)] == \
            [False, True]
        assert [t is None for t in T.add_bias(m, T.parameter(np.ones(3)))._vjp(g)] == \
            [True, False]

    def test_backward_keeps_leaf_grads_only(self):
        x = T.parameter([[1.0, -2.0], [3.0, 4.0]], name="x")
        hidden = T.clip_min(T.matmul(x, T.transpose(x)), 0.0)
        grads = T.backward(T.sum_all(hidden))
        assert hidden.grad is None
        assert x.grad is grads["x"]


class TestFiniteDifferenceCheck:
    def test_linear_nearly_exact(self):
        w = T.constant(np.arange(1.0, 7.0).reshape(2, 3))
        err = T.finite_difference_check(
            lambda t: T.sum_all(T.mul(t, w)), np.ones((2, 3)))
        assert err <= 1e-9

    def test_constant_function(self):
        err = T.finite_difference_check(
            lambda t: T.sum_all(T.scale(t, 0.0)), np.ones(3))
        assert err <= 1e-12

    def test_bad_eps_rejected(self):
        with pytest.raises(ContractError):
            T.finite_difference_check(lambda t: T.sum_all(t), np.ones(2), eps=0.0)


class TestOpGradientsSweep:
    """Every registered op passes central differences over 100+ seeds."""

    @pytest.mark.parametrize("seed", range(100))
    def test_random_composites(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 6))
        d = int(rng.integers(2, 6))
        w = rng.normal(size=(d, 3))
        bias = rng.normal(size=3)
        mix = rng.normal(size=(b, d))  # keeps the normalization case non-constant
        cases = {
            "relu_chain": lambda t: T.mean_all(T.clip_min(T.add_bias(
                T.matmul(t, T.constant(w)), T.constant(bias)), 0.0)),
            "softmax_fro": lambda t: T.frobenius_sq(T.softmax(t)),
            "sigmoid_mean": lambda t: T.mean_all(T.sigmoid(t)),
            "softplus": lambda t: T.mean_all(T.softplus(t)),
            "logsumexp": lambda t: T.mean_all(T.logsumexp_rows(t)),
            "row_norm": lambda t: T.mean_all(T.row_l2_norm(t)),
            "div_rows": lambda t: T.frobenius_sq(T.mul(
                T.div_rows(t, T.clip_min(T.row_l2_norm(t), 1e-8)), T.constant(mix))),
            "slice": lambda t: T.frobenius_sq(T.slice_rows(t, 0, b - 1)),
            "add_reshape_sum": lambda t: T.sum_all(T.reshape(
                T.add(t, T.constant(mix)), (d, b))),
            "sub_take": lambda t: T.mean_all(T.take_per_row(
                T.sub(t, T.constant(mix)), np.arange(b) % d)),
        }
        # keep x away from relu/abs kinks so central differences stay valid
        x = rng.normal(size=(b, d)) + 0.05 * np.sign(rng.normal(size=(b, d)))
        for name, f in cases.items():
            err = T.finite_difference_check(f, x)
            assert err <= 1e-4, f"{name} seed {seed}: {err}"

    @pytest.mark.parametrize("shape", [(3, 4), (1, 5)])
    def test_add_bias_both_operands(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(size=shape)
        b = rng.normal(size=shape[-1])
        weights = T.constant(rng.normal(size=shape))

        def f_x(t):
            return T.sum_all(T.mul(T.add_bias(t, T.constant(b)), weights))

        def f_b(t):
            return T.frobenius_sq(T.add_bias(T.constant(x), t))

        assert T.finite_difference_check(f_x, x) <= 1e-4
        assert T.finite_difference_check(f_b, b) <= 1e-4

    @pytest.mark.parametrize("x_shape, b_shape", [
        ((2, 3, 4), (4,)), ((2, 3), (4,)), ((2, 4, 4, 3), (4,)), ((2, 3), (1, 3)),
        ((2, 3, 4, 5), (5,))])
    def test_add_bias_rejects_shapes(self, x_shape, b_shape):
        with pytest.raises(DimensionError, match="add_bias"):
            T.add_bias(T.constant(np.ones(x_shape)), T.constant(np.ones(b_shape)))

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_ops(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)

        # squared relu outputs are smooth through the kink
        def f(t):
            h = T.conv2d(t, T.constant(w), T.constant(bias))
            return T.frobenius_sq(T.global_avg_pool(T.mul(h, h)))

        err = T.finite_difference_check(f, rng.normal(size=(2, 5, 5, 2)))
        assert err <= 1e-4

        x_fixed = rng.normal(size=(2, 5, 5, 2))

        def f_w(t):
            h = T.conv2d(T.constant(x_fixed), t, T.constant(bias))
            return T.mean_all(T.mul(h, h))

        def f_b(t):
            h = T.conv2d(T.constant(x_fixed), T.constant(w), t)
            return T.mean_all(T.mul(h, h))

        assert T.finite_difference_check(f_w, w) <= 1e-4
        assert T.finite_difference_check(f_b, bias) <= 1e-4


# channels-last map shapes: B in 1..4, H and W in 1..6, Cin and Cout in 1..4
_MAP_CASES = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
                       st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))


def _direct_conv(x, w):
    """Zero-padded 3x3 correlation straight from its definition, one output at a time
    (no bias, no relu)."""
    b, h, wd, _ = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((b, h, wd, w.shape[0]))
    for n in range(b):
        for y in range(h):
            for xx in range(wd):
                for o in range(w.shape[0]):
                    out[n, y, xx, o] = (xp[n, y:y + 3, xx:xx + 3, :]
                                        * w[o].transpose(1, 2, 0)).sum()
    return out


def _map_case(case):
    """x, w, b and a weighting of the outputs for one channels-last case."""
    b, h, wd, cin, cout, seed = case
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(b, h, wd, cin)), rng.normal(size=(cout, cin, 3, 3)),
            rng.normal(size=cout), rng.normal(size=(b, h, wd, cout)))


class TestConvNetOpProperties:
    """conv2d and global_avg_pool on random channels-last shapes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_MAP_CASES)
    def test_conv2d_matches_direct_definition(self, case):
        x, w, bias, _ = _map_case(case)
        out = T.conv2d(T.constant(x), T.constant(w), T.constant(bias)).data
        assert out.shape == x.shape[:3] + (w.shape[0],)
        assert np.abs(out - np.maximum(_direct_conv(x, w) + bias, 0.0)).max() <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_MAP_CASES)
    def test_conv2d_all_operands(self, case):
        """Central differences, on points whose pre-relu values all stay
        clear of 0 under the check's 1e-5 steps."""
        x, w, bias, weights = _map_case(case)
        assume(np.abs(_direct_conv(x, w) + bias).min() > 1e-3)
        weights = T.constant(weights)
        x_, w_, b_ = T.constant(x), T.constant(w), T.constant(bias)
        assert T.finite_difference_check(
            lambda t: T.sum_all(T.mul(T.conv2d(t, w_, b_), weights)), x) <= 1e-4
        assert T.finite_difference_check(
            lambda t: T.sum_all(T.mul(T.conv2d(x_, t, b_), weights)), w) <= 1e-4
        assert T.finite_difference_check(
            lambda t: T.sum_all(T.mul(T.conv2d(x_, w_, t), weights)), bias) <= 1e-4

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_MAP_CASES)
    def test_global_avg_pool(self, case):
        b, h, wd, c, _, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(b, h, wd, c))
        pooled = T.constant(rng.normal(size=(b, c)))
        assert T.finite_difference_check(
            lambda t: T.sum_all(T.mul(T.global_avg_pool(t), pooled)), x) <= 1e-4

    def test_conv2d_rejects_bias_shape(self):
        x, w = T.constant(np.ones((1, 3, 3, 2))), T.constant(np.ones((4, 2, 3, 3)))
        for bias in (np.ones(3), np.ones((1, 4))):
            with pytest.raises(DimensionError, match="bias"):
                T.conv2d(x, w, T.constant(bias))


def _closure(fn, name):
    """The value a closure captured under ``name``."""
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))[name]


class TestConvScratch:
    def test_tape_holds_no_scratch_view(self):
        """conv2d reuses its patch scratch, so no live graph may read it later."""
        rng = np.random.default_rng(0)
        w0, w1 = rng.normal(size=(4, 2, 3, 3)), rng.normal(size=(3, 4, 3, 3))
        b0, b1 = rng.normal(size=4), rng.normal(size=3)
        xa, xb = rng.normal(size=(2, 3, 5, 6, 2))

        def graph(x):
            h = T.conv2d(T.constant(x), T.parameter(w0, name="w0"), T.parameter(b0, name="b0"))
            return T.frobenius_sq(T.conv2d(h, T.parameter(w1, name="w1"),
                                           T.parameter(b1, name="b1")))

        alone = [T.backward(graph(x)) for x in (xa, xb)]
        first = graph(xa)
        # an eval pass at a larger batch grows and overwrites every scratch slot
        T.conv2d(T.constant(rng.normal(size=(9, 5, 6, 2))), T.constant(w0), T.constant(b0))
        second = graph(xb)
        for root, want in zip((first, second), alone):
            got = T.backward(root)
            assert got.keys() == want.keys() == {"w0", "b0", "w1", "b1"}
            assert all(np.array_equal(got[k], want[k]) for k in want)

    def test_weight_gradient_patches_are_node_owned(self, monkeypatch):
        """A forward whose weight takes a gradient keeps its patches in an
        array of its own, across blocks and out of every thread's scratch;
        a forward with a constant weight keeps none."""
        monkeypatch.setattr(T, "CONV_BLOCK_VALUES", 5 * 6 * 9 * 2 * 3)   # 3 images a block
        rng = np.random.default_rng(4)
        x, w, bias = rng.normal(size=(7, 5, 6, 2)), rng.normal(size=(3, 2, 3, 3)), np.zeros(3)
        scratch = []

        def conv_in_thread():
            node = T.conv2d(T.constant(x), T.parameter(w, name="w"), T.constant(bias))
            scratch.extend(vars(T._scratch).values())
            return node

        with ThreadPoolExecutor(max_workers=1) as pool:
            node = pool.submit(conv_in_thread).result()
        student = T.conv2d(T.constant(x), T.parameter(w, name="w"), T.constant(bias))
        scratch.extend(vars(T._scratch).values())
        want = T._patches(x).copy()
        for n in (node, student):
            kept = _closure(n._vjp, "kept")
            assert kept.flags.owndata and kept.flags.c_contiguous
            assert not any(np.shares_memory(kept, buf) for buf in scratch)
            assert np.array_equal(kept, want)
        target = T.conv2d(T.constant(x), T.constant(w), T.parameter(bias, name="b"))
        assert _closure(target._vjp, "kept") is None


def _conv_outputs(x, w, bias, g):
    """conv2d forward and its input, weight and bias gradients under the adjoint g."""
    xs, ws, bs = T.parameter(x, name="x"), T.parameter(w, name="w"), T.parameter(bias, name="b")
    out = T.conv2d(xs, ws, bs)
    grads = T.backward(T.sum_all(T.mul(out, T.constant(g))))   # conv adjoint: exactly g
    return out.data, grads["x"], grads["w"], grads["b"]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestConvBlocks:
    def test_blocks_match_one_whole_batch_product(self, monkeypatch):
        """A forward cut into three blocks has the bits of one whole-batch
        GEMM. Cut with a one-image tail instead, that tail would take the
        BLAS's small-matrix kernel and round differently."""
        h, wd, cin, cout = 12, 12, 6, 8
        b = 2 * (T.CONV_BLOCK_VALUES // (h * wd * 9 * cin)) + 1
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(b, h, wd, cin)), rng.normal(size=(cout, cin, 3, 3))
        bias, g = rng.normal(size=cout), rng.normal(size=(b, h, wd, cout))
        blocked = _conv_outputs(x, w, bias, g)
        monkeypatch.setattr(T, "CONV_BLOCK_VALUES", 2 ** 62)
        assert all(map(_same_bits, blocked, _conv_outputs(x, w, bias, g)))

    def test_threads_keep_their_own_scratch(self):
        """Threads running conv2d forward and backward at once, on different
        inputs, get the bits of a sequential run."""
        rng = np.random.default_rng(1)
        w, bias = rng.normal(size=(8, 6, 3, 3)), rng.normal(size=8)
        cases = [(rng.normal(size=(40, 12, 12, 6)), rng.normal(size=(40, 12, 12, 8)))
                 for _ in range(4)]
        want = [_conv_outputs(x, w, bias, g) for x, g in cases]

        def mismatches(k):
            x, g = cases[k]
            return sum(not all(map(_same_bits, _conv_outputs(x, w, bias, g), want[k]))
                       for _ in range(20))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                futures = [pool.submit(mismatches, k) for k in range(len(cases))]
                counts = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert counts == [0] * len(cases)


def _unfused_conv2d(x, w):
    """conv2d as it was before the bias and relu moved into it: blocked
    forward GEMMs into the output, patches rebuilt by the vjp."""
    n, h, wd, cin = x.shape
    cout = w.shape[0]
    wmat = w.data.transpose(0, 2, 3, 1).reshape(cout, 9 * cin).T
    out = np.empty((n, h, wd, cout))
    blocks = -(-n // max(1, T.CONV_BLOCK_VALUES // (h * wd * 9 * cin)))
    stop = 0
    for k in range(blocks):
        start, stop = stop, stop + n // blocks + (k < n % blocks)
        np.matmul(T._patches(x.data[start:stop]), wmat, out=out[start:stop].reshape(-1, cout))

    def vjp(g):
        gmat = g.reshape(n * h * wd, cout)
        gw = (gmat.T @ T._patches(x.data)).reshape(cout, 3, 3, cin).transpose(0, 3, 1, 2)
        wflip = w.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(9 * cout, cin)
        return T._patches(g.reshape(n, h, wd, cout)) @ wflip, gw

    return T._node("conv2d", out, (x, w), vjp)


def _unfused_add_bias(x, b):
    """The 4-D branch add_bias had before conv2d took the bias."""

    def vjp(g):
        return g, T._sum_positions(g.reshape((1, -1) + g.shape[2:]))[0]

    return T._node("add_bias", x.data + b.data, (x, b), vjp)


def _fused_and_unfused(x, w, bias, g):
    def run(layer):
        xs, ws, bs = T.parameter(x, name="x"), T.parameter(w, name="w"), T.parameter(bias, name="b")
        out = layer(xs, ws, bs)
        grads = T.backward(T.sum_all(T.mul(out, T.constant(g))))
        return out.data, grads["x"], grads["w"], grads["b"]

    return run(T.conv2d), run(lambda xs, ws, bs: T.clip_min(
        _unfused_add_bias(_unfused_conv2d(xs, ws), bs), 0.0))


def _with_zeros(rng, a, signed=True):
    """``a`` with about a quarter of its entries set to +0.0 or -0.0."""
    zeros = np.where(rng.random(a.shape) < 0.5, -0.0, 0.0) if signed else 0.0
    return np.where(rng.random(a.shape) < 0.25, zeros, a)


# (h, w, Cin, Cout, batch mode, seed): the batch is 1-4 images, or one image
# short of, at, or one past one or two blocks' worth under CONV_BLOCK_VALUES
_FUSED_CASES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),
                         st.integers(1, 4), st.sampled_from(["small", -1, 0, 1]),
                         st.integers(0, 2**32 - 1))


class TestFusedConvBits:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_FUSED_CASES)
    def test_same_bits_as_unfused_chain(self, case):
        """conv2d(x, w, b) against clip_min(add_bias(conv(x, w), b), 0.0) as
        three tape ops: forward and all three gradients, bit for bit, with
        signed zeros in every operand, exact zeros before the relu (zero
        images under zero biases) and batches at the block bound."""
        h, wd, cin, cout, mode, seed = case
        rng = np.random.default_rng(seed)
        per_block = T.CONV_BLOCK_VALUES // (h * wd * 9 * cin)
        n = int(rng.integers(1, 5)) if mode == "small" else \
            per_block * int(rng.integers(1, 3)) + mode
        x = _with_zeros(rng, rng.normal(size=(n, h, wd, cin)))
        x[rng.random(n) < 0.3] = 0.0
        w = _with_zeros(rng, rng.normal(size=(cout, cin, 3, 3)))
        bias = _with_zeros(rng, rng.normal(size=cout))
        g = _with_zeros(rng, rng.normal(size=(n, h, wd, cout)), signed=False)
        fused, unfused = _fused_and_unfused(x, w, bias, g)
        assert [_same_bits(a, b) for a, b in zip(fused, unfused)] == [True] * 4

    def test_nan_input(self):
        """NaN before the relu gives 0 and masks the adjoint, as clip_min does."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 3, 1))
        x[0, 1, 1, 0] = np.nan
        w, bias = rng.normal(size=(2, 1, 3, 3)), np.array([0.0, -0.0])
        fused, unfused = _fused_and_unfused(x, w, bias, rng.normal(size=(2, 3, 3, 2)))
        assert all(map(_same_bits, fused, unfused))
        assert not np.isnan(fused[0]).any()


class TestClipMinForward:
    @pytest.mark.parametrize("floor", [0.0, 1e-8])
    def test_same_bits_as_where(self, floor):
        rng = np.random.default_rng(3)
        specials = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, floor, -floor,
                    np.nextafter(floor, 1.0), np.nextafter(floor, -1.0), 5e-324, -5e-324]
        x = np.concatenate([specials, rng.normal(size=500), rng.normal(scale=1e-8, size=500)])
        # numpy takes other loops for short arrays and tails, and there
        # np.fmax(-0.0, 0.0) can give -0.0
        for values in [x, *([v] for v in specials), specials]:
            values = np.array(values)
            got = T.clip_min(T.constant(values), floor).data
            want = np.where(values > floor, values, floor)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), values


def _tensor_ops() -> list[str]:
    """tensor's public ops, found as the benchmark's tracer finds them."""
    not_ops = {"constant", "parameter", "backward", "finite_difference_check"}
    return sorted(name for name, fn in vars(T).items()
                  if callable(fn) and not isinstance(fn, type)
                  and not name.startswith("_") and name not in not_ops
                  and getattr(fn, "__module__", None) == T.__name__)


class _Weigher:
    """node -> a scalar that weighs each entry by a random factor, drawn once
    per output shape so that every call computes the same function."""

    def __init__(self, rng):
        self.rng, self.weights = rng, {}

    def __call__(self, node):
        if node.shape not in self.weights:
            self.weights[node.shape] = T.constant(self.rng.normal(size=node.shape))
        return T.sum_all(T.mul(node, self.weights[node.shape]))


def _away_from(x, floor, gap=0.05):
    """``x`` moved at least ``gap`` off ``floor``, so central differences skip the kink."""
    return x + gap * np.where(x >= floor, 1.0, -1.0)


def _binary_cases(op, rng, x_shape, y_shape):
    """Both operands of ``op`` as the leaf in turn, the other held fixed."""
    w, x, y = _Weigher(rng), rng.normal(size=x_shape), rng.normal(size=y_shape)
    return [(lambda t: w(op(t, T.constant(y))), x), (lambda t: w(op(T.constant(x), t)), y)]


def _unary_case(op, rng, x):
    w = _Weigher(rng)
    return [(lambda t: w(op(t)), x)]


def _clip_cases(rng, b, d):
    w = _Weigher(rng)
    return [(lambda t, f=floor: w(T.clip_min(t, f)), _away_from(rng.normal(size=(b, d)), floor))
            for floor in (0.0, 1e-8, float(rng.normal()))]


def _div_rows_cases(rng, b, d):
    w, x, r = _Weigher(rng), rng.normal(size=(b, d)), 0.5 + np.abs(rng.normal(size=b))
    return [(lambda t: w(T.div_rows(t, T.constant(r))), x),
            (lambda t: w(T.div_rows(T.constant(x), t)), r)]


def _slice_case(rng, b, d):
    lo = int(rng.integers(0, b))
    hi = int(rng.integers(lo + 1, b + 1))
    return _unary_case(lambda t: T.slice_rows(t, lo, hi), rng, rng.normal(size=(b, d)))


# op -> (rng, b, d) -> [(scalar function of a leaf, point)], one entry per
# differentiable operand; conv2d and global_avg_pool are in _MAP_OPS
_GRADIENT_CASES = {
    "matmul": lambda rng, b, d: (_binary_cases(T.matmul, rng, (b, d), (d, 3))
                                 + _binary_cases(T.matmul, rng, (3, b), (b, d))),
    "transpose": lambda rng, b, d: _unary_case(T.transpose, rng, rng.normal(size=(b, d))),
    "reshape": lambda rng, b, d: (
        _unary_case(lambda t: T.reshape(t, (d, b)), rng, rng.normal(size=(b, d)))
        + _unary_case(lambda t: T.reshape(t, (b * d,)), rng, rng.normal(size=(b, d)))),
    "add": lambda rng, b, d: _binary_cases(T.add, rng, (b, d), (b, d)),
    "sub": lambda rng, b, d: _binary_cases(T.sub, rng, (b, d), (b, d)),
    "mul": lambda rng, b, d: (_binary_cases(T.mul, rng, (b, d), (b, d))
                              + _unary_case(lambda t: T.mul(t, t), rng, rng.normal(size=(b, d)))),
    "scale": lambda rng, b, d: _unary_case(
        lambda t, c=float(rng.normal()): T.scale(t, c), rng, rng.normal(size=(b, d))),
    "softplus": lambda rng, b, d: _unary_case(T.softplus, rng, rng.normal(scale=3, size=(b, d))),
    "sigmoid": lambda rng, b, d: _unary_case(T.sigmoid, rng, rng.normal(scale=3, size=(b, d))),
    "clip_min": _clip_cases,
    "add_bias": lambda rng, b, d: _binary_cases(T.add_bias, rng, (b, d), (d,)),
    "div_rows": _div_rows_cases,
    "slice_rows": _slice_case,
    "take_per_row": lambda rng, b, d: _unary_case(
        lambda t, cols=rng.integers(0, d, size=b): T.take_per_row(t, cols), rng,
        rng.normal(size=(b, d))),
    "sum_all": lambda rng, b, d: [(T.sum_all, rng.normal(size=(b, d)))],
    "mean_all": lambda rng, b, d: [(T.mean_all, rng.normal(size=(b, d)))],
    "frobenius_sq": lambda rng, b, d: [(T.frobenius_sq, rng.normal(size=(b, d)))],
    "row_l2_norm": lambda rng, b, d: _unary_case(T.row_l2_norm, rng, rng.normal(size=(b, d))),
    "softmax": lambda rng, b, d: _unary_case(
        T.softmax, rng, rng.normal(scale=2, size=(b, max(d, 2)))),
    "logsumexp_rows": lambda rng, b, d: _unary_case(
        T.logsumexp_rows, rng, rng.normal(scale=2, size=(b, d))),
}
# covered on random channels-last maps by TestConvNetOpProperties
_MAP_OPS = {"conv2d", "global_avg_pool"}


class TestOpGradientProperties:
    """Each tape op's vjp against central differences on random shapes."""

    def test_every_op_has_a_gradient_case(self):
        missing = set(_tensor_ops()) - set(_GRADIENT_CASES) - _MAP_OPS
        assert not missing, f"tape ops without a gradient case: {sorted(missing)}"
        assert set(_GRADIENT_CASES) | _MAP_OPS <= set(_tensor_ops())

    @pytest.mark.parametrize("op", sorted(_GRADIENT_CASES))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1)))
    def test_vjp_matches_finite_differences(self, op, case):
        b, d, seed = case
        rng = np.random.default_rng(seed)
        for i, (f, x) in enumerate(_GRADIENT_CASES[op](rng, b, d)):
            err = T.finite_difference_check(f, x)
            assert err <= 1e-4, f"{op} operand {i}: {err}"
