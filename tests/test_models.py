"""Model zoo: initialization, dropout contract, taps."""

import copy as copy_module
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcon import losses, models
from relcon import tensor as T
from relcon.errors import ContractError, DimensionError, UnsupportedTapError

MLP = models.ArchSpec(input_shape=(4,), num_classes=3, hidden=(6, 5), dropout_rate=0.2)
CONV = models.ArchSpec(input_shape=(1, 8, 8), num_classes=2, conv_channels=(3, 4),
                       dropout_rate=0.2)


class TestInit:
    def test_deterministic(self):
        p1 = models.init_params(MLP, np.random.default_rng(9))
        p2 = models.init_params(MLP, np.random.default_rng(9))
        assert p1.keys() == p2.keys()
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_biases_zero(self):
        params = models.init_params(CONV, np.random.default_rng(0))
        for name, value in params.items():
            if name.endswith(".b"):
                assert np.array_equal(value, np.zeros_like(value))

    def test_weight_bounds(self):
        params = models.init_params(MLP, np.random.default_rng(1))
        limit0 = np.sqrt(6.0 / (4 + 6))
        assert np.abs(params["dense0.w"]).max() <= limit0
        params = models.init_params(CONV, np.random.default_rng(1))
        limit_conv = np.sqrt(6.0 / (1 * 9 + 3 * 9))
        assert np.abs(params["conv0.w"]).max() <= limit_conv


def _per_name_init(spec, rng):
    """The per-name draws of ``init_params``, as separate arrays."""
    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    params = {}
    if spec.kind == "mlp":
        widths = (spec.input_shape[0],) + tuple(spec.hidden)
        for i in range(len(widths) - 1):
            params[f"dense{i}.w"] = glorot((widths[i], widths[i + 1]), widths[i], widths[i + 1])
            params[f"dense{i}.b"] = np.zeros(widths[i + 1])
        head_in = widths[-1]
    else:
        channels = (spec.input_shape[0],) + tuple(spec.conv_channels)
        for i in range(len(channels) - 1):
            cin, cout = channels[i], channels[i + 1]
            params[f"conv{i}.w"] = glorot((cout, cin, 3, 3), cin * 9, cout * 9)
            params[f"conv{i}.b"] = np.zeros(cout)
        head_in = channels[-1]
    params["head.w"] = glorot((head_in, spec.num_classes), head_in, spec.num_classes)
    params["head.b"] = np.zeros(spec.num_classes)
    return params


class TestLayout:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(conv=st.booleans(), width_in=st.integers(1, 4),
           layers=st.lists(st.integers(1, 7), min_size=1, max_size=3),
           classes=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_init_params_views_one_buffer_of_the_per_name_draws(self, conv, width_in, layers,
                                                                classes, seed):
        shape = (width_in, 6, 6) if conv else (width_in,)
        widths = {"conv_channels": tuple(layers)} if conv else {"hidden": tuple(layers)}
        spec = models.ArchSpec(input_shape=shape, num_classes=classes, **widths)
        params = models.init_params(spec, np.random.default_rng(seed))
        expected = _per_name_init(spec, np.random.default_rng(seed))
        assert list(params) == list(expected)
        for name, value in expected.items():
            assert params[name].shape == value.shape
            assert params[name].tobytes() == value.tobytes()
        assert isinstance(params, models.Params)
        buf = params.flat
        assert buf.flags.c_contiguous and buf.dtype == np.float64
        assert buf.tobytes() == b"".join(v.tobytes() for v in expected.values())
        assert all(value.base is buf for value in params.values())
        # the dict's arrays are the buffer: a write to one shows in the other
        buf[...] = 7.0
        assert all((value == 7.0).all() for value in params.values())

    def test_params_copies_into_a_new_buffer(self):
        params = models.init_params(CONV, np.random.default_rng(0))
        copy = models.Params(params)
        assert list(copy) == list(params)
        assert all(copy[name].shape == value.shape for name, value in params.items())
        assert all(value.base is copy.flat for value in copy.values())
        assert copy.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(copy.flat, params.flat)

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_every_copy_views_its_own_buffer(self, how):
        """A copy's arrays view its own ``flat``, which shares no memory with
        the original's, so an in-place update of the buffer reaches them."""
        params = models.init_params(CONV, np.random.default_rng(0))
        copy = {"copy": copy_module.copy, "deepcopy": copy_module.deepcopy,
                "pickle": lambda p: pickle.loads(pickle.dumps(p))}[how](params)
        assert type(copy) is models.Params and list(copy) == list(params)
        assert all(value.base is copy.flat for value in copy.values())
        assert copy.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(copy.flat, params.flat)
        copy.flat[...] += 1.0
        assert all(np.array_equal(copy[name], value + 1.0) for name, value in params.items())


class TestForward:
    def test_eval_deterministic(self):
        params = models.init_params(MLP, np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(5, 4))
        o1 = models.forward(MLP, params, x, mode="eval", trainable=False)
        o2 = models.forward(MLP, params, x, mode="eval", trainable=False)
        assert np.array_equal(o1.logits.data, o2.logits.data)

    def test_eval_consumes_no_rng(self):
        params = models.init_params(MLP, np.random.default_rng(2))
        rng = np.random.default_rng(77)
        before = rng.bit_generator.state
        models.forward(MLP, params, np.zeros((2, 4)), mode="eval", rng=rng)
        assert rng.bit_generator.state == before

    def test_zero_dropout_train_equals_eval(self):
        spec = models.ArchSpec(input_shape=(4,), num_classes=3, hidden=(6,),
                               dropout_rate=0.0)
        params = models.init_params(spec, np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(3, 4))
        rng = np.random.default_rng(0)
        train = models.forward(spec, params, x, mode="train", rng=rng)
        ev = models.forward(spec, params, x, mode="eval")
        assert np.array_equal(train.logits.data, ev.logits.data)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_dropout_mask_values(self):
        params = models.init_params(MLP, np.random.default_rng(6))
        x = np.abs(np.random.default_rng(7).normal(size=(8, 4))) + 0.1
        out = models.forward(MLP, params, x, mode="train",
                             rng=np.random.default_rng(8))
        ref = models.forward(MLP, params, x, mode="eval")
        # post-dropout features are eval features times 0 or 1/0.8
        ratio = out.features_post_pool.data / np.where(
            ref.features_post_pool.data == 0, 1, ref.features_post_pool.data)
        ratio = ratio[ref.features_post_pool.data != 0]
        assert np.all(np.isclose(ratio, 0.0) | np.isclose(ratio, 1.25))

    def test_conv_dropout_masks_keep_element_assignment(self):
        """A conv mask is drawn as [B, C, H, W] and lands channels-last."""
        params = models.init_params(CONV, np.random.default_rng(13))
        x = np.random.default_rng(14).normal(size=(5, 1, 8, 8))
        train = models.forward(CONV, params, x, mode="train", rng=np.random.default_rng(15))
        ev = models.forward(CONV, params, x, mode="eval")
        rate = CONV.dropout_rate
        mask = (np.random.default_rng(15).random((5, 4, 8, 8)) >= rate) / (1.0 - rate)
        assert np.array_equal(train.features_pre_pool.data,
                              ev.features_pre_pool.data * mask.transpose(0, 2, 3, 1))

    @pytest.mark.parametrize("rate", [0.2, 0.1, 0.5, 0.7, 1e-9])
    def test_dropout_mask_bits(self, rate):
        """The mask has the bits of ``moveaxis(r >= rate, 1, -1) / (1 - rate)``,
        its zeros +0.0."""
        shape = (6, 3, 5, 4)
        node = models._dropout(T.constant(np.ones(shape)), rate, np.random.default_rng(16))
        r = np.random.default_rng(16).random((6, 4, 3, 5))
        want = np.moveaxis(r >= rate, 1, -1) / (1 - rate)
        assert np.array_equal(node.data.view(np.int64), want.view(np.int64))

    def test_input_shape_check(self):
        params = models.init_params(MLP, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            models.forward(MLP, params, np.zeros((2, 5)), mode="eval")

    def test_pooling_matches_spatial_mean(self):
        params = models.init_params(CONV, np.random.default_rng(10))
        x = np.random.default_rng(11).normal(size=(3, 1, 8, 8))
        out = models.forward(CONV, params, x, mode="eval")
        manual = out.features_pre_pool.data.mean(axis=(1, 2))
        assert np.abs(manual - out.features_post_pool.data).max() <= 1e-12


class TestTaps:
    def test_post_pool_shape(self):
        params = models.init_params(CONV, np.random.default_rng(12))
        out = models.forward(CONV, params, np.zeros((2, 1, 8, 8)), mode="eval")
        assert models.tap_features(out, "post_pool").shape == (2, 4)

    def test_pre_pool_flatten(self):
        params = models.init_params(CONV, np.random.default_rng(12))
        out = models.forward(CONV, params, np.zeros((2, 1, 8, 8)), mode="eval")
        tap = models.tap_features(out, "pre_pool")
        assert tap.shape == (2, 4 * 8 * 8)

    def test_pre_pool_reshape_matches_flatten(self):
        node = T.constant(np.arange(24.0).reshape(2, 3, 2, 2))
        out = models.ForwardOutput(logits=node, features_post_pool=node,
                                   features_pre_pool=node)
        tap = models.tap_features(out, "pre_pool")
        assert tap.shape == (2, 12)
        assert np.array_equal(tap.data, node.data.reshape(2, 12))

    def test_mlp_pre_pool_unsupported(self):
        params = models.init_params(MLP, np.random.default_rng(0))
        out = models.forward(MLP, params, np.zeros((2, 4)), mode="eval")
        with pytest.raises(UnsupportedTapError):
            models.tap_features(out, "pre_pool")


class TestEndToEndGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_mlp_loss_gradient(self, seed):
        rng = np.random.default_rng(seed)
        params = models.init_params(MLP, rng)
        x = rng.normal(size=(4, 4))
        labels = rng.integers(0, 3, size=4)

        def f(t):
            leafed = {k: (t if k == "dense0.w" else T.constant(v))
                      for k, v in params.items()}
            h = T.clip_min(T.add_bias(T.matmul(T.constant(x), leafed["dense0.w"]),
                                      leafed["dense0.b"]), 0.0)
            h = T.clip_min(T.add_bias(T.matmul(h, leafed["dense1.w"]), leafed["dense1.b"]), 0.0)
            logits = T.add_bias(T.matmul(h, leafed["head.w"]), leafed["head.b"])
            return losses.weighted_cross_entropy(logits, labels, np.ones(logits.shape[1]))

        assert T.finite_difference_check(f, params["dense0.w"]) <= 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_conv_loss_gradient_wrt_input(self, seed):
        rng = np.random.default_rng(100 + seed)
        params = models.init_params(CONV, rng)
        labels = rng.integers(0, 2, size=2)

        def f(t):
            leafed = {k: T.constant(v) for k, v in params.items()}
            h = t
            for i in range(2):
                h = T.conv2d(h, leafed[f"conv{i}.w"], leafed[f"conv{i}.b"])
            pooled = T.global_avg_pool(h)
            logits = T.add_bias(T.matmul(pooled, leafed["head.w"]), leafed["head.b"])
            return losses.weighted_cross_entropy(logits, labels, np.ones(logits.shape[1]))

        assert T.finite_difference_check(f, rng.normal(size=(2, 8, 8, 1))) <= 1e-4


class TestArchSpec:
    @pytest.mark.parametrize("field, value", [
        ("dropout_rate", 1.5), ("hidden", (4, 0)), ("conv_channels", (0, 8))])
    def test_model_bounds(self, field, value):
        with pytest.raises(ContractError):
            models.ArchSpec(input_shape=(1, 8, 8), num_classes=2, **{field: value})
        with pytest.raises(ContractError):
            models.ModelSection(**{field: value})
