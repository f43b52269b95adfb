"""Small classifier networks with dropout perturbation and feature taps.

Two architectures cover the two dataset kinds:

* an MLP for vector data (relu hidden layers, linear head), and
* a tiny conv net for image data: two 3x3 stride-1 conv blocks with relu,
  global average pooling, then a linear head.

An MLP layer is ``clip_min(add_bias(matmul(h, w), b), 0.0)``, the relu
being ``tensor.clip_min`` at 0. A conv block is one tape op,
``tensor.conv2d(h, w, b)``, which adds the bias and applies the relu with
the same bits inside its own GEMM blocks.

Both place dropout immediately before the final pooling stage (for the MLP,
immediately before the head) using inverted-dropout scaling, so evaluation
needs no rescale. Feature taps expose the activations right before the
global pooling (``pre_pool``, conv only) and right after it (``post_pool``).

A model's parameters are a ``Params``: named views, in order, into one
float64 buffer, its ``flat``, which an optimizer or an EMA updates in place
as a whole, so a snapshot is a new ``Params(params)``.

Image batches, files and conv weights are NCHW and ``[Cout, Cin, 3, 3]``.
Inside the conv net the activations are channels-last (NHWC): ``forward``
transposes its input once, and the maps stay [B, H, W, C] up to the pool,
so ``pre_pool`` features come flattened in (y, x, c) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, UnsupportedTapError


class Params(dict):
    """Named arrays that are views, in order, into one float64 buffer, ``flat``.
    ``Params(arrays)`` copies any mapping of arrays into a new buffer; so do
    ``copy.copy``, ``copy.deepcopy`` and unpickling, which rebuild through it."""

    def __init__(self, arrays):
        self.flat = np.concatenate([v.ravel() for v in arrays.values()], dtype=np.float64)
        ends = np.cumsum([v.size for v in arrays.values()])[:-1]
        super().__init__((name, part.reshape(v.shape))
                         for (name, v), part in zip(arrays.items(), np.split(self.flat, ends)))

    def __reduce__(self):
        return Params, (dict(self),)


@dataclass(frozen=True)
class ModelSection:
    """Layer widths and dropout: the ``[train]`` model keys of a config."""

    hidden: tuple[int, ...] = (32, 32)
    conv_channels: tuple[int, ...] = (6, 8)
    dropout_rate: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError("dropout_rate must be in [0, 1)")
        if min(self.hidden + self.conv_channels, default=1) < 1:
            raise ContractError("layer widths (hidden, conv_channels) must be >= 1")


@dataclass(frozen=True)
class ArchSpec(ModelSection):
    """Architecture description; the input shape decides MLP vs conv."""

    input_shape: tuple[int, ...] = field(kw_only=True)
    num_classes: int = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        if self.num_classes < 2:
            raise ContractError("num_classes must be >= 2")
        if len(self.input_shape) == 1:
            if not self.hidden:
                raise ContractError("MLP needs at least one hidden layer")
        elif len(self.input_shape) == 3:
            if not self.conv_channels:
                raise ContractError("conv net needs at least one conv block")
        else:
            raise ContractError(f"input_shape must be (D,) or (C, H, W), got {self.input_shape}")

    @property
    def kind(self) -> str:
        return "mlp" if len(self.input_shape) == 1 else "conv"


@dataclass
class ForwardOutput:
    """Tape nodes produced by one forward pass."""

    logits: T.Tensor
    features_post_pool: T.Tensor
    features_pre_pool: T.Tensor | None = None


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(spec: ArchSpec, rng: np.random.Generator) -> Params:
    """Glorot-uniform weights, zero biases; deterministic given the rng state."""
    params = {}
    if spec.kind == "mlp":
        widths = (spec.input_shape[0],) + tuple(spec.hidden)
        for i in range(len(widths) - 1):
            fan_in, fan_out = widths[i], widths[i + 1]
            params[f"dense{i}.w"] = _glorot(rng, (fan_in, fan_out), fan_in, fan_out)
            params[f"dense{i}.b"] = np.zeros(fan_out)
        head_in = widths[-1]
    else:
        channels = (spec.input_shape[0],) + tuple(spec.conv_channels)
        for i in range(len(channels) - 1):
            cin, cout = channels[i], channels[i + 1]
            params[f"conv{i}.w"] = _glorot(rng, (cout, cin, 3, 3), cin * 9, cout * 9)
            params[f"conv{i}.b"] = np.zeros(cout)
        head_in = channels[-1]
    params["head.w"] = _glorot(rng, (head_in, spec.num_classes), head_in, spec.num_classes)
    params["head.b"] = np.zeros(spec.num_classes)
    return Params(params)


def _leaves(params: Params, trainable: bool) -> dict[str, T.Tensor]:
    make = T.parameter if trainable else T.constant
    return {name: make(value, name=name) for name, value in params.items()}


def _dropout(node: T.Tensor, rate: float, rng: np.random.Generator) -> T.Tensor:
    # inverted dropout: entries are 0 or 1/(1-rate), expectation matches eval.
    # The mask is drawn channels-second ([B, C] or [B, C, H, W]) and moved
    # channels-last, so each draw of a conv map lands on the same
    # (sample, channel, y, x) as for an NCHW map.
    b, *spatial, c = node.shape
    keep = np.empty(node.shape, dtype=bool)
    np.greater_equal(np.moveaxis(rng.random((b, c, *spatial)), 1, -1), rate, out=keep)
    return T.mul(node, T.constant(keep * (1.0 / (1.0 - rate))))


def forward(spec: ArchSpec, params: Params, x: np.ndarray, mode: str = "eval",
            rng: np.random.Generator | None = None, trainable: bool = True) -> ForwardOutput:
    """Run the network on a batch.

    ``mode="train"`` draws dropout masks from ``rng`` (none are drawn when
    the rate is 0, and eval mode never touches ``rng``); ``trainable``
    decides whether parameters enter the tape as leaves or constants.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != spec.input_shape:
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match architecture input {spec.input_shape}")
    use_dropout = mode == "train" and spec.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ContractError("train-mode forward with dropout needs an rng")

    leaf = _leaves(params, trainable)
    if spec.kind == "mlp":
        h = T.constant(x)
        for i in range(len(spec.hidden)):
            h = T.clip_min(T.add_bias(T.matmul(h, leaf[f"dense{i}.w"]), leaf[f"dense{i}.b"]), 0.0)
    else:
        h = T.constant(x.transpose(0, 2, 3, 1))   # NCHW batch -> NHWC net
        for i in range(len(spec.conv_channels)):
            h = T.conv2d(h, leaf[f"conv{i}.w"], leaf[f"conv{i}.b"])
    if use_dropout:
        h = _dropout(h, spec.dropout_rate, rng)
    pre = h if spec.kind == "conv" else None
    post = h if pre is None else T.global_avg_pool(h)
    logits = T.add_bias(T.matmul(post, leaf["head.w"]), leaf["head.b"])
    return ForwardOutput(logits=logits, features_post_pool=post, features_pre_pool=pre)


def tap_features(out: ForwardOutput, where: str = "post_pool") -> T.Tensor:
    """Feature matrix [B, D] for relation losses.

    ``post_pool`` is the pooled vector; ``pre_pool`` flattens the
    channels-last activation map in (y, x, c) order and exists only for conv
    outputs.
    """
    if where == "post_pool":
        return out.features_post_pool
    if where == "pre_pool":
        if out.features_pre_pool is None:
            raise UnsupportedTapError("pre_pool tap is only available on conv architectures")
        b = out.features_pre_pool.shape[0]
        return T.reshape(out.features_pre_pool, (b, out.features_pre_pool.data.size // b))
    raise ContractError(f"unknown tap {where!r}")

