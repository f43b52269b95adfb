"""Dense float64 tensors with a reverse-mode differentiation tape.

Every value is a node in an acyclic expression graph. Leaf nodes hold
parameters or constants; interior nodes remember the operation that
produced them plus a vector-Jacobian-product rule. ``backward`` sweeps
the graph in reverse topological order and accumulates adjoints, and
``finite_difference_check`` validates any scalar expression against
central differences.

Storage is always row-major contiguous float64; scalars have shape (1,).
There is no broadcasting: the few "row-wise" operations that the models
and losses need are explicit ops with their own backward rules. A square
is ``mul(x, x)``; ``sum_all``, which only demos and tests call, is public API.

The image ops (``conv2d``, ``global_avg_pool``) take channels-last
[B, H, W, C] maps. ``conv2d(x, w, b)`` is a whole conv layer,
relu(conv3x3(x, w) + b), as one tape node. It builds its 3x3 patch matrix
with one strided copy. The forward product runs over blocks of whole
images whose patch matrix holds at most ``CONV_BLOCK_VALUES`` values, so
that a block's patches are still in the core's cache when its GEMM reads
them, and each block's GEMM writes its rows straight into the output. The
rows of a product this large depend only on their own patch rows, and the
blocks are kept large (see ``conv2d``), so the blocks do not change the
bits. An epilogue then adds the bias and applies the relu to the block in
place, while it is still in cache, with the operations and the bits of
``clip_min(x + b, 0.0)``.

When the weight takes a gradient (a student forward), the blocks' patches
go into one array that the node owns, and the vjp's weight gradient reads
it. Other forwards write their patches into scratch arrays that belong to
the calling thread, grow to the largest block seen and are kept for
reuse; the tape never holds them. The vjp masks its adjoint where the
output is 0, and its two GEMMs run over the whole batch: the weight
gradient sums over it, and blocks would change the rounding of that sum;
the input-gradient product takes its weight in another layout, for which
OpenBLAS picks a small-matrix kernel with other rounding under 10^6
multiply-adds, so blocks of it would change bits when a layer has few
input channels. A vjp computes no gradient for an operand that takes none.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Array = np.ndarray


def _as_buffer(values) -> Array:
    """Coerce input to a C-contiguous float64 array with ndim >= 1."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.size == 0:
        raise DimensionError("empty tensors are not allowed")
    return arr


class Tensor:
    """One node of the tape: a float64 value plus backward plumbing.

    ``data`` is the value, ``grad`` the adjoint (left on leaves by
    ``backward``), ``op`` the producing operation ("leaf" for
    parameters/constants), and ``inputs`` the parent nodes (empty when no
    gradient can reach the node). Values are treated as immutable once the
    node exists.
    """

    __slots__ = ("data", "op", "inputs", "grad", "requires_grad", "name", "_vjp")

    def __init__(self, values, *, requires_grad: bool = False, name: str | None = None,
                 op: str = "leaf", inputs: tuple["Tensor", ...] = (),
                 vjp: Callable[[Array], Sequence[Array | None]] | None = None):
        self.data = _as_buffer(values)
        self.op = op
        self.grad: Array | None = None
        self.requires_grad = requires_grad or any(t.requires_grad for t in inputs)
        # a node no gradient reaches keeps neither parents nor vjp, so a
        # constant-only pass frees its intermediates as it goes
        self.inputs = inputs if self.requires_grad else ()
        self.name = name
        self._vjp = vjp if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def constant(values, name: str | None = None) -> Tensor:
    """A leaf that never receives a gradient (e.g. teacher-side values)."""
    return Tensor(values, requires_grad=False, name=name)


def parameter(values, name: str | None = None) -> Tensor:
    """A leaf that participates in differentiation."""
    return Tensor(values, requires_grad=True, name=name)


def _node(op: str, values: Array, inputs: tuple[Tensor, ...],
          vjp: Callable[[Array], Sequence[Array | None]]) -> Tensor:
    return Tensor(values, op=op, inputs=inputs, vjp=vjp)


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# matrix ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g: Array):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _node("matmul", out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise DimensionError(f"transpose: expected 2-D operand, got {a.shape}")

    def vjp(g: Array):
        return (g.T,)

    return _node("transpose", a.data.T, (a,), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape

    def vjp(g: Array):
        return (g.reshape(old),)

    return _node("reshape", a.data.reshape(shape), (a,), vjp)


# ---------------------------------------------------------------------------
# elementwise ops (broadcast-free: shapes must match exactly)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return _node("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    return _node("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)

    def vjp(g: Array):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _node("mul", a.data * b.data, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node("scale", a.data * c, (a,), lambda g: (g * c,))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x) computed as max(x, 0) + log1p(e^{-|x|}) to avoid overflow
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def vjp(g: Array):
        return (g / (1.0 + np.exp(-x)),)

    return _node("softplus", out, (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def vjp(g: Array):
        return (g * out * (1.0 - out),)

    return _node("sigmoid", out, (a,), vjp)


def clip_min(a: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise, and the relu at floor 0; subgradient 0
    wherever the floor binds. NaN maps to the floor, and a zero comes out +0.0."""
    floor = float(floor)
    out = np.fmax(a.data, floor)
    out += 0.0   # -0.0 -> +0.0: at floor >= 0, the bits of np.where(x > floor, x, floor)
    return _node("clip_min", out, (a,), lambda g: (g * (a.data > floor),))


# ---------------------------------------------------------------------------
# row-wise ops


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add vector b to every row of a 2-D [B, D] tensor."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise DimensionError(f"add_bias: shapes {x.shape} and {b.shape} incompatible")

    def vjp(g: Array):
        return (g if x.requires_grad else None), (g.sum(axis=0) if b.requires_grad else None)

    return _node("add_bias", x.data + b.data, (x, b), vjp)


def div_rows(x: Tensor, r: Tensor) -> Tensor:
    """Divide row i of 2-D x by scalar r[i]."""
    if x.ndim != 2 or r.ndim != 1 or x.shape[0] != r.shape[0]:
        raise DimensionError(f"div_rows: shapes {x.shape} and {r.shape} incompatible")
    inv = 1.0 / r.data
    out = x.data * inv[:, None]

    def vjp(g: Array):
        gx = g * inv[:, None]
        gr = -(g * out).sum(axis=1) * inv
        return gx, gr

    return _node("div_rows", out, (x, r), vjp)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice of a 2-D tensor."""
    if x.ndim != 2:
        raise DimensionError(f"slice_rows: expected 2-D operand, got {x.shape}")
    if not (0 <= start < stop <= x.shape[0]):
        raise ContractError(f"slice_rows: bad range [{start}, {stop}) for {x.shape[0]} rows")

    def vjp(g: Array):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return (full,)

    return _node("slice_rows", x.data[start:stop].copy(), (x,), vjp)


def take_per_row(x: Tensor, cols) -> Tensor:
    """Gather x[i, cols[i]] for each row i; returns a vector."""
    if x.ndim != 2:
        raise DimensionError(f"take_per_row: expected 2-D operand, got {x.shape}")
    cols = np.asarray(cols, dtype=np.intp)
    if cols.ndim != 1 or cols.shape[0] != x.shape[0]:
        raise DimensionError("take_per_row: need one column index per row")
    if cols.min() < 0 or cols.max() >= x.shape[1]:
        raise ContractError(f"take_per_row: column index out of range for {x.shape[1]} columns")
    rows = np.arange(x.shape[0])

    def vjp(g: Array):
        full = np.zeros_like(x.data)
        full[rows, cols] = g
        return (full,)

    return _node("take_per_row", x.data[rows, cols].copy(), (x,), vjp)


# ---------------------------------------------------------------------------
# reductions


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def vjp(g: Array):
        return (np.full(shape, g.reshape(-1)[0]),)

    return _node("sum", np.array([x.data.sum()]), (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.shape

    def vjp(g: Array):
        return (np.full(shape, g.reshape(-1)[0] / n),)

    return _node("mean", np.array([x.data.mean()]), (x,), vjp)


def frobenius_sq(x: Tensor) -> Tensor:
    """Sum of squared entries, as a scalar tensor."""

    def vjp(g: Array):
        return (2.0 * x.data * g.reshape(-1)[0],)

    return _node("frobenius_sq", np.array([float((x.data * x.data).sum())]), (x,), vjp)


def row_l2_norm(x: Tensor) -> Tensor:
    """Per-row Euclidean norms of a 2-D tensor; gradient 0 at exact-zero rows."""
    if x.ndim != 2:
        raise DimensionError(f"row_l2_norm: expected 2-D operand, got {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1))

    def vjp(g: Array):
        safe = np.where(norms > 0.0, norms, 1.0)
        gx = (g / safe)[:, None] * x.data
        gx[norms == 0.0] = 0.0
        return (gx,)

    return _node("row_l2_norm", norms, (x,), vjp)


# ---------------------------------------------------------------------------
# softmax family


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction."""
    if x.ndim != 2:
        raise DimensionError(f"softmax: expected 2-D operand, got {x.shape}")
    if x.shape[1] < 2:
        raise ContractError("softmax: needs at least 2 classes")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax: non-finite input")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _node("softmax", out, (x,), vjp)


def logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log(sum(exp(x))); the stable core of cross-entropy."""
    if x.ndim != 2:
        raise DimensionError(f"logsumexp_rows: expected 2-D operand, got {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericError("logsumexp_rows: non-finite input")
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=1, keepdims=True)
    out = (m + np.log(s)).reshape(-1)
    soft = e / s

    def vjp(g: Array):
        return (soft * g[:, None],)

    return _node("logsumexp_rows", out, (x,), vjp)


# ---------------------------------------------------------------------------
# image ops for the small conv net (channels-last: [B, H, W, C])

# Largest patch matrix one conv2d forward block builds, in float64 values:
# 2 MiB, the per-core L2 cache of the 2-core Xeon it was tuned on. A batch
# is cut into blocks of whole images; an image whose patches alone exceed
# the bound is a block of its own.
CONV_BLOCK_VALUES = 2 ** 18

# Grow-only scratch arrays, one per slot and thread, reused by every conv2d
# call on that thread. A slot's contents die before the call that filled
# it returns, so no node and no vjp ever holds a view of one; a thread's
# slots are freed when the thread ends.
_scratch = threading.local()


def _scratch_view(slot: str, shape: tuple[int, ...]) -> Array:
    n = math.prod(shape)
    buf = getattr(_scratch, slot, None)
    if buf is None or buf.size < n:
        buf = np.empty(n)
        setattr(_scratch, slot, buf)
    return buf[:n].reshape(shape)


def _patches(x: Array, out: Array | None = None) -> Array:
    """Zero-padded 3x3 patches of [B, H, W, C] as [B*H*W, 9*C], (ki, kj, c) order.

    The result is written into ``out`` when one is given, else into the
    ``cols`` scratch slot, whose view is valid until the next call.
    """
    b, h, wd, c = x.shape
    xp = _scratch_view("pad", (b, h + 2, wd + 2, c))
    xp[:, 0] = 0.0
    xp[:, -1] = 0.0
    xp[:, 1:-1, 0] = 0.0
    xp[:, 1:-1, -1] = 0.0
    xp[:, 1:-1, 1:-1] = x
    shape = (b, h, wd, 3, 3, c)
    cols = _scratch_view("cols", shape) if out is None else out.reshape(shape)
    # xp's 3x3 windows as a strided view, built directly: sliding_window_view
    # takes about 20 us a call, a tenth of a small block's patch copy
    sb, sy, sx, sc = xp.strides
    np.copyto(cols, np.ndarray(shape, buffer=xp, strides=(sb, sy, sx, sy, sx, sc)))
    return cols.reshape(b * h * wd, 9 * c)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The conv layer relu(conv3x3(x, w) + b): stride 1, zero padding 1, so
    the spatial size is preserved.

    x: [B, H, W, Cin] (channels last), w: [Cout, Cin, 3, 3], b: [Cout];
    out: [B, H, W, Cout]. The bias and the relu have the bits of
    ``clip_min(x + b, 0.0)``: NaN maps to 0, and a zero comes out +0.0.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d: expected 4-D operands, got {x.shape} and {w.shape}")
    if w.shape[2] != 3 or w.shape[3] != 3:
        raise DimensionError(f"conv2d: kernel must be 3x3, got {w.shape}")
    if x.shape[3] != w.shape[1]:
        raise DimensionError(f"conv2d: channel mismatch: {x.shape} vs {w.shape}")
    if b.shape != (w.shape[0],):
        raise DimensionError(f"conv2d: bias {b.shape} does not match kernel {w.shape}")
    n, h, wd, cin = x.shape
    cout = w.shape[0]
    wmat = w.data.transpose(0, 2, 3, 1).reshape(cout, 9 * cin).T
    bias_row = np.tile(b.data, h * wd)
    out = np.empty((n, h, wd, cout))
    # the weight gradient reads the forward's patches, so a forward whose
    # weight takes a gradient keeps them in an array of the node's own
    kept = np.empty((n * h * wd, 9 * cin)) if w.requires_grad else None
    # the fewest blocks under the bound, with sizes within one image of each
    # other: a ragged block of one or two images could fall to the BLAS's
    # small-matrix kernel, whose rounding differs (one 12x12 image against
    # 8 kernels is a 144 x 54 by 54 x 8 product)
    blocks = -(-n // max(1, CONV_BLOCK_VALUES // (h * wd * 9 * cin)))
    stop = 0
    for k in range(blocks):
        start, stop = stop, stop + n // blocks + (k < n % blocks)
        rows = None if kept is None else kept[start * h * wd:stop * h * wd]
        np.matmul(_patches(x.data[start:stop], rows), wmat,
                  out=out[start:stop].reshape(-1, cout))
        # bias and relu while the block is in cache: the IEEE operations of
        # clip_min(add_bias(conv, b), 0.0), in the same order
        block = out[start:stop].reshape(stop - start, h * wd * cout)
        block += bias_row
        np.fmax(block, 0.0, out=block)
        block += 0.0

    def vjp(g: Array):
        g = g * (out > 0.0)   # the relu's mask: out is 0 where conv + b <= 0 or is NaN
        gmat = g.reshape(n * h * wd, cout)
        gx = gw = gb = None
        if w.requires_grad:
            gw = (gmat.T @ kept).reshape(cout, 3, 3, cin).transpose(0, 3, 1, 2)
        if x.requires_grad:
            # the input gradient is g correlated with the flipped kernel
            wflip = w.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(9 * cout, cin)
            gx = _patches(g) @ wflip
        if b.requires_grad:
            gb = _sum_positions(g.reshape(1, n * h, wd, cout))[0]
        return gx, gw, gb

    return _node("conv2d", out, (x, w, b), vjp)


def _sum_positions(a: Array) -> Array:
    """Sum a [N, H, W, C] map over (H, W), giving [N, C].

    Rows of W*C values are summed first: a reduction whose inner loop is
    only C long runs several times slower.
    """
    n, h, w, c = a.shape
    return a.reshape(n, h, w * c).sum(axis=1).reshape(n, w, c).sum(axis=1)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [B, H, W, C] -> [B, C]."""
    if x.ndim != 4:
        raise DimensionError(f"global_avg_pool: expected 4-D operand, got {x.shape}")
    h, w = x.shape[1], x.shape[2]

    def vjp(g: Array):
        return (np.broadcast_to(g[:, None, None, :] / (h * w), x.shape).copy(),)

    return _node("global_avg_pool", _sum_positions(x.data) / (h * w), (x,), vjp)


# ---------------------------------------------------------------------------
# backward sweep


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the graph; deterministic for a fixed tape."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.inputs:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> dict[str, Array]:
    """Reverse sweep from a scalar root; leaves .grad on every reachable leaf.

    Returns a map from parameter name to gradient for every named leaf
    with requires_grad that the sweep reached.
    """
    if root.shape != (1,):
        raise ContractError(f"backward: root must have scalar shape (1,), got {root.shape}")
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones(1)
    for node in reversed(order):
        if node.grad is None or node._vjp is None:
            continue
        input_grads = node._vjp(node.grad)
        node.grad = None   # interior adjoints are spent once passed on
        for parent, g in zip(node.inputs, input_grads):
            if g is None or not parent.requires_grad:
                continue
            if g.shape != parent.shape:
                g = g.reshape(parent.shape)
            if parent.grad is None:
                parent.grad = g.copy() if g.base is not None else g
            else:
                parent.grad = parent.grad + g
    grads: dict[str, Array] = {}
    for node in order:
        if node._vjp is None and node.requires_grad and node.name:
            grads[node.name] = node.grad if node.grad is not None else np.zeros(node.shape)
    return grads


# ---------------------------------------------------------------------------
# finite differences


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Array,
                            eps: float = 1e-5) -> float:
    """Max relative error between backward() and central differences.

    ``f`` maps a leaf tensor to a scalar expression. Each coordinate i is
    perturbed by +/-eps and (f(x+e_i*eps) - f(x-e_i*eps)) / (2*eps) is
    compared to the analytic gradient; the relative error denominator is
    max(|numeric|, |analytic|, 1e-8).
    """
    if eps <= 0:
        raise ContractError("finite_difference_check: eps must be positive")
    x = _as_buffer(x)
    leaf = parameter(x.copy())
    out = f(leaf)
    if out.shape != (1,):
        raise ContractError("finite_difference_check: f must return a scalar tensor")
    backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros(x.shape)

    flat = x.reshape(-1)
    numeric = np.zeros(flat.shape)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        f_plus = f(constant(bumped.reshape(x.shape))).item()
        bumped[i] = flat[i] - eps
        f_minus = f(constant(bumped.reshape(x.shape))).item()
        numeric[i] = (f_plus - f_minus) / (2.0 * eps)
    numeric = numeric.reshape(x.shape)

    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-8)
    return float((np.abs(numeric - analytic) / denom).max())
