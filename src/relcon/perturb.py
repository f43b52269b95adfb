"""Stochastic input perturbations, drawn independently per sample and view.

Each sample in a batch is perturbed separately, and the two views fed to
the student and teacher come from disjoint random streams. The draws are
counter-based: one Philox4x64-10 call (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011) makes the words of every sample and
view, block ``b`` of sample ``i`` in view ``v`` being the cipher of the
counter (b, v, id_i, 0) under the key of row i. That key comes from the
row's master key, and one master key may serve every row of a call. The
trainer keys each row by its batch's step key, and one call may span
several batches: a row's draw is a function of its key and id alone, so it
does not depend on where it lands in the call, on what other samples are
present, or on how an epoch's batches are grouped into calls.

Block 0 holds an image view's geometry: the rotation angle, the two shifts
and the two flips. Blocks 1 onward hold the noise, one 64-bit word per pair
of values through the Box-Muller transform.

An image view is rotate -> translate -> flip with nearest-neighbor
resampling and zero padding, composed into one source-pixel map: each
output pixel undoes the flips, then the shift, then the rotation, and a
source outside the image reads 0; a batch is resampled with one gather.
Both axes shift by up to round(translate_frac_max * W) pixels, W the image
width; a shift of at least the image size gives a zero image. Optional
clipped Gaussian noise (the ``noise_*`` fields of ``PerturbConfig``) is
added last. Vector inputs only support the noise perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError


def substream(*keys: int) -> np.random.Generator:
    """Independent generator keyed by a tuple of non-negative integers."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


@dataclass(frozen=True)
class PerturbConfig:
    rotation_deg_max: float = 10.0
    translate_frac_max: float = 0.02
    flip_prob: float = 0.5
    noise_enabled: bool = False         # clipped Gaussian input noise, added last
    noise_variance: float = 0.01
    noise_clip: float = 0.2

    def __post_init__(self):
        # the range checks are written so that NaN fails them
        if not (0 <= self.rotation_deg_max < np.inf and 0 <= self.translate_frac_max < np.inf):
            raise ContractError("perturbation magnitudes must be finite and >= 0")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ContractError("flip_prob must be in [0, 1]")
        # noise_clip = inf means no clip
        if not (0 <= self.noise_variance < np.inf and self.noise_clip >= 0):
            raise ContractError("noise variance must be finite and >= 0, and clip >= 0")


@dataclass(frozen=True)
class Geometry:
    """Rotate, translate and flip parameters of a batch, one entry per sample."""

    angle_deg: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    flip_h: np.ndarray
    flip_v: np.ndarray


# ---------------------------------------------------------------------------
# Philox4x64-10 over uint64 arrays

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# multipliers of counter words 0 and 2, and the per-round bumps of key words 0 and 1
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_ROUNDS = 10


def _philox(key, counter: tuple) -> tuple[np.ndarray, ...]:
    """The four output words of Philox4x64-10 for each counter.

    ``key`` is two uint64 key words and ``counter`` four uint64 counter
    words, word 0 the least significant; all six are arrays that broadcast
    together, so one call can run each counter under its own key. numpy's
    ``Philox(key=k, counter=c - 1).random_raw(4)`` returns the same block:
    numpy bumps its counter before each block.
    """
    k0, k1 = np.broadcast_arrays(*(np.asarray(k, dtype=np.uint64) for k in key))
    counter = [np.asarray(c, dtype=np.uint64) for c in counter]
    shape = np.broadcast_shapes(k0.shape, *(c.shape for c in counter))
    c0, c1, c2, c3 = (np.broadcast_to(c, shape) for c in counter)
    # both multiplies of a round in one pass: a = words (0, 2), b = words (1, 3)
    a, b = np.stack([c0, c2]), np.stack([c1, c3])
    column = (2,) + (1,) * len(shape)
    m = _PHILOX_M.reshape(column)
    m_lo, m_hi = m & _MASK32, m >> _SHIFT32
    # key r is the master key bumped r times, in wrapping uint64 adds
    keys = np.stack([k0, k1]).reshape((2,) + (1,) * (len(shape) - k0.ndim) + k0.shape)
    bumps = np.arange(_ROUNDS, dtype=np.uint64)[:, None] * _PHILOX_W
    round_keys = keys + bumps.reshape((_ROUNDS,) + column)
    for r in range(_ROUNDS):
        # high words of the 128-bit products m * a from 32-bit halves, none
        # of whose partial sums overflow: u = ah*ml + (al*ml >> 32),
        # v = al*mh + (u & MASK32), hi = ah*mh + (u >> 32) + (v >> 32)
        a_lo, a_hi = a & _MASK32, a >> _SHIFT32
        u = a_hi * m_lo
        v = a_lo * m_lo
        v >>= _SHIFT32
        u += v
        np.multiply(a_lo, m_hi, out=v)
        v += np.bitwise_and(u, _MASK32, out=a_lo)
        hi = np.multiply(a_hi, m_hi, out=a_hi)
        u >>= _SHIFT32
        hi += u
        v >>= _SHIFT32
        hi += v
        a *= m                          # the low words
        b ^= hi[::-1]
        b ^= round_keys[r]
        a, b = b, a[::-1]
    return a[0], b[0], a[1], b[1]


def _unit(words: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a float in [0, 1)."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _shift(words: np.ndarray, max_px: int) -> np.ndarray:
    """32-bit words mapped onto the integers [-max_px, max_px]."""
    return ((words * np.uint64(2 * max_px + 1)) >> _SHIFT32).astype(np.int64) - max_px


def max_shift_px(cfg: PerturbConfig, w: int) -> int:
    """The shift bound round(translate_frac_max * w) in pixels, for images of
    width ``w``; its 2 * bound + 1 shifts must fit the 32 bits a shift draws
    from, so the bound is at most 2^31 - 1."""
    scaled = cfg.translate_frac_max * w
    # tested before rounding: the product of two finite numbers can be inf
    if not scaled < 2 ** 31 - 0.5:
        raise ContractError(f"perturb: a shift bound of {scaled:.6g} pixels is too large")
    return int(round(scaled))


def _geometry(block: tuple[np.ndarray, ...], cfg: PerturbConfig, w: int) -> Geometry:
    """Geometry from a block's four words, for images of width ``w``: the
    angle from word 0, the shifts from the two halves of word 1, the flips
    from words 2 and 3."""
    w0, w1, w2, w3 = block
    r = cfg.rotation_deg_max
    max_px = max_shift_px(cfg, w)
    p = cfg.flip_prob
    return Geometry(angle_deg=-r + 2.0 * r * _unit(w0),
                    dx=_shift(w1 >> _SHIFT32, max_px), dy=_shift(w1 & _MASK32, max_px),
                    flip_h=_unit(w2) < p, flip_v=_unit(w3) < p)


def _gaussian(words: np.ndarray, size: int) -> np.ndarray:
    """Box-Muller: every word's cosine value, then every word's sine value,
    the first ``size`` along the last axis."""
    u1 = ((words >> _SHIFT32).astype(np.float64) + 1.0) * 2.0 ** -32   # (0, 1]
    u2 = (words & _MASK32).astype(np.float64) * 2.0 ** -32              # [0, 1)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[..., :size]


# ---------------------------------------------------------------------------
# views


def _source_pixels(g: Geometry, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat source pixel of every output pixel, [N, 1, H*W], and whether it
    lies in the image.

    Inverts rotate -> translate -> flip: undo the flips, then the shift, then
    the rotation about the center, rounding to the nearest pixel. The flips
    and shifts are per-sample scalars, so the unflipped, unshifted row ``r``
    is [N, H, 1] and column ``c`` [N, 1, W]; only the rotated sums, their
    rounding and the mask are [N, H, W].
    """
    def per_sample(values):
        return np.asarray(values)[:, None, None]

    rows, cols = np.arange(h)[:, None], np.arange(w)[None, :]
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


def apply_draws(x: np.ndarray, geometry: Geometry | None,
                noise: np.ndarray | None) -> np.ndarray:
    """Apply each sample's geometry to an image batch as one gather, then
    add ``noise`` (the batch's shape); None skips either part."""
    out = np.array(x, dtype=np.float64, order="C")
    if geometry is not None:
        if out.ndim != 4:
            raise DimensionError(f"geometry needs an image batch [N, C, H, W], got {out.shape}")
        n, c, h, w = out.shape
        if h < 2 or w < 2:
            raise DimensionError(f"image perturbation needs H, W >= 2, got {out.shape[1:]}")
        if len(geometry.angle_deg) != n:
            raise ContractError(f"apply_draws: {len(geometry.angle_deg)} draws for {n} samples")
        src, inside = _source_pixels(geometry, h, w)
        gathered = np.take_along_axis(out.reshape(n, c, h * w), src, axis=2)
        # np.where, not a multiply by the mask: 0 * -x would write -0.0
        out = np.where(inside, gathered, 0.0).reshape(out.shape)
    if noise is not None:
        if noise.shape != out.shape:
            raise ContractError(f"apply_draws: noise {noise.shape} for a batch {out.shape}")
        out = out + noise
    return out


def _key_words(master_key, n: int) -> np.ndarray:
    """The two Philox key words of each of ``n`` rows, [2, N, 1], from one
    integer master key per row ([N, L]) or one for every row (1-D). Each run
    of equal adjacent rows derives its words with one ``SeedSequence``."""
    keys = np.asarray(master_key)
    if keys.ndim == 1:
        keys = np.broadcast_to(keys, (n, keys.size))
    if keys.ndim != 2 or keys.shape[0] != n or not np.issubdtype(keys.dtype, np.integer):
        raise ContractError(f"perturb_pair: need one integer key per row, got {keys.shape} "
                            f"{keys.dtype} keys for {n} rows")
    if keys.size and keys.min() < 0:
        raise ContractError("perturb_pair: keys must be >= 0")
    heads = np.ones(n, dtype=bool)
    heads[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(heads)
    words = np.array([np.random.SeedSequence([int(k) for k in row]).generate_state(2, np.uint64)
                      for row in keys[starts]], dtype=np.uint64).reshape(-1, 2)
    return np.repeat(words, np.diff(starts, append=n), axis=0).T[:, :, None]


def perturb_pair(x: np.ndarray, cfg: PerturbConfig, master_key,
                 sample_ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Two independently perturbed views of a batch.

    ``master_key`` is an [N, L] integer array of one non-negative key per
    row, or one 1-D key, such as a tuple, for every row; a row's Philox key
    comes from its master key. Sample i's words in view v are counted on
    (block, v, id_i, 0), view 0 for the student and view 1 for the teacher,
    so the two views are independent, and a row's draw depends on its key
    and id alone: it is stable under batch recomposition, and rows keyed by
    several batches give each batch's views in one call.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if sample_ids is None:
        sample_ids = np.arange(n)
    sample_ids = np.asarray(sample_ids)
    if sample_ids.shape != (n,):
        raise ContractError("perturb_pair: need one sample id per row")
    if n and sample_ids.min() < 0:
        raise ContractError("perturb_pair: sample ids must be >= 0")

    image = x.ndim == 4
    size = int(np.prod(x.shape[1:]))
    noise_words = -(-size // 2) if cfg.noise_enabled else 0   # a word makes two values
    blocks = np.arange(0 if image else 1, 1 + -(-noise_words // 4), dtype=np.uint64)
    if blocks.size == 0:
        return x.copy(), x.copy()

    words = _philox(_key_words(master_key, n),
                    (blocks, np.arange(2, dtype=np.uint64)[:, None, None],
                     sample_ids.astype(np.uint64)[:, None], 0))
    # [view, sample, block, word]
    words = np.stack(words, axis=-1)
    geometry = [None, None]
    if image:
        geometry = [_geometry(tuple(words[v, :, 0].T), cfg, x.shape[3]) for v in (0, 1)]
        words = words[:, :, 1:]
    noise = [None, None]
    if noise_words:
        z = _gaussian(words.reshape(2, n, 4 * words.shape[2])[..., :noise_words], size)
        z = np.clip(z * np.sqrt(cfg.noise_variance), -cfg.noise_clip, cfg.noise_clip)
        noise = list(z.reshape((2,) + x.shape))
    view_s, view_t = (apply_draws(x, geometry[v], noise[v]) for v in (0, 1))
    return view_s, view_t
