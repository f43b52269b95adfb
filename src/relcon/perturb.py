"""Stochastic input perturbations, drawn independently per sample and view.

Each sample in a batch is perturbed separately, and the two views fed to
the student and teacher come from disjoint random substreams. Substreams
are keyed as (master key..., sample id, view id), so the draw a sample
receives does not depend on where it lands in the batch or on what other
samples are present.

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
from typing import Sequence

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
        if self.rotation_deg_max < 0 or self.translate_frac_max < 0:
            raise ContractError("perturbation magnitudes must be >= 0")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ContractError("flip_prob must be in [0, 1]")
        if self.noise_variance < 0 or self.noise_clip < 0:
            raise ContractError("noise variance and clip must be >= 0")


@dataclass
class PerturbDraw:
    """Sampled perturbation parameters for one sample and one view."""

    angle_deg: float = 0.0
    dx: int = 0
    dy: int = 0
    flip_h: bool = False
    flip_v: bool = False
    noise: np.ndarray | None = None


def draw_perturbation(sample_shape: tuple[int, ...], cfg: PerturbConfig,
                      rng: np.random.Generator) -> PerturbDraw:
    """Sample one PerturbDraw; image inputs draw geometry, vectors only noise."""
    draw = PerturbDraw()
    if len(sample_shape) == 3:
        _, h, w = sample_shape
        draw.angle_deg = float(rng.uniform(-cfg.rotation_deg_max, cfg.rotation_deg_max))
        max_px = int(round(cfg.translate_frac_max * w))
        draw.dx = int(rng.integers(-max_px, max_px + 1))
        draw.dy = int(rng.integers(-max_px, max_px + 1))
        draw.flip_h = bool(rng.random() < cfg.flip_prob)
        draw.flip_v = bool(rng.random() < cfg.flip_prob)
    if cfg.noise_enabled:
        n = rng.normal(0.0, np.sqrt(cfg.noise_variance), size=sample_shape)
        draw.noise = np.clip(n, -cfg.noise_clip, cfg.noise_clip)
    return draw


def _source_pixels(draws: Sequence[PerturbDraw], h: int, w: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Flat source pixel of every output pixel, [N, 1, H*W], and whether it
    lies in the image.

    Inverts rotate -> translate -> flip: undo the flips, then the shift, then
    the rotation about the center, rounding to the nearest pixel.
    """
    def per_sample(name):
        return np.array([getattr(d, name) for d in draws])[:, None, None]

    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    r = np.where(per_sample("flip_v"), h - 1 - rows, rows) - per_sample("dy")
    c = np.where(per_sample("flip_h"), w - 1 - cols, cols) - per_sample("dx")
    theta = np.deg2rad(per_sample("angle_deg"))
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy, dx = r - cy, c - cx
    sr = np.rint(cos * dy + sin * dx + cy).astype(int)
    sc = np.rint(-sin * dy + cos * dx + cx).astype(int)
    inside = ((r >= 0) & (r < h) & (c >= 0) & (c < w)
              & (sr >= 0) & (sr < h) & (sc >= 0) & (sc < w))
    shape = (len(draws), 1, h * w)
    return np.where(inside, sr * w + sc, 0).reshape(shape), inside.reshape(shape)


def apply_draws(x: np.ndarray, draws: Sequence[PerturbDraw]) -> np.ndarray:
    """Apply draw i to sample i of a batch: geometry as one gather, noise last."""
    out = np.array(x, dtype=np.float64, order="C")
    if len(draws) != out.shape[0]:
        raise ContractError(f"apply_draws: {len(draws)} draws for {out.shape[0]} samples")
    if out.ndim == 4:
        n, c, h, w = out.shape
        if h < 2 or w < 2:
            raise DimensionError(f"image perturbation needs H, W >= 2, got {out.shape[1:]}")
        src, inside = _source_pixels(draws, h, w)
        gathered = np.take_along_axis(out.reshape(n, c, h * w), src, axis=2)
        # np.where, not a multiply by the mask: 0 * -x would write -0.0
        out = np.where(inside, gathered, 0.0).reshape(out.shape)
    noise = [d.noise for d in draws]
    if any(n is not None for n in noise):
        out = out + np.stack(noise)   # a None among the arrays fails the stack
    return out


def perturb_pair(x: np.ndarray, cfg: PerturbConfig, master_key: tuple[int, ...],
                 sample_ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Two independently perturbed views of a batch.

    Each sample i gets its draws from substream (master_key..., id_i, view),
    view 0 for the student and view 1 for the teacher, so the two views are
    independent and a sample's draw is stable under batch recomposition.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if sample_ids is None:
        sample_ids = np.arange(n)
    sample_ids = np.asarray(sample_ids)
    if sample_ids.shape[0] != n:
        raise ContractError("perturb_pair: need one sample id per row")

    view_s, view_t = (
        apply_draws(x, [draw_perturbation(x.shape[1:], cfg,
                                          substream(*master_key, int(i), view_id))
                        for i in sample_ids])
        for view_id in (0, 1))
    return view_s, view_t
