"""Stochastic input perturbations, drawn independently per sample and view.

Each sample in a batch is perturbed separately, and the two views fed to
the student and teacher come from disjoint random substreams. Substreams
are keyed as (master key..., sample id, view id), so the draw a sample
receives does not depend on where it lands in the batch or on what other
samples are present.

Image perturbations follow rotate -> translate -> flip, with nearest
neighbor resampling and zero padding; optional clipped Gaussian noise is
added last. Vector inputs only support the noise perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError


def substream(*keys: int) -> np.random.Generator:
    """Independent generator keyed by a tuple of non-negative integers."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


@dataclass(frozen=True)
class GaussianNoiseConfig:
    enabled: bool = False
    variance: float = 0.01
    clip: float = 0.2

    def __post_init__(self):
        if self.variance < 0 or self.clip < 0:
            raise ContractError("noise variance and clip must be >= 0")


@dataclass(frozen=True)
class PerturbConfig:
    rotation_deg_max: float = 10.0
    translate_frac_max: float = 0.02
    flip_prob: float = 0.5
    noise: GaussianNoiseConfig = field(default_factory=GaussianNoiseConfig)

    def __post_init__(self):
        if self.rotation_deg_max < 0 or self.translate_frac_max < 0:
            raise ContractError("perturbation magnitudes must be >= 0")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ContractError("flip_prob must be in [0, 1]")

    @classmethod
    def zero(cls) -> "PerturbConfig":
        """Identity perturbation: useful for ablations and tests."""
        return cls(rotation_deg_max=0.0, translate_frac_max=0.0, flip_prob=0.0)


@dataclass
class PerturbDraw:
    """Sampled perturbation parameters for one sample and one view."""

    angle_deg: float = 0.0
    dx: int = 0
    dy: int = 0
    flip_h: bool = False
    flip_v: bool = False
    noise: np.ndarray | None = None


def _rotate_nearest(img: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate channels-first image about its center; zero fill outside."""
    c, h, w = img.shape
    theta = np.deg2rad(angle_deg)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = rows - cy, cols - cx
    # inverse map: output pixel looks up the source it came from
    src_r = np.cos(theta) * dy + np.sin(theta) * dx + cy
    src_c = -np.sin(theta) * dy + np.cos(theta) * dx + cx
    sr = np.rint(src_r).astype(int)
    sc = np.rint(src_c).astype(int)
    inside = (sr >= 0) & (sr < h) & (sc >= 0) & (sc < w)
    out = np.zeros_like(img)
    out[:, inside] = img[:, sr[inside], sc[inside]]
    return out


def _translate(img: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Shift content by (dx right, dy down) with zero padding."""
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
    if cfg.noise.enabled:
        n = rng.normal(0.0, np.sqrt(cfg.noise.variance), size=sample_shape)
        draw.noise = np.clip(n, -cfg.noise.clip, cfg.noise.clip)
    return draw


def apply_draw(x: np.ndarray, draw: PerturbDraw) -> np.ndarray:
    """Apply a sampled perturbation to one sample (rotate, translate, flip, noise)."""
    out = np.asarray(x, dtype=np.float64)
    if out.ndim == 3:
        if out.shape[1] < 2 or out.shape[2] < 2:
            raise DimensionError(f"image perturbation needs H, W >= 2, got {out.shape}")
        if draw.angle_deg != 0.0:
            out = _rotate_nearest(out, draw.angle_deg)
        out = _translate(out, draw.dx, draw.dy)
        if draw.flip_h:
            out = out[:, :, ::-1]
        if draw.flip_v:
            out = out[:, ::-1, :]
    if draw.noise is not None:
        out = out + draw.noise
    return np.ascontiguousarray(out)


def perturb_pair(x: np.ndarray, cfg: PerturbConfig, master_key: tuple[int, ...],
                 sample_ids: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, tuple[list[PerturbDraw], list[PerturbDraw]]]:
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

    views = []
    all_draws: tuple[list[PerturbDraw], list[PerturbDraw]] = ([], [])
    for view_id in (0, 1):
        out = np.empty_like(x)
        for i in range(n):
            rng = substream(*master_key, int(sample_ids[i]), view_id)
            draw = draw_perturbation(x.shape[1:], cfg, rng)
            all_draws[view_id].append(draw)
            out[i] = apply_draw(x[i], draw)
        views.append(out)
    return views[0], views[1], all_draws
