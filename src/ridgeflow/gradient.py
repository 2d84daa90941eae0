"""Structure-tensor orientation baseline.

Gradients come from 3x3 Sobel kernels (normalized to intensity per pixel,
borders replicated). The tensor is the Gaussian-weighted sum of gradient
outer products over a square window; its dominant eigenvector points across
ridges, so the flow field stores that angle plus pi/2 to be directly
comparable with the projection method.

The window sums are taken at the stride grid sites only, one product at a
time, with the operations of a zero-padded ``scipy.ndimage.convolve`` read at
those sites, so every value has its bytes: each site's sum starts at 0 and
adds weight times value tap by tap, in row-major order of the flipped
kernel, skipping every tap whose |weight| is at most the float64 epsilon as
scipy's footprint does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flowfield import FlowField, _grid_sites
from .image import GrayImage, band_rows
from .projection import FlowConfig, patch_variance_grid

# Grid sites per band of ``_site_window_sums``.
_SITE_BAND = 32768


@dataclass(eq=False)
class GradientField:
    """Per-pixel intensity derivatives, units of intensity per pixel."""

    gx: np.ndarray
    gy: np.ndarray

    def __post_init__(self):
        if self.gx.shape != self.gy.shape or self.gx.ndim != 2:
            raise ValueError("gx and gy must be 2-D arrays of equal shape")

    @property
    def width(self) -> int:
        return self.gx.shape[1]

    @property
    def height(self) -> int:
        return self.gx.shape[0]


def gradient(image: GrayImage) -> GradientField:
    """3x3 Sobel derivatives with replicated borders, scaled by 1/8."""
    if image.width < 3 or image.height < 3:
        raise ValueError(f"image must be at least 3x3 pixels, got {image.width}x{image.height}")
    f = np.pad(image.as_float(), 1, mode="edge")
    gx = (
        (f[:-2, 2:] + 2.0 * f[1:-1, 2:] + f[2:, 2:])
        - (f[:-2, :-2] + 2.0 * f[1:-1, :-2] + f[2:, :-2])
    ) / 8.0
    gy = (
        (f[2:, :-2] + 2.0 * f[2:, 1:-1] + f[2:, 2:])
        - (f[:-2, :-2] + 2.0 * f[:-2, 1:-1] + f[:-2, 2:])
    ) / 8.0
    return GradientField(gx, gy)


def check_window(window_half: int, weight_sigma: float | None) -> None:
    """Reject a negative window half size or a non-positive or non-finite weight sigma."""
    if window_half < 0:
        raise ValueError(f"gradient window half size must be >= 0, got {window_half}")
    if weight_sigma is not None and not 0 < weight_sigma < math.inf:
        raise ValueError(f"gradient weight sigma must be positive and finite, or None, got {weight_sigma}")


def _window_weights(window_half: int, weight_sigma: float | None) -> np.ndarray:
    offs = np.arange(-window_half, window_half + 1, dtype=np.float64)
    if weight_sigma is None:
        return np.ones((offs.size, offs.size))
    dx, dy = np.meshgrid(offs, offs)
    return np.exp(-(dx * dx + dy * dy) / (2.0 * weight_sigma * weight_sigma))


def _site_window_sums(a: np.ndarray, b: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """Window sums of the product ``a * b`` weighted by the odd square ``kernel`` at the stride grid sites.

    The zero-padded product is split into contiguous stride-phase planes, so
    each tap reads one plane at a fixed offset; per band of sites every kept
    tap multiplies its slice by the weight and adds it to the band's sums.
    """
    h, w = a.shape
    c = kernel.shape[0] // 2
    padded = np.zeros((h + 2 * c, w + 2 * c))
    np.multiply(a, b, out=padded[c : c + h, c : c + w])
    planes = [[np.ascontiguousarray(padded[p::stride, q::stride]) for q in range(stride)] for p in range(stride)]
    del padded
    eps = np.finfo(np.float64).eps
    taps = [(i, j, weight) for (i, j), weight in np.ndenumerate(kernel[::-1, ::-1]) if abs(weight) > eps]
    xs, ys = _grid_sites(w, h, stride)
    out = np.zeros((ys.size, xs.size))
    for rows in band_rows(xs.size, ys.size, _SITE_BAND):
        acc = out[rows]
        prod = np.empty(acc.shape)
        for i, j, weight in taps:
            y0, x0 = rows.start + i // stride, j // stride
            np.multiply(planes[i % stride][j % stride][y0 : y0 + acc.shape[0], x0 : x0 + xs.size], weight, out=prod)
            acc += prod
    return out


def compute_flow_field_gradient(
    image: GrayImage,
    cfg: FlowConfig | None = None,
    window_half: int = 8,
    weight_sigma: float | None = 4.0,
    coherence_threshold: float = 0.1,
) -> FlowField:
    """Structure-tensor flow on the same stride grid as the projection method.

    Stored angles are ridge orientations (tensor angle + pi/2). Sites are
    invalid where coherence < ``coherence_threshold`` or where the local
    patch variance is below the background threshold.
    """
    check_window(window_half, weight_sigma)
    cfg = cfg or FlowConfig()
    grad = gradient(image)
    # weights past the image borders only multiply the zero padding
    kernel = _window_weights(min(window_half, max(image.width, image.height) - 1), weight_sigma)
    a11 = _site_window_sums(grad.gx, grad.gx, kernel, cfg.stride)
    a12 = _site_window_sums(grad.gx, grad.gy, kernel, cfg.stride)
    a22 = _site_window_sums(grad.gy, grad.gy, kernel, cfg.stride)
    del grad  # frees two full-resolution arrays before the patch variance pass

    theta = 0.5 * np.arctan2(2.0 * a12, a11 - a22)
    ridge = np.mod(theta + math.pi / 2.0, math.pi)
    ridge = np.where(ridge >= math.pi, 0.0, ridge)
    trace = a11 + a22
    spread = np.hypot(a11 - a22, 2.0 * a12)
    with np.errstate(invalid="ignore", divide="ignore"):
        coherence = np.where(trace < 1e-12, 0.0, np.minimum(spread / np.maximum(trace, 1e-300), 1.0))

    foreground = patch_variance_grid(image, cfg) >= cfg.background_variance_threshold
    valid = foreground & (coherence >= coherence_threshold)
    return FlowField(ridge, valid, cfg.stride, coherence=coherence)
