"""Directional smoothing: a 1-D Gaussian along the local orientation,
restricted to samples that share the center pixel's binary class. Weights
are renormalized over the included samples so they always sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binarize import BinaryImage, _line_path
from .flowfield import FlowField, angles_at, check_flow_grid
from .image import GrayImage, Point, bilinear_many, row_bands


@dataclass
class EnhanceConfig:
    gaussian_sigma: float = 3.0
    kernel_half_length: int = 9

    def __post_init__(self):
        if not math.isfinite(self.gaussian_sigma):
            raise ValueError(f"gaussian_sigma must be finite, got {self.gaussian_sigma}")
        _two_sigma_squared(self.gaussian_sigma, "gaussian_sigma")
        if self.kernel_half_length < 2 * self.gaussian_sigma:  # k < ceil(2 sigma) for an integer k, without overflow
            raise ValueError("kernel_half_length must be >= ceil(2 * gaussian_sigma)")


def _two_sigma_squared(sigma: float, name: str) -> float:
    """The Gaussian's denominator 2 sigma^2; ValueError unless sigma and it are positive."""
    if not sigma > 0:
        raise ValueError(f"{name} must be positive")
    denom = 2.0 * sigma * sigma
    if not denom > 0:
        raise ValueError(f"{name} {sigma:g} is too small: 2 * {name}**2 underflows to 0")
    return denom


def gaussian_kernel(sigma: float, half_length: int) -> np.ndarray:
    """Discrete Gaussian weights over [-half_length, half_length], sum 1."""
    denom = _two_sigma_squared(sigma, "sigma")
    i = np.arange(-half_length, half_length + 1, dtype=np.float64)
    # for a tiny sigma an exponent overflows to -inf, whose weight is exactly 0
    with np.errstate(over="ignore"):
        w = np.exp(-(i * i) / denom)
    return w / w.sum()


def _nearest(coords, size: int) -> np.ndarray:
    """Index of the nearest pixel along one axis, clamped into [0, size - 1].

    The clamp comes before the cast, so a NaN maps to 0 without an
    invalid-cast warning.
    """
    c = np.add(coords, 0.5)
    np.floor(c, out=c)
    return np.fmin(np.fmax(c, 0.0, out=c), size - 1.0, out=c).astype(np.intp)


def _masked_blend(
    img: np.ndarray, bits: np.ndarray, path, flow, xs, ys, theta, defined, cfg: EnhanceConfig
) -> np.ndarray:
    """Gaussian-weighted mean over the samples of ``path`` that share the seed's class."""
    h, w = img.shape
    k = cfg.kernel_half_length
    wcol = gaussian_kernel(cfg.gaussian_sigma, k).reshape((2 * k + 1,) + (1,) * np.ndim(xs))
    px, py, ok = path(flow, xs, ys, theta, defined, k, (w, h))
    vals = bilinear_many(img, px, py)
    inb = ok & ~np.isnan(vals)

    # binary class at the nearest pixel of each sample
    xi = _nearest(px, w)
    yi = _nearest(py, h)
    center_x = _nearest(xs, w)
    center_y = _nearest(ys, h)
    same = bits[yi, xi] == bits[center_y, center_x]

    use = inb & same
    num = (np.where(use, vals, 0.0) * wcol).sum(axis=0)
    den = (np.where(use, wcol, 0.0)).sum(axis=0)
    center_val = img[center_y, center_x]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = num / den
    return np.where(den > 0, out, center_val)


def _enhance_pixel(
    image: GrayImage, binary: BinaryImage, p: Point, angles, cfg: EnhanceConfig | None, path, flow
) -> float:
    """Smoothed intensity at ``p`` for ``angles`` = (theta, defined); its bilinear sample where undefined.

    NaN where ``p`` is outside the raster by the predicate of
    ``sample_bilinear`` (non-finite points included): there is no pixel to
    fall back on.
    """
    cfg = cfg or EnhanceConfig()
    img = image.as_float()
    xs = np.array([p[0]], dtype=np.float64)
    ys = np.array([p[1]], dtype=np.float64)
    sample = bilinear_many(img, xs, ys)
    if math.isnan(sample[0]):
        return math.nan
    blended = _masked_blend(img, binary.bits, path, flow, xs, ys, *angles, cfg)
    return float(np.where(angles[1], blended, sample)[0])


def enhance_pixel(
    image: GrayImage, binary: BinaryImage, p: Point, theta: float, cfg: EnhanceConfig | None = None
) -> float:
    """Smoothed intensity at ``p`` (pre-rounding); NaN where ``p`` is outside the raster."""
    return _enhance_pixel(image, binary, p, (np.array([theta]), np.array([True])), cfg, _line_path, None)


def _enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None, path
) -> np.ndarray:
    """Smooth every pixel along ``path``, in row bands; pass-through where flow is undefined."""
    cfg = cfg or EnhanceConfig()
    if (binary.height, binary.width) != (image.height, image.width):
        raise ValueError(
            f"binary dimensions {binary.width}x{binary.height} do not match "
            f"image {image.width}x{image.height}"
        )
    check_flow_grid(flow, image.width, image.height)
    img = image.as_float()
    out = np.empty_like(img)
    for rows, X, Y in row_bands(image.width, image.height):
        theta, defined = angles_at(flow, X, Y)
        blended = _masked_blend(img, binary.bits, path, flow, X, Y, theta, defined, cfg)
        out[rows] = np.where(defined, blended, img[rows])
    return out


def enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> np.ndarray:
    """Full-image smoothing before rounding; pass-through where flow is undefined."""
    return _enhance_values(image, binary, flow, cfg, _line_path)


def enhance_image(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> GrayImage:
    return GrayImage.from_float(enhance_values(image, binary, flow, cfg))
