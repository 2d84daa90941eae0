"""Directional smoothing: a 1-D Gaussian along the local orientation,
restricted to samples that share the center pixel's binary class. Weights
are renormalized over the included samples so they always sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binarize import BinaryImage
from .flowfield import FlowField, angles_at, check_flow_grid
from .image import GrayImage, Point, bilinear_many, row_bands


@dataclass
class EnhanceConfig:
    gaussian_sigma: float = 3.0
    kernel_half_length: int = 9

    def __post_init__(self):
        if not self.gaussian_sigma > 0:
            raise ValueError("gaussian_sigma must be positive")
        if self.kernel_half_length < math.ceil(2 * self.gaussian_sigma):
            raise ValueError("kernel_half_length must be >= ceil(2 * gaussian_sigma)")


def gaussian_kernel(sigma: float, half_length: int) -> np.ndarray:
    """Discrete Gaussian weights over [-half_length, half_length], sum 1."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    i = np.arange(-half_length, half_length + 1, dtype=np.float64)
    w = np.exp(-(i * i) / (2.0 * sigma * sigma))
    return w / w.sum()


def _masked_directional_blend(
    img: np.ndarray, bits: np.ndarray, xs, ys, theta, cfg: EnhanceConfig
) -> np.ndarray:
    """Gaussian-weighted mean along ``theta`` over same-class samples."""
    h, w = img.shape
    k = cfg.kernel_half_length
    weights = gaussian_kernel(cfg.gaussian_sigma, k)
    offs = np.arange(-k, k + 1, dtype=np.float64)
    shape = (offs.size,) + (1,) * np.ndim(xs)
    offs = offs.reshape(shape)
    wcol = weights.reshape(shape)

    X = xs + offs * np.cos(theta)
    Y = ys + offs * np.sin(theta)
    vals = bilinear_many(img, X, Y)
    inb = ~np.isnan(vals)

    # binary class at the nearest pixel of each sample
    xi = np.clip(np.floor(X + 0.5).astype(np.int64), 0, w - 1)
    yi = np.clip(np.floor(Y + 0.5).astype(np.int64), 0, h - 1)
    center_x = np.clip(np.floor(np.asarray(xs) + 0.5).astype(np.int64), 0, w - 1)
    center_y = np.clip(np.floor(np.asarray(ys) + 0.5).astype(np.int64), 0, h - 1)
    same = bits[yi, xi] == bits[center_y, center_x]

    use = inb & same
    num = (np.where(use, vals, 0.0) * wcol).sum(axis=0)
    den = (np.where(use, wcol, 0.0)).sum(axis=0)
    center_val = img[center_y, center_x]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = num / den
    return np.where(den > 0, out, center_val)


def enhance_pixel(
    image: GrayImage, binary: BinaryImage, p: Point, theta: float, cfg: EnhanceConfig | None = None
) -> float:
    """Smoothed intensity at ``p`` (pre-rounding)."""
    cfg = cfg or EnhanceConfig()
    return float(
        _masked_directional_blend(
            image.as_float(), binary.bits, np.float64(p[0]), np.float64(p[1]), theta, cfg
        )
    )


def enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> np.ndarray:
    """Full-image smoothing before rounding; pass-through where flow is undefined."""
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
        blended = _masked_directional_blend(img, binary.bits, X, Y, theta, cfg)
        out[rows] = np.where(defined, blended, img[rows])
    return out


def enhance_image(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> GrayImage:
    return GrayImage.from_float(enhance_values(image, binary, flow, cfg))
