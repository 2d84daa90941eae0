"""Ridge/valley classification by comparing directional mean intensities.

A pixel is a ridge (bit 0) when the mean intensity along its dominant
orientation is strictly lower than the mean along the orthogonal direction;
everything else, including ties and pixels without a defined orientation,
is a valley (bit 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flowfield import FlowField, angles_at, check_flow_grid
from .image import BinaryImage, GrayImage, Point, bilinear_many, row_bands


# Decision margin: means closer than this count as a tie (valley). Intensity
# means differ by whole units where the classification is meaningful, while
# summation rounding perturbs them by ~1e-13, so mathematically tied means
# stay ties no matter how a remap or evaluation order shuffles the rounding.
_TIE_EPS = 1e-9


@dataclass
class BinarizeConfig:
    line_half_length: int = 4

    def __post_init__(self):
        if self.line_half_length < 1:
            raise ValueError("line_half_length must be >= 1")


def _directional_mean(img: np.ndarray, xs, ys, theta, half_length: int) -> np.ndarray:
    """Mean of in-bounds samples along the line at ``theta``; NaN if none."""
    offs = np.arange(-half_length, half_length + 1, dtype=np.float64)
    shape = (offs.size,) + (1,) * np.ndim(xs)
    offs = offs.reshape(shape)
    X = xs + offs * np.cos(theta)
    Y = ys + offs * np.sin(theta)
    vals = bilinear_many(img, X, Y)
    ok = ~np.isnan(vals)
    n = ok.sum(axis=0)
    s = np.where(ok, vals, 0.0).sum(axis=0)
    return np.where(n > 0, s / np.maximum(n, 1), np.nan)


def binarize_pixel(image: GrayImage, p: Point, theta: float, cfg: BinarizeConfig | None = None) -> int:
    """Bit at ``p`` given orientation ``theta`` (pi-periodic)."""
    cfg = cfg or BinarizeConfig()
    img = image.as_float()
    px = np.float64(p[0])
    py = np.float64(p[1])
    g = _directional_mean(img, px, py, theta, cfg.line_half_length)
    h = _directional_mean(img, px, py, theta + math.pi / 2.0, cfg.line_half_length)
    if math.isnan(g) or math.isnan(h):
        return 1
    return 0 if g < h - _TIE_EPS else 1


def binarize_image(image: GrayImage, flow: FlowField, cfg: BinarizeConfig | None = None) -> BinaryImage:
    """Per-pixel classification with orientations interpolated from ``flow``.

    Pixels with no defined orientation are classified as valley (1).
    """
    cfg = cfg or BinarizeConfig()
    check_flow_grid(flow, image.width, image.height)
    img = image.as_float()
    ridge = np.empty((image.height, image.width), dtype=bool)
    for rows, X, Y in row_bands(image.width, image.height):
        theta, defined = angles_at(flow, X, Y)
        g = _directional_mean(img, X, Y, theta, cfg.line_half_length)
        h = _directional_mean(img, X, Y, theta + math.pi / 2.0, cfg.line_half_length)
        ridge[rows] = defined & ~np.isnan(g) & ~np.isnan(h) & (g < h - _TIE_EPS)
    return BinaryImage(np.where(ridge, 0, 1).astype(np.int64))
