"""Directional smoothing: a 1-D Gaussian along the local orientation,
restricted to samples that share the center pixel's binary class. Weights
are renormalized over the included samples so they always sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binarize import BinarizeConfig, BinaryImage, _check_inputs, _in_order, _is_ridge, _line_path, _nearest, _taps
from .flowfield import FlowField, _band_sites, angles_at
from .image import GrayImage, Point, _round_bytes, bilinear_many, row_bands


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


def _masked_blend(img: np.ndarray, bits: np.ndarray, taps, center, weights) -> np.ndarray:
    """Gaussian-weighted mean of the taps that share the seed's class, tap by tap in path order; the
    value at ``center``, each seed's flat nearest-pixel index, where none do. ``taps`` yields each tap's
    (sample, nearest flat index) in order -k..k, as ``_in_order`` or the rows of a tap table give them."""
    flat_bits = bits.ravel()
    center_bit = flat_bits.take(center)
    num, den = np.zeros(np.shape(center)), np.zeros(np.shape(center))
    for (v, nr), weight in zip(taps, weights):  # taps first, so zip runs them to their end
        # in the raster and kept, and the nearest pixel has the seed's binary class
        use = ~np.isnan(v) & (flat_bits.take(nr) == center_bit)
        num += np.where(use, v, 0.0) * weight
        den += np.where(use, weight, 0.0)
    center_val = img.ravel().take(center)
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
    _check_inputs(image, flow, binary)
    img = image.pixels
    h, w = img.shape
    xs, ys = (np.array([c], dtype=np.float64) for c in p)
    sample = bilinear_many(img, xs, ys)
    if math.isnan(sample[0]):
        return math.nan
    k = cfg.kernel_half_length
    taps = _in_order(_taps(img, path, flow, xs, ys, *angles, k, True), k)
    center = _nearest(ys, h) * w + _nearest(xs, w)
    blended = _masked_blend(img, binary.bits, taps, center, gaussian_kernel(cfg.gaussian_sigma, k))
    return float(np.where(angles[1], blended, sample)[0])


def enhance_pixel(
    image: GrayImage, binary: BinaryImage, p: Point, theta: float, cfg: EnhanceConfig | None = None
) -> float:
    """Smoothed intensity at ``p`` (pre-rounding); NaN where ``p`` is outside the raster."""
    return _enhance_pixel(image, binary, p, (np.array([theta]), np.array([True])), cfg, _line_path, None)


def _sweep(image: GrayImage, flow: FlowField, path, bcfg: BinarizeConfig | None, ecfg: EnhanceConfig,
           binary: BinaryImage | None = None, rounded: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Bits and enhanced values of every pixel, binarized along ``path`` unless ``binary`` is given; with
    ``rounded``, the values are the bytes of ``GrayImage.from_float``, rounded band by band as they are made.

    Each row band looks up orientations in one table of the site rows it reaches. Given ``binary``, it
    blends its taps one at a time, in order, as they are sampled: no tap table exists. Otherwise it is
    sampled once into a table, to the larger half length, for both readers. A row is enhanced once the
    bits up to ke rows below it exist; rows that wait for later bands carry over as copies.
    """
    _check_inputs(image, flow, binary)
    img = image.pixels
    h, w = img.shape
    ke = ecfg.kernel_half_length
    weights = gaussian_kernel(ecfg.gaussian_sigma, ke)
    out = np.empty((h, w), np.uint8 if rounded else np.float64)
    finish = _round_bytes if rounded else np.asarray
    if binary is not None:
        for rows, X, Y in row_bands(w, h):
            sites = _band_sites(flow, rows, ke)
            theta, defined = angles_at(sites, X, Y)
            taps = _in_order(_taps(img, path, sites, X, Y, theta, defined, ke, True), ke)
            center = np.arange(rows.start * w, rows.stop * w).reshape(X.shape)
            out[rows] = finish(np.where(defined, _masked_blend(img, binary.bits, taps, center, weights), img[rows]))
        return binary.bits, out
    kb = bcfg.line_half_length
    k = max(kb, ke)
    bits = np.empty((h, w), dtype=np.uint8)
    pending, table = [], None  # pending: (first row, taps, nearest, defined) of rows not yet enhanced
    for rows, X, Y in row_bands(w, h):
        sites = _band_sites(flow, rows, k)
        theta, defined = angles_at(sites, X, Y)
        table = table or tuple(np.empty((2 * k + 1,) + X.shape, t) for t in (np.float64, np.int32))
        vals, near = (t[:, : len(X)] for t in table)  # the first band's table, the largest
        for o, sample, nr in _taps(img, path, sites, X, Y, theta, defined, k, True):
            vals[k + o], near[k + o] = sample, nr
            del sample, nr  # copied; not held while the next tap is sampled
        bits[rows] = ~_is_ridge(img, vals[k - kb : k + kb + 1], X, Y, theta, defined, kb)
        ready = h if rows.stop == h else rows.stop - ke
        pending.append((rows.start, vals[k - ke : k + ke + 1], near[k - ke : k + ke + 1], defined))
        for _ in range(len(pending)):  # popped one at a time, so each copy goes once spent
            y0, v, nr, d = pending.pop(0)
            n = min(max(ready - y0, 0), len(d))
            if n:
                center = np.arange(y0 * w, (y0 + n) * w).reshape(n, w)
                blended = _masked_blend(img, bits, zip(v[:, :n], nr[:, :n]), center, weights)
                out[y0 : y0 + n] = finish(np.where(d[:n], blended, img[y0 : y0 + n]))
            if n < len(d):
                pending.append((y0 + n, v[:, n:].copy(), nr[:, n:].copy(), d[n:]))
    return bits, out


def enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> np.ndarray:
    """Full-image smoothing before rounding; pass-through where flow is undefined."""
    return _sweep(image, flow, _line_path, None, cfg or EnhanceConfig(), binary)[1]


def enhance_image(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig | None = None
) -> GrayImage:
    return GrayImage._of_bytes(_sweep(image, flow, _line_path, None, cfg or EnhanceConfig(), binary, rounded=True)[1])
