"""Directional smoothing: a 1-D Gaussian along the local orientation,
restricted to samples that share the center pixel's binary class. Weights
are renormalized over the included samples so they always sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binarize import BinarizeConfig, _bands, _check_binary, _in_order, _is_ridge, _line_path, _nearest, _taps
from .flowfield import FlowField
from .image import BinaryImage, GrayImage, _check_sizes, _round_bytes, _two_sigma_squared


@dataclass(frozen=True)
class EnhanceConfig:
    """The smoothing Gaussian. Frozen: a variant is made with ``dataclasses.replace``, which checks it again."""
    gaussian_sigma: float = 3.0
    kernel_half_length: int = 9

    def __post_init__(self):
        if not math.isfinite(self.gaussian_sigma):
            raise ValueError(f"gaussian_sigma must be finite, got {self.gaussian_sigma}")
        _two_sigma_squared(self.gaussian_sigma, "gaussian_sigma")
        # an integer k < 2 sigma is k < ceil(2 sigma), without overflow
        _check_sizes(2 * self.gaussian_sigma, "kernel_half_length must be >= ceil(2 * gaussian_sigma)",
                     kernel_half_length=self.kernel_half_length)


def _gaussian_kernel(sigma: float, half_length: int) -> np.ndarray:
    """Discrete Gaussian weights over [-half_length, half_length], sum 1."""
    _check_sizes(0, f"half_length must be >= 0, got {half_length}", half_length=half_length)
    denom = _two_sigma_squared(sigma, "sigma")
    i = np.arange(-half_length, half_length + 1, dtype=np.float64)
    # for a tiny sigma an exponent overflows to -inf, whose weight is exactly 0
    with np.errstate(over="ignore"):
        w = np.exp(-(i * i) / denom)
    return w / w.sum()


def _masked_blend(img: np.ndarray, bits: np.ndarray, taps, center, weights) -> np.ndarray:
    """Gaussian-weighted mean of the taps that share the seed's class, tap by tap in path order; where none do,
    nothing is divided and the value at ``center``, each seed's flat nearest-pixel index, stays. ``taps`` yields
    each tap's (sample, nearest flat index) in order -k..k, as ``_in_order`` or the rows of a tap table give them."""
    flat_bits = bits.ravel()
    center_bit = flat_bits.take(center)
    num, den = np.zeros(np.shape(center)), np.zeros(np.shape(center))
    for (v, nr), weight in zip(taps, weights):  # taps first, so zip runs them to their end
        # in the raster and kept, and the nearest pixel has the seed's binary class
        use = ~np.isnan(v) & (flat_bits.take(nr) == center_bit)
        num += np.where(use, v, 0.0) * weight
        den += np.where(use, weight, 0.0)
    return np.divide(num, den, out=img.ravel().take(center).astype(np.float64), where=den > 0)


def _blend(img: np.ndarray, bits: np.ndarray, path, sites, xs, ys, theta, weights) -> np.ndarray:
    """``_masked_blend`` along ``path`` about each point's nearest pixel, each tap blended in order as
    it is sampled; that pixel's value where ``theta`` is NaN, since the path then keeps no tap."""
    h, w = img.shape
    k = len(weights) // 2
    taps = _in_order(_taps(img, path, sites, xs, ys, theta, k, True), k)
    return _masked_blend(img, bits, taps, _nearest(ys, h) * w + _nearest(xs, w), weights)


def _enhance(image: GrayImage, binary: BinaryImage, flow: FlowField, path, cfg: EnhanceConfig,
             rounded: bool) -> np.ndarray:
    """Enhanced values of every pixel over the given ``binary``, band by band, with no tap table; with
    ``rounded``, the bytes of ``GrayImage.from_float``, rounded band by band as they are made."""
    _check_binary(image, binary)
    img = image.pixels
    weights = _gaussian_kernel(cfg.gaussian_sigma, cfg.kernel_half_length)
    out = np.empty(img.shape, np.uint8 if rounded else np.float64)
    for rows, sites, X, Y, theta in _bands(image, flow, cfg.kernel_half_length):
        out[rows] = (_round_bytes if rounded else np.asarray)(
            _blend(img, binary.bits, path, sites, X, Y, theta, weights))
    return out


def _sweep(image: GrayImage, flow: FlowField, path, bcfg: BinarizeConfig, ecfg: EnhanceConfig):
    """Bits and enhanced bytes of every pixel, binarized then enhanced along ``path`` in one band sweep.

    Each band's taps are sampled once, to the larger half length, into one table that both readers share.
    A row is enhanced once the bits up to ke rows below it exist; rows still waiting stay at the table's top.
    """
    img = image.pixels
    h, w = img.shape
    kb, ke = bcfg.line_half_length, ecfg.kernel_half_length
    k = max(kb, ke)
    weights = _gaussian_kernel(ecfg.gaussian_sigma, ke)
    bits, out = np.empty((h, w), np.uint8), np.empty((h, w), np.uint8)
    vals, y0 = None, 0  # y0: the first row not yet enhanced, the tap table's top row
    for rows, sites, X, Y, theta in _bands(image, flow, k):
        n, end = rows.start - y0, rows.stop - y0  # the table's rows: n waiting, then this band's
        if vals is None:  # sized by the first band, the largest, and the ke rows at most that wait
            shape = (2 * k + 1, min(len(X) + ke, h), w)
            vals, near = np.empty(shape), np.empty(shape, np.int32)
        for o, sample, nr in _taps(img, path, sites, X, Y, theta, k, True):  # filed in path order
            vals[k + o, n:end], near[k + o, n:end] = sample, nr
            del sample, nr  # copied; not held while the next tap is sampled
        bits[rows] = ~_is_ridge(img, vals[k - kb : k + kb + 1, n:end], X, Y, theta, kb)
        ready = h if rows.stop == h else max(rows.stop - ke, y0)
        m = ready - y0
        taps = zip(vals[k - ke : k + ke + 1, :m], near[k - ke : k + ke + 1, :m])
        out[y0:ready] = _round_bytes(
            _masked_blend(img, bits, taps, np.arange(y0 * w, ready * w).reshape(m, w), weights))
        for plane in (*vals[k - ke : k + ke + 1], *near[k - ke : k + ke + 1]):
            plane[: end - m] = plane[m:end]  # the waiting rows to the top; numpy buffers an overlapping move
        y0 = ready
    return bits, out


def enhance_values(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig = EnhanceConfig()
) -> np.ndarray:
    """Full-image smoothing before rounding; pass-through where flow is undefined."""
    return _enhance(image, binary, flow, _line_path, cfg, False)


def enhance_image(
    image: GrayImage, binary: BinaryImage, flow: FlowField, cfg: EnhanceConfig = EnhanceConfig()
) -> GrayImage:
    return GrayImage._of_bytes(_enhance(image, binary, flow, _line_path, cfg, True))
