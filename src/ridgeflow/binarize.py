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

from .flowfield import FlowField, _band_sites, angles_at, check_flow_grid
from .image import BinaryImage, GrayImage, _check_sizes, _tap_mean, band_rows, bilinear_many


# Decision margin: means closer than this count as a tie (valley). Intensity
# means differ by whole units where the classification is meaningful, while
# summation rounding perturbs them by ~1e-13, so mathematically tied means
# stay ties no matter how a remap or evaluation order shuffles the rounding.
_TIE_EPS = 1e-9


@dataclass(frozen=True)
class BinarizeConfig:
    """The binarizing line. Frozen: a variant is made with ``dataclasses.replace``, which checks it again."""
    line_half_length: int = 4

    def __post_init__(self):
        _check_sizes(1, "line_half_length must be >= 1", line_half_length=self.line_half_length)


def _check_binary(image: GrayImage, binary: BinaryImage) -> None:
    """ValueError unless ``binary`` is the image's size."""
    if (binary.height, binary.width) != (image.height, image.width):
        raise ValueError(f"binary dimensions {binary.width}x{binary.height} do not match "
                         f"image {image.width}x{image.height}")


def _nearest(coords, size: int) -> np.ndarray:
    """Index of the nearest pixel along one axis, clamped into [0, size - 1] before the cast,
    so a NaN maps to 0 without an invalid-cast warning."""
    c = np.add(coords, 0.5)
    np.floor(c, out=c)
    return np.fmin(np.fmax(c, 0.0, out=c), size - 1.0, out=c).astype(np.intp)


def _line_path(flow, xs, ys, theta, half: int, bounds):
    """The straight sampling path (see the contour module): ``half`` unit steps each way along ``theta``, all kept."""
    c = np.cos(theta)
    s = np.sin(theta)
    for o in range(-half, half + 1):
        yield o, xs + o * c, ys + o * s, True


def _taps(img: np.ndarray, path, flow, xs, ys, theta, half: int, nearest: bool):
    """Each tap of ``path`` sampled once, in the path's order: (o, sample, nearest flat index or None). The
    sample is NaN off the raster or where the path drops the tap; neither is kept once the next tap is asked for."""
    h, w = img.shape
    for o, px, py, ok in path(flow, xs, ys, theta, half, (w, h)):
        sample = bilinear_many(img, px, py)
        np.copyto(sample, np.nan, where=np.logical_not(ok))
        near = _nearest(py, h) * w + _nearest(px, w) if nearest else None
        yield o, sample, near
        del sample, near


def _in_order(taps, half: int):
    """The (sample, nearest) of ``_taps`` in order -half..half; a tap that comes early waits for its turn."""
    held, turn = {}, -half
    for o, sample, near in taps:
        held[o] = sample, near
        while turn in held:
            yield held.pop(turn)
            turn += 1


def _is_ridge(img: np.ndarray, taps, xs, ys, theta, half: int) -> np.ndarray:
    """Ridge mask: the mean of the along-ridge samples ``taps``, in order, is below the straight orthogonal
    mean; a mean that kept no tap is NaN, which compares false, so its pixel is a valley."""
    g = _tap_mean(taps, np.shape(xs))
    across = _taps(img, _line_path, None, xs, ys, theta + math.pi / 2.0, half, False)
    m = _tap_mean((v for _, v, _ in across), np.shape(xs))
    return g < m - _TIE_EPS


def _bands(image: GrayImage, flow: FlowField, half: int):
    """(rows, sites, xs, ys, theta) of each row band: the table of the site rows its paths reach in ``half`` steps,
    its pixel centres and their orientations, NaN where none; ValueError first unless ``flow`` is on the grid."""
    check_flow_grid(flow, image.width, image.height)
    for rows in band_rows(image.width, image.height):
        xs, ys = np.meshgrid(np.arange(image.width, dtype=float), np.arange(rows.start, rows.stop, dtype=float))
        sites = _band_sites(flow, rows, half)
        yield rows, sites, xs, ys, angles_at(sites, xs, ys)[0]


def _ridge(img: np.ndarray, path, sites, xs, ys, theta, half: int) -> np.ndarray:
    """Ridge mask along ``path``, each along-ridge tap summed in order as it is sampled."""
    taps = _in_order(_taps(img, path, sites, xs, ys, theta, half, False), half)
    return _is_ridge(img, (v for v, _ in taps), xs, ys, theta, half)


def _binarize_image(image: GrayImage, flow: FlowField, cfg: BinarizeConfig, path) -> BinaryImage:
    """Classify every pixel along ``path``, band by band."""
    half = cfg.line_half_length
    bits = np.empty((image.height, image.width), dtype=np.uint8)
    for rows, sites, X, Y, theta in _bands(image, flow, half):
        bits[rows] = ~_ridge(image.pixels, path, sites, X, Y, theta, half)
    return BinaryImage._of_bits(bits)


def binarize_image(image: GrayImage, flow: FlowField, cfg: BinarizeConfig = BinarizeConfig()) -> BinaryImage:
    """Per-pixel classification with orientations interpolated from ``flow``.

    Pixels with no defined orientation are classified as valley (1).
    """
    return _binarize_image(image, flow, cfg, _line_path)
