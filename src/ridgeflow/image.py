"""Grayscale/binary raster types, PGM I/O, sub-pixel sampling and rotation.

Images are stored as 8-bit rasters and sampled as bytes: the sampler widens
each gathered pixel to float64 as it weights it, so no float copy of an image
exists. Results are rounded half-up and clamped back to [0, 255] on output,
band by band where a stage makes them in bands.
Coordinates: x grows right, y grows down, origin at the top-left pixel
center. Angles are measured from +x toward +y and are pi-periodic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np


class PgmFormatError(ValueError):
    """Raised for streams that are not binary PGM (P5) with maxval 255."""


class Point(NamedTuple):
    x: float
    y: float


def _check_sizes(least, message: str, **sizes) -> None:
    """ValueError naming a size setting that is a bool or not an integer, Python's or numpy's (a length, stride or
    count of 2.5 or True builds a window, grid or image of no size asked for), and with ``message`` below ``least``."""
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(message)


def _two_sigma_squared(sigma: float, name: str) -> float:
    """The Gaussian's denominator 2 sigma^2; ValueError unless sigma and it are positive."""
    if not sigma > 0:
        raise ValueError(f"{name} must be positive")
    denom = 2.0 * sigma * sigma
    if not denom > 0:
        raise ValueError(f"{name} {sigma:g} is too small: 2 * {name}**2 underflows to 0")
    return denom


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Dense 8-bit grayscale raster; ``pixels`` has shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("pixels must be a 2-D array with positive dimensions")
        if not np.issubdtype(px.dtype, np.integer):
            raise ValueError("pixels must be integer-valued; use GrayImage.from_float")
        if int(px.min()) < 0 or int(px.max()) > 255:
            raise ValueError("intensities must lie in [0, 255]")
        px = px.astype(np.uint8)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def as_float(self) -> np.ndarray:
        return self.pixels.astype(np.float64)

    @classmethod
    def from_float(cls, values: np.ndarray) -> "GrayImage":
        """Round half-up and clamp finite real intensities into an 8-bit raster, in one float buffer."""
        return cls._of_bytes(_round_bytes(values))

    @classmethod
    def _of_bytes(cls, px: np.ndarray) -> "GrayImage":
        """An image of a new 2-D uint8 array that no caller holds: made read-only, neither copied nor scanned."""
        assert px.dtype == np.uint8 and px.ndim == 2 and px.size
        image = cls.__new__(cls)
        px.setflags(write=False)
        object.__setattr__(image, "pixels", px)
        return image


def _round_bytes(values) -> np.ndarray:
    """uint8 of floor(v + 0.5) clamped to [0, 255], elementwise in one float buffer; ValueError if not finite."""
    v = np.add(values, 0.5, dtype=np.float64)
    if not (math.isfinite(v.min(initial=0.0)) and math.isfinite(v.max(initial=0.0))):
        raise ValueError("intensities must be finite")
    return np.clip(np.floor(v, out=v), 0.0, 255.0, out=v).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class BinaryImage:
    """Dense 1-bit raster; bit 0 marks ridge (dark), 1 valley/background."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError("bits must be a 2-D array with positive dimensions")
        if not np.issubdtype(b.dtype, np.integer) and b.dtype != np.bool_:
            raise ValueError("bits must be integer or boolean")
        if int(b.min()) < 0 or int(b.max()) > 1:
            raise ValueError("bits must be 0 or 1")
        b = b.astype(np.uint8)
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @classmethod
    def _of_bits(cls, bits: np.ndarray) -> "BinaryImage":
        """An image of a new 2-D uint8 array of 0s and 1s that no caller holds, as ``GrayImage._of_bytes``."""
        assert bits.dtype == np.uint8 and bits.ndim == 2 and bits.size
        binary = cls.__new__(cls)
        bits.setflags(write=False)
        object.__setattr__(binary, "bits", bits)
        return binary

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]


def binary_as_gray(binary: BinaryImage) -> GrayImage:
    """Viewable rendering of a binary raster: ridge 0 -> black, valley 1 -> white."""
    return GrayImage._of_bytes(binary.bits * np.uint8(255))


def invert(image: GrayImage) -> GrayImage:
    return GrayImage._of_bytes(np.uint8(255) - image.pixels)


# ---------------------------------------------------------------------------
# PGM (binary P5) I/O


# a PGM header's separators (whitespace, and comments from "#" to the end of the line) and its tokens
_PGM_SEPARATORS = re.compile(rb"(?:[ \t\r\n]|#[^\n]*)*")
_PGM_TOKEN = re.compile(rb"[^ \t\r\n]*")


def load_pgm(path) -> GrayImage:
    """Read a binary PGM (P5, maxval 255) file without any value scaling."""
    path = Path(path)
    raw = path.read_bytes()
    pos = 0

    def read_token(what: str) -> tuple[bytes, int]:
        nonlocal pos
        start = _PGM_SEPARATORS.match(raw, pos).end()
        pos = _PGM_TOKEN.match(raw, start).end()
        if start == pos:
            raise PgmFormatError(f"{path}: missing {what} at byte {start}")
        return raw[start:pos], start

    def read_int(what: str) -> tuple[int, int]:
        tok, off = read_token(what)
        if not tok.isdigit():
            raise PgmFormatError(f"{path}: malformed {what} {tok[:16]!r} at byte {off}")
        return int(tok), off

    magic, off = read_token("magic number")
    if magic != b"P5":
        raise PgmFormatError(f"{path}: expected binary PGM magic 'P5' at byte {off}, found {magic[:16]!r}")
    width, off_w = read_int("width")
    height, off_h = read_int("height")
    if width < 1 or height < 1:
        raise PgmFormatError(f"{path}: non-positive dimensions {width}x{height} at byte {off_w}")
    maxval, off_m = read_int("maxval")
    if maxval != 255:
        raise PgmFormatError(f"{path}: unsupported maxval {maxval} at byte {off_m} (only 255 is supported)")
    if pos >= len(raw) or raw[pos] not in b" \t\r\n":
        raise PgmFormatError(f"{path}: missing whitespace after maxval at byte {pos}")
    pos += 1
    need = width * height
    if len(raw) - pos < need:
        raise PgmFormatError(
            f"{path}: truncated pixel data at byte {len(raw)} (need {need} bytes from byte {pos})"
        )
    return GrayImage._of_bytes(np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos).reshape(height, width))


def save_pgm(image: GrayImage, path) -> None:
    """Write a binary PGM (P5, maxval 255) file, bit-exact row-major payload."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


# ---------------------------------------------------------------------------
# Sub-pixel sampling and rotation


def bilinear_many(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear float64 samples of a finite uint8 or real raster; NaN where a needed pixel is outside.

    Coordinates within 1e-9 of the raster edge count as inside, so exact
    boundary samples survive the rounding noise of rotation transforms;
    non-finite coordinates are outside. Each corner is one flat ``take`` of
    the upper-left corner's index from a view shifted by the corner's offset
    (0, 1, w, w + 1), as ``flowfield.angles_at`` reads its table; every
    temporary is reused in place, and the weighted sum keeps one fixed order.
    The coordinates are clamped to the raster first, so a right or lower
    neighbour past the last column or row has weight exactly 0: the pixel the
    view reads there (the next in flat order, or the last one) adds a zero.
    So the raster must be finite; the sum keeps its value, though a -0.0 may
    become +0.0, as a weight-0 neighbour inside the raster makes it. A uint8
    raster's corners are gathered as bytes and widened exactly, so it gives
    the bytes of its float64 promotion without a copy of it.
    """
    eps = 1e-9
    h, w = values.shape
    shape = np.shape(xs)
    # at least 1-D, so the in-place steps below have arrays to write into
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
    outside = ~((xs >= -eps) & (xs <= w - 1.0 + eps) & (ys >= -eps) & (ys <= h - 1.0 + eps))
    # fmax/fmin map NaN to the edge, so the index cast below stays valid
    fx = np.fmax(xs, 0.0)
    fy = np.fmax(ys, 0.0)
    np.fmin(fx, w - 1.0, out=fx)
    np.fmin(fy, h - 1.0, out=fy)
    x0 = np.floor(fx)
    y0 = np.floor(fy)
    fx -= x0
    fy -= y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    y0 *= w
    y0 += x0
    corner = y0.astype(np.intp)
    flat = values.ravel() if values.dtype == np.uint8 else np.asarray(values, dtype=np.float64).ravel()
    gathered = np.empty(corner.shape, np.uint8) if flat.dtype == np.uint8 else None

    def corners(off: int, out: np.ndarray) -> np.ndarray:
        # a view past the last pixel (a 1-tall raster's w, a 1x1 raster's 1) starts at the last one, which has
        # weight 0 there too; mode="clip" reads past the end as the last pixel and skips the copy that ``take``
        # makes for ``out`` in its default mode
        shifted = flat[min(off, flat.size - 1):]
        if gathered is None:
            return shifted.take(corner, out=out, mode="clip")
        np.copyto(out, shifted.take(corner, out=gathered, mode="clip"))  # cheaper than a mixed-type multiply
        return out

    # the corner positions are spent, so their buffers take the terms
    v = corners(0, x0)
    v *= gx
    v *= gy
    for off, a, b in ((1, fx, gy), (w, gx, fy), (w + 1, fx, fy)):
        t = corners(off, y0)
        t *= a
        t *= b
        v += t
    np.copyto(v, np.nan, where=outside)
    return v.reshape(shape)


def _tap_mean(taps, shape) -> np.ndarray:
    """Mean of the non-NaN tap values, summed one tap at a time in order; NaN where there are none. The taps
    are only read, so a tap table can be read again; every unweighted mean of taps in the stages is this one."""
    n, s = np.zeros(shape, dtype=np.intp), np.zeros(shape)
    for vals in taps:
        use = ~np.isnan(vals)
        n += use
        s += np.where(use, vals, 0.0)
    return np.where(n > 0, s / np.maximum(n, 1), np.nan)


# Pixels per band of the per-pixel stages (binarize, enhance and their
# contour variants) and of ``rotate_raster``. The stages add one tap at a
# time into band-sized sums, so small bands reuse warm memory. Binarize plus
# enhance (concentric image, 2-vCPU VM, median of 9) took 0.153, 0.125 and
# 0.121 s at 256x256 and 0.62, 0.50 and 0.47 s at 512x512 in 4096-, 8192- and
# 16384-pixel bands, peaking at 1.8, 2.6, 4.0 and 5.0, 5.7, 7.2 MiB: 16384
# raises the peak for a gain within the noise. A 512x512 rotation took about
# 15 ms in 8192-pixel bands and 55 ms in one pass.
BAND_PIXELS = 8192


def band_rows(width: int, height: int, pixels: int | None = None) -> Iterator[slice]:
    """Row slices of about ``pixels`` (default ``BAND_PIXELS``) pixels, at least one row each."""
    step = max(1, (pixels or BAND_PIXELS) // width)
    for y0 in range(0, height, step):
        yield slice(y0, min(y0 + step, height))


@dataclass(frozen=True)
class RotationFrame:
    """The canvas of a raster rotated about its center by -angle, and the map onto it.

    ``shape`` is the (rows, columns) of the rotated bounding box. Only
    geometry lives here, so callers can place points on the canvas before
    any pixel is resampled.
    """

    angle: float
    src_center: tuple[float, float]
    dst_center: tuple[float, float]
    source_offset: tuple[float, float]
    shape: tuple[int, int]

    @classmethod
    def of(cls, shape: tuple[int, int], angle: float, source_offset: tuple[float, float]) -> "RotationFrame":
        """The frame of rotating a raster of ``shape`` (rows, columns) by -angle; ValueError unless it is finite."""
        if not math.isfinite(angle):
            raise ValueError(f"rotation angle must be finite, got {angle}")
        h, w = shape
        c = abs(math.cos(angle))
        s = abs(math.sin(angle))
        out_w = max(1, math.ceil(w * c + h * s - 1e-9))
        out_h = max(1, math.ceil(w * s + h * c - 1e-9))
        return cls(angle, ((w - 1) / 2.0, (h - 1) / 2.0), ((out_w - 1) / 2.0, (out_h - 1) / 2.0),
                   source_offset, (out_h, out_w))

    def to_rotated(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map source coordinates onto the whole canvas.

        The terms are formed in place, in the order of
        ``dst_x + c * dx + s * dy`` and ``dst_y - s * dx + c * dy``, so at
        most four coordinate-sized arrays exist at once.
        """
        c, s = math.cos(self.angle), math.sin(self.angle)
        with np.errstate(invalid="ignore"):  # an infinite coordinate maps to inf or NaN (inf * 0, inf - inf)
            dx = np.subtract(xs, self.src_center[0], dtype=np.float64)
            dx -= self.source_offset[0]
            dy = np.subtract(ys, self.src_center[1], dtype=np.float64)
            dy -= self.source_offset[1]
            rx = np.multiply(dx, c)
            rx += self.dst_center[0]
            term = np.multiply(dy, s)
            rx += term
            ry = np.multiply(dx, s, out=dx)
            np.subtract(self.dst_center[1], ry, out=ry)
            ry += np.multiply(dy, c, out=term)
        return rx, ry


@dataclass(eq=False)
class RotatedRaster:
    """A window of an image resampled so source lines at the frame's angle run along rows.

    ``values[i, j]`` is canvas pixel (row ``origin[0] + i``, column
    ``origin[1] + j``) of ``frame``.
    """

    values: np.ndarray  # float64, NaN where mapped from outside the source
    frame: RotationFrame
    origin: tuple[int, int]


def rotate_raster(
    values: np.ndarray,
    angle: float,
    source_offset: tuple[float, float] = (0.0, 0.0),
    window: tuple[slice, slice] | None = None,
) -> RotatedRaster:
    """Rotate a uint8 or real raster about its center by -angle (bilinear resampling) into float64.

    A uint8 raster gives the values of its float64 promotion. The canvas
    covers the rotated bounding box; pixels that map from outside the
    source are NaN. ``window``, a (rows, columns) pair of slices of the
    canvas with integer bounds, which may reach past it, limits the output
    to that part; every pixel comes out as in the whole canvas, and one past
    it is resampled alike. ``source_offset`` shifts every source sample
    position by a constant amount, letting callers force interpolation even
    for lattice-preserving angles.

    Rows are resampled in bands, so the sampling temporaries stay small.
    Each band samples every column of the window, and ``bilinear_many``
    alone decides which samples are NaN.
    """
    h, w = values.shape
    frame = RotationFrame.of((h, w), angle, source_offset)
    rows, cols = (range(sl.start, sl.stop) for sl in window) if window else (range(n) for n in frame.shape)
    c = math.cos(angle)
    s = math.sin(angle)
    (scx, scy), (dcx, dcy) = frame.src_center, frame.dst_center
    out = np.empty((len(rows), len(cols)))
    dx = (np.arange(cols.start, cols.stop, dtype=np.float64) - dcx)[None, :]
    for band in band_rows(max(len(cols), 1), len(rows)):
        dy = (np.arange(rows[band.start], rows[band.stop - 1] + 1, dtype=np.float64) - dcy)[:, None]
        sx = scx + source_offset[0] + c * dx - s * dy
        sy = scy + source_offset[1] + s * dx + c * dy
        out[band] = bilinear_many(values, sx, sy)
    return RotatedRaster(out, frame, (rows.start, cols.start))
