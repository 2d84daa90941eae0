"""Grayscale/binary raster types, PGM I/O, sub-pixel sampling and rotation.

Images are stored as 8-bit rasters and promoted to float64 while filtering;
results are rounded half-up and clamped back to [0, 255] on output.
Coordinates: x grows right, y grows down, origin at the top-left pixel
center. Angles are measured from +x toward +y and are pi-periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np


class PgmFormatError(ValueError):
    """Raised for streams that are not binary PGM (P5) with maxval 255."""


class Point(NamedTuple):
    x: float
    y: float


@dataclass(eq=False)
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
        self.pixels = px

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
        """Round half-up and clamp real intensities into an 8-bit raster."""
        v = np.floor(np.asarray(values, dtype=np.float64) + 0.5)
        return cls(np.clip(v, 0.0, 255.0).astype(np.int64))


@dataclass(eq=False)
class BinaryImage:
    """Dense 1-bit raster; bit 0 marks ridge (dark), 1 valley/background."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError("bits must be a 2-D array with positive dimensions")
        if not np.issubdtype(b.dtype, np.integer) and b.dtype != np.bool_:
            raise ValueError("bits must be integer or boolean")
        b = b.astype(np.uint8)
        if b.max(initial=0) > 1:
            raise ValueError("bits must be 0 or 1")
        b.setflags(write=False)
        self.bits = b

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]


def binary_as_gray(binary: BinaryImage) -> GrayImage:
    """Viewable rendering of a binary raster: ridge 0 -> black, valley 1 -> white."""
    return GrayImage(binary.bits.astype(np.int64) * 255)


def invert(image: GrayImage) -> GrayImage:
    return GrayImage(255 - image.pixels.astype(np.int64))


# ---------------------------------------------------------------------------
# PGM (binary P5) I/O


def load_pgm(path) -> GrayImage:
    """Read a binary PGM (P5, maxval 255) file without any value scaling."""
    path = Path(path)
    raw = path.read_bytes()
    pos = 0

    def skip_separators():
        nonlocal pos
        while pos < len(raw):
            c = raw[pos]
            if c in b" \t\r\n":
                pos += 1
            elif c == ord("#"):
                while pos < len(raw) and raw[pos] != ord("\n"):
                    pos += 1
            else:
                break

    def read_token(what: str) -> tuple[bytes, int]:
        nonlocal pos
        skip_separators()
        start = pos
        while pos < len(raw) and raw[pos] not in b" \t\r\n":
            pos += 1
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
    px = np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos).reshape(height, width)
    return GrayImage(px.astype(np.int64))


def save_pgm(image: GrayImage, path) -> None:
    """Write a binary PGM (P5, maxval 255) file, bit-exact row-major payload."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


# ---------------------------------------------------------------------------
# Sub-pixel sampling and rotation


def bilinear_many(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear samples of a float raster; NaN where a needed pixel is outside.

    Coordinates within 1e-9 of the raster edge count as inside, so exact
    boundary samples survive the rounding noise of rotation transforms;
    non-finite coordinates are outside. The four corners are read with flat
    ``take`` indices, which is faster than 2-D fancy indexing, and every
    temporary is reused in place; the weighted sum keeps one fixed order.
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
    # flat index of (y0, x0); the right and lower neighbours clamp at the edge
    dx = x0 < w - 1.0
    dy = y0 < h - 1.0
    y0 *= w
    y0 += x0
    corner = y0.astype(np.intp)
    flat = np.asarray(values, dtype=np.float64).ravel()
    # The corner positions are spent, so their buffers take the terms. The
    # index walks (x0, y0), (x0+1, y0), (x0, y0+1), (x0+1, y0+1) in place;
    # every index is in range, and mode="clip" skips the copy that ``take``
    # makes for ``out`` in its default mode.
    v = flat.take(corner, out=x0, mode="clip")
    v *= gx
    v *= gy
    t = y0
    corner += dx
    flat.take(corner, out=t, mode="clip")
    t *= fx
    t *= gy
    v += t
    np.add(corner, w, out=corner, where=dy)
    corner -= dx
    flat.take(corner, out=t, mode="clip")
    t *= gx
    t *= fy
    v += t
    corner += dx
    flat.take(corner, out=t, mode="clip")
    t *= fx
    t *= fy
    v += t
    np.copyto(v, np.nan, where=outside)
    return v.reshape(shape)


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


def row_bands(width: int, height: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Whole-row bands of about ``BAND_PIXELS`` pixels (at least one row each).

    Yields (rows, xs, ys): the band's row slice and the float64 pixel-center
    coordinates of its pixels, shaped (band rows, width).
    """
    for rows in band_rows(width, height):
        xs, ys = np.meshgrid(
            np.arange(width, dtype=np.float64), np.arange(rows.start, rows.stop, dtype=np.float64)
        )
        yield rows, xs, ys


def sample_bilinear(image: GrayImage, p: Point) -> float | None:
    """Bilinear intensity at ``p``; None when the sample needs out-of-raster pixels."""
    v = bilinear_many(image.as_float(), np.array([p[0]]), np.array([p[1]]))[0]
    return None if math.isnan(v) else float(v)


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
        """The frame of rotating a raster of ``shape`` (rows, columns) by -angle."""
        h, w = shape
        c = abs(math.cos(angle))
        s = abs(math.sin(angle))
        out_w = max(1, math.ceil(w * c + h * s - 1e-9))
        out_h = max(1, math.ceil(w * s + h * c - 1e-9))
        return cls(angle, ((w - 1) / 2.0, (h - 1) / 2.0), ((out_w - 1) / 2.0, (out_h - 1) / 2.0),
                   source_offset, (out_h, out_w))

    def to_rotated(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map source coordinates onto the whole canvas."""
        c = math.cos(self.angle)
        s = math.sin(self.angle)
        dx = np.asarray(xs, dtype=np.float64) - self.src_center[0] - self.source_offset[0]
        dy = np.asarray(ys, dtype=np.float64) - self.src_center[1] - self.source_offset[1]
        return self.dst_center[0] + c * dx + s * dy, self.dst_center[1] - s * dx + c * dy


@dataclass(eq=False)
class RotatedRaster:
    """A window of an image resampled so source lines at the frame's angle run along rows.

    ``values[i, j]`` is canvas pixel (row ``origin[0] + i``, column
    ``origin[1] + j``) of ``frame``.
    """

    values: np.ndarray  # float64, 0.0 where invalid
    valid: np.ndarray  # bool, False where mapped from outside the source
    frame: RotationFrame
    origin: tuple[int, int]


def rotate_raster(
    values: np.ndarray,
    angle: float,
    source_offset: tuple[float, float] = (0.0, 0.0),
    window: tuple[slice, slice] | None = None,
) -> RotatedRaster:
    """Rotate a float raster about its center by -angle (bilinear resampling).

    The canvas covers the rotated bounding box; pixels that map from
    outside the source are flagged invalid and set to 0. ``window``, a
    (rows, columns) pair of slices of the canvas, clipped to it, limits the
    output to that part; every pixel comes out as in the whole canvas.
    ``source_offset`` shifts every source sample position by a constant
    amount, letting callers force interpolation even for lattice-preserving
    angles.

    Rows are resampled in bands, so the sampling temporaries stay small.
    Each band samples only the columns whose source position can be in
    bounds on the band's first or last row (and so on any row between),
    widened by a source pixel and a column; the rest stay 0 and invalid,
    and ``bilinear_many`` alone decides validity inside that interval.
    """
    h, w = values.shape
    frame = RotationFrame.of((h, w), angle, source_offset)
    rows, cols = (range(n)[sl] for n, sl in zip(frame.shape, window or (slice(None), slice(None))))
    c = math.cos(angle)
    s = math.sin(angle)
    (scx, scy), (dcx, dcy) = frame.src_center, frame.dst_center
    out = np.zeros((len(rows), len(cols)))
    valid = np.zeros((len(rows), len(cols)), dtype=bool)
    dx = (np.arange(cols.start, cols.stop, dtype=np.float64) - dcx)[None, :]
    for band in band_rows(max(len(cols), 1), len(rows)):
        y0, y1 = rows[band.start], rows[band.stop - 1]
        # each source coordinate, base + k * dx + m * dy, must lie in
        # [-1, size]: per row an interval of dx, and over the band's rows one
        # within the hull of the intervals of its first and last row
        lo, hi = -math.inf, math.inf
        for k, m, base, size in ((c, -s, scx + source_offset[0], w), (s, c, scy + source_offset[1], h)):
            if k != 0.0:
                ends = [(edge - base - m * (y - dcy)) / k for edge in (-1.0, size) for y in (y0, y1)]
                lo = max(lo, min(ends))
                hi = min(hi, max(ends))
        if lo == math.inf or hi == -math.inf:  # a subnormal k: the band's rows miss the source
            continue
        a = max(math.floor(lo + dcx) - 1 - cols.start, 0)
        b = min(math.ceil(hi + dcx) + 2 - cols.start, len(cols))
        if a >= b:
            continue
        dy = (np.arange(y0, y1 + 1, dtype=np.float64) - dcy)[:, None]
        sx = scx + source_offset[0] + c * dx[:, a:b] - s * dy
        sy = scy + source_offset[1] + s * dx[:, a:b] + c * dy
        sampled = bilinear_many(values, sx, sy)
        ok = ~np.isnan(sampled)
        valid[band, a:b] = ok
        np.copyto(out[band, a:b], sampled, where=ok)
    return RotatedRaster(out, valid, frame, (rows.start, cols.start))
