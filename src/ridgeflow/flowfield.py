"""Subsampled grids of pi-periodic orientation angles with a validity mask."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .image import _check_sizes


@dataclass(frozen=True, eq=False)
class FlowField:
    """Orientation samples on the stride grid of a source image.

    Site (ix, iy) sits at pixel ``(ix, iy) * stride``.
    Angles are radians in [0, pi); invalid sites store angle 0 and valid=False.
    ``coherence`` is an optional per-site confidence in [0, 1].
    The arrays are read-only, and a flow caches no lookup table.
    """

    angles: np.ndarray
    valid: np.ndarray
    stride: int
    coherence: np.ndarray | None = None

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=np.float64)
        val = np.asarray(self.valid, dtype=bool)
        if ang.ndim != 2 or ang.shape != val.shape:
            raise ValueError("angles and valid must be 2-D arrays of equal shape")
        _check_stride(self.stride, max(ang.shape))
        if np.any(val & ~((ang >= 0.0) & (ang < math.pi))):
            raise ValueError("valid angles must be finite and lie in [0, pi)")
        ang = np.where(val, ang, 0.0)
        ang.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "valid", val)
        if self.coherence is not None:
            coh = np.asarray(self.coherence, dtype=np.float64)
            if coh.shape != ang.shape:
                raise ValueError("coherence must match the grid shape")
            if not np.all((coh >= 0.0) & (coh <= 1.0)):
                raise ValueError("coherence must be finite and lie in [0, 1]")
            coh.setflags(write=False)
            object.__setattr__(self, "coherence", coh)

    @property
    def grid_width(self) -> int:
        return self.angles.shape[1]

    @property
    def grid_height(self) -> int:
        return self.angles.shape[0]

    def site_xs(self) -> np.ndarray:
        return np.arange(self.grid_width) * self.stride

    def site_ys(self) -> np.ndarray:
        return np.arange(self.grid_height) * self.stride


def _check_stride(stride, sites: int = 2) -> None:
    """ValueError unless ``stride`` is an integer >= 1 and a row of ``sites`` sites (two at least, so the stride
    itself counts) ends within int64, numpy's type for the grid's coordinates."""
    _check_sizes(1, "stride must be >= 1", stride=stride)
    if max(sites - 1, 1) * int(stride) > np.iinfo(np.int64).max:
        raise ValueError(f"stride {stride} puts grid sites past the int64 range")


def _grid_sites(width: int, height: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel columns and rows of the stride grid of a width x height image: every ``stride`` pixels from 0."""
    return np.arange(0, width, stride), np.arange(0, height, stride)


def check_flow_grid(flow: FlowField, width: int, height: int) -> None:
    """Raise ValueError unless ``flow`` has the stride grid of a width x height image."""
    xs, ys = _grid_sites(width, height, flow.stride)
    if flow.angles.shape != (ys.size, xs.size):
        raise ValueError(
            f"flow grid {flow.grid_width}x{flow.grid_height} (stride {flow.stride}) does not match "
            f"image {width}x{height}, which needs a {xs.size}x{ys.size} grid"
        )


def angular_distance(a, b):
    """Distance between pi-periodic orientations, in [0, pi/2]."""
    d = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) % math.pi
    return np.minimum(d, math.pi - d)


# The table ``angles_at`` reads: (valid, cos 2t, sin 2t) of a run of site rows, each flat float64, padded by
# two invalid sites on either side of each row and two invalid rows above and below the run, so a corner's
# validity is a weight factor. Grid row ``top`` is its first row, ``bottom`` the last upper-left corner row.
_SiteRows = namedtuple("_SiteRows", "stride width top bottom valid cos2 sin2")


def _site_rows(flow: FlowField, first, stop) -> _SiteRows:
    """The table of site rows ``first`` .. ``stop`` - 1, clipped to the grid: 0.39 MiB for all of 128x128."""
    gh, gw = flow.angles.shape
    a = int(min(max(first, 0), gh))
    b = int(min(max(stop, a), gh))
    table = np.zeros((3, b - a + 4, gw + 4))
    doubled = 2.0 * flow.angles[a:b]
    table[0, 2:-2, 2:-2] = flow.valid[a:b]
    table[1, 2:-2, 2:-2] = np.cos(doubled)
    table[2, 2:-2, 2:-2] = np.sin(doubled)
    return _SiteRows(flow.stride, gw, a - 2, b, *table.reshape(3, -1))


def _band_sites(flow: FlowField, rows: slice, half: int) -> _SiteRows:
    """The table of every point within ``half`` + 1 pixels of the pixel rows ``rows``, as far as a tap or a
    contour step reaches from the band: the site rows from the last at or above to the first at or below."""
    s = flow.stride
    return _site_rows(flow, (rows.start - half - 1) // s, -((-rows.stop - half) // s) + 1)


def angles_at(flow: FlowField | _SiteRows, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated orientation at arbitrary pixel positions (vectorized).

    Interpolation runs in the doubled-angle domain: the unit vectors
    (cos 2t, sin 2t) of the four surrounding grid sites are blended with
    bilinear weights renormalized over valid sites, then the angle of the
    blend is halved. Returns (angles, defined): the angle is NaN wherever a
    point has no orientation, by one rule, nx^2 + ny^2 < 1e-12 for the blend
    n, and at every non-finite point; ``defined`` is where it is not NaN.

    The halved angle lies in [-pi/2, pi/2], where ``fmod`` is exact, so its
    value mod pi is the angle plus pi below zero and the angle otherwise; a
    sum that rounds to pi is 0, which gives the bytes of ``mod``.

    Given a flow, the lookup builds the table of the site rows its points
    read; the row band stages pass their band's table (``_band_sites``)
    instead, which gives the same bytes for every point within its rows.
    """
    shape = np.shape(xs)
    # at least 1-D, so the in-place steps below have arrays to write into
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
    with np.errstate(invalid="ignore", divide="ignore"):
        fx = xs / flow.stride
        fy = ys / flow.stride
        x0 = np.floor(fx)
        y0 = np.floor(fy)
        fx -= x0
        fy -= y0
        # the rows the points read, NaN left out
        sites = flow if isinstance(flow, _SiteRows) else _site_rows(
            flow, np.fmin.reduce(y0, None, initial=math.inf), np.fmax.reduce(y0, None, initial=-math.inf) + 2.0)
        _, width, top, bottom, valid, cos2, sin2 = sites
        row = width + 4
        # flat index of the upper-left corner in the padded table; a point off
        # the table (or NaN) lands where all four corners are padding
        np.fmin(np.fmax(x0, -2.0, out=x0), width, out=x0)
        np.fmin(np.fmax(y0, top, out=y0), bottom, out=y0)
        y0 -= top
        y0 *= row
        y0 += x0 + 2.0
        corner = y0.astype(np.intp)
        gx = 1.0 - fx
        gy = 1.0 - fy

        # corners in the order (0, 0), (1, 0), (0, 1), (1, 1); each table is
        # shifted so the corner's offset needs no index arithmetic. Every
        # index is in range, and mode="clip" skips the copy that ``take``
        # makes for ``out`` in its default mode.
        w = np.empty(xs.shape)
        t = np.empty(xs.shape)
        vx = np.zeros(xs.shape)
        vy = np.zeros(xs.shape)
        wsum = np.zeros(xs.shape)
        for off, a, b in ((0, gx, gy), (1, fx, gy), (row, gx, fy), (row + 1, fx, fy)):
            np.multiply(a, b, out=w)
            w *= valid[off:].take(corner, out=t, mode="clip")
            vx += np.multiply(w, cos2[off:].take(corner, out=t, mode="clip"), out=t)
            vy += np.multiply(w, sin2[off:].take(corner, out=t, mode="clip"), out=t)
            wsum += w

        # (nx, ny), in place; NaN where wsum is 0 or NaN, so the norm test is false there
        nx = np.divide(vx, wsum, out=vx)
        ny = np.divide(vy, wsum, out=vy)
        r2 = np.multiply(nx, nx, out=w)
        r2 += np.multiply(ny, ny, out=t)
        defined = r2 >= 1e-12
        theta = np.arctan2(ny, nx, out=t)
        theta *= 0.5
        # mod(theta, pi); -0.0 and angles a hair below zero give pi, which is 0. Adding 0.0 elsewhere is exact.
        theta += np.multiply(np.signbit(theta), math.pi, out=w)
        np.copyto(theta, 0.0, where=theta >= math.pi)
        np.copyto(theta, math.nan, where=~defined)
    return theta.reshape(shape), defined.reshape(shape)


def interior_site_mask(flow: FlowField, width: int, height: int, margin: float) -> np.ndarray:
    """Sites at least ``margin`` pixels away from every raster border."""
    xs = flow.site_xs()
    ys = flow.site_ys()
    okx = (xs >= margin) & (xs <= width - 1 - margin)
    oky = (ys >= margin) & (ys <= height - 1 - margin)
    return oky[:, None] & okx[None, :]


# ---------------------------------------------------------------------------
# CSV serialization: header x,y,theta_radians,valid[,coherence]; one row per
# site in row-major order, 6 decimal places for real values.


def save_flow_csv(flow: FlowField, path) -> None:
    """Write ``flow`` as CSV, one grid row at a time to the open file."""
    cols = "x,y,theta_radians,valid"
    if flow.coherence is not None:
        cols += ",coherence"
    # An angle a hair below pi prints as 3.141593, which reads back as >= pi
    # and fails validation; it is written as the same orientation, 0.
    pi_text = f"{math.pi:.6f}"
    # plain Python values: formatting numpy scalars one by one is slow
    xs = [f"{x:g}," for x in flow.site_xs().tolist()]
    with Path(path).open("w", encoding="ascii") as f:
        f.write(cols + "\n")
        for iy, y in enumerate(flow.site_ys().tolist()):
            angles = [f"{a:.6f}" for a in flow.angles[iy].tolist()]
            rows = [f"{x}{y:g},{'0.000000' if a == pi_text else a},{int(v)}"
                    for x, a, v in zip(xs, angles, flow.valid[iy].tolist())]
            if flow.coherence is not None:
                rows = [f"{r},{c:.6f}" for r, c in zip(rows, flow.coherence[iy].tolist())]
            f.write("\n".join(rows) + "\n")


def load_flow_csv(path) -> FlowField:
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty flow CSV")
    header = lines[0].split(",")
    if header[:4] != ["x", "y", "theta_radians", "valid"]:
        raise ValueError(f"{path}: unexpected flow CSV header {lines[0]!r}")
    has_coh = len(header) >= 5 and header[4] == "coherence"
    rows, linenos = [], []  # rows of (x, y, theta, valid, coherence), and the line each came from
    n_fields = 5 if has_coh else 4
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        parts = ln.split(",")
        try:
            if len(parts) < n_fields:
                raise ValueError(f"expected {n_fields} fields")
            x, y, theta, v = float(parts[0]), float(parts[1]), float(parts[2]), int(parts[3])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("site coordinates must be finite")
            if v not in (0, 1):
                raise ValueError(f"valid must be 0 or 1, not {v}")
            coh = float(parts[4]) if has_coh else 0.0
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: malformed row {ln!r} ({err})") from None
        rows.append((x, y, theta, v, coh))
        linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no sites")
    xs, ys, thetas, valids, cohs = np.array(rows, dtype=np.float64).T
    # Python floats, whose difference past the float64 range is inf without a warning
    ux, uy = np.unique(xs).tolist(), np.unique(ys).tolist()
    gw, gh = len(ux), len(uy)
    if gw * gh != len(rows):
        raise ValueError(f"{path}: sites do not form a complete grid")
    if gw > 1:
        stride = ux[1] - ux[0]
    elif gh > 1:
        stride = uy[1] - uy[0]
    else:
        stride = 1.0
    if not (math.isfinite(stride) and abs(stride - round(stride)) <= 1e-9) or round(stride) < 1:
        raise ValueError(f"{path}: non-integer grid stride {stride}")
    stride = int(round(stride))
    # row i must be site (i % gw, i // gw) * stride, in float64 like the sites read, so no stride overflows
    i = np.arange(len(rows))
    ex = (i % gw) * float(stride)
    ey = (i // gw) * float(stride)
    off = np.flatnonzero((np.abs(xs - ex) > 1e-6) | (np.abs(ys - ey) > 1e-6))
    if off.size:
        j = off[0]
        raise ValueError(
            f"{path}:{linenos[j]}: site ({xs[j]:g}, {ys[j]:g}) should be ({ex[j]:g}, {ey[j]:g}); rows must "
            f"list the grid from (0, 0) with stride {stride} in row-major order"
        )
    angles = thetas.reshape(gh, gw)
    valid = valids.reshape(gh, gw).astype(bool)
    coherence = cohs.reshape(gh, gw).copy() if has_coh else None  # not a view that keeps the whole table
    try:
        return FlowField(angles, valid, stride, coherence)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
