"""Subsampled grids of pi-periodic orientation angles with a validity mask."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .image import Point


@dataclass(eq=False)
class FlowField:
    """Orientation samples on the stride grid of a source image.

    Site (ix, iy) sits at pixel ``(ix, iy) * stride``.
    Angles are radians in [0, pi); invalid sites store angle 0 and valid=False.
    ``coherence`` is an optional per-site confidence in [0, 1].
    """

    angles: np.ndarray
    valid: np.ndarray
    stride: int
    coherence: np.ndarray | None = None
    # the site table of ``angles_at``, built on its first call
    _sites: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=np.float64)
        val = np.asarray(self.valid, dtype=bool)
        if ang.ndim != 2 or ang.shape != val.shape:
            raise ValueError("angles and valid must be 2-D arrays of equal shape")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if np.any(val & ~((ang >= 0.0) & (ang < math.pi))):
            raise ValueError("valid angles must be finite and lie in [0, pi)")
        ang = np.where(val, ang, 0.0)
        ang.setflags(write=False)
        val.setflags(write=False)
        self.angles = ang
        self.valid = val
        if self.coherence is not None:
            coh = np.asarray(self.coherence, dtype=np.float64)
            if coh.shape != ang.shape:
                raise ValueError("coherence must match the grid shape")
            if not np.all((coh >= 0.0) & (coh <= 1.0)):
                raise ValueError("coherence must be finite and lie in [0, 1]")
            coh.setflags(write=False)
            self.coherence = coh

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


def _site_table(flow: FlowField) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(row length, valid, cos 2t, sin 2t) of the sites, built once per flow.

    The grid is padded by two invalid sites on each side and each table is
    flat float64, so a corner's validity is a weight factor. At 256x256 with
    stride 2 the three tables take 0.39 MiB.
    """
    if flow._sites is None:
        gh, gw = flow.angles.shape
        valid = np.zeros((gh + 4, gw + 4))
        cos2 = np.zeros_like(valid)
        sin2 = np.zeros_like(valid)
        doubled = 2.0 * flow.angles
        valid[2:-2, 2:-2] = flow.valid
        cos2[2:-2, 2:-2] = np.cos(doubled)
        sin2[2:-2, 2:-2] = np.sin(doubled)
        flow._sites = (gw + 4, valid.ravel(), cos2.ravel(), sin2.ravel())
    return flow._sites


def angles_at(flow: FlowField, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated orientation at arbitrary pixel positions (vectorized).

    Interpolation runs in the doubled-angle domain: the unit vectors
    (cos 2t, sin 2t) of the four surrounding grid sites are blended with
    bilinear weights renormalized over valid sites, then the angle of the
    blend is halved. Returns (angles, defined); angle is 0 where undefined,
    which includes every non-finite point.

    The blend n is defined where |n| >= 1e-6, tested as nx^2 + ny^2 >= 1e-12;
    where the squared norm is within rounding of 1e-12, ``hypot`` decides.
    The halved angle lies in [-pi/2, pi/2], where ``fmod`` is exact, so its
    value mod pi is the angle plus pi below zero and the angle otherwise; a
    sum that rounds to pi is 0. Both give the bytes of the ``hypot`` and
    ``mod`` they replace.
    """
    row, valid, cos2, sin2 = _site_table(flow)
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
        # flat index of the upper-left corner in the padded table; a point off
        # the grid (or NaN) lands where all four corners are padding
        np.fmin(np.fmax(x0, -2.0, out=x0), flow.grid_width, out=x0)
        np.fmin(np.fmax(y0, -2.0, out=y0), flow.grid_height, out=y0)
        y0 += 2.0
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

        # (nx, ny), in place; NaN where wsum is 0 or NaN, so every test below is false there
        nx = np.divide(vx, wsum, out=vx)
        ny = np.divide(vy, wsum, out=vy)
        # rounding can put the squared norm on the other side of 1e-12 from
        # hypot, so hypot decides near it; subtracting 1e-12 keeps the sign exact
        r2 = np.multiply(nx, nx, out=w)
        r2 += np.multiply(ny, ny, out=t)
        r2 -= 1e-12
        defined = r2 >= 0.0
        near = np.abs(r2, out=r2) <= 1e-21
        if near.any():
            defined[near] = np.hypot(nx[near], ny[near]) >= 1e-6
        theta = np.arctan2(ny, nx, out=t)
        theta *= 0.5
        # mod(theta, pi); -0.0 and angles a hair below zero give pi, which is 0
        np.add(theta, math.pi, out=theta, where=np.signbit(theta))
        np.copyto(theta, 0.0, where=~defined | (theta >= math.pi))
    return theta.reshape(shape), defined.reshape(shape)


def angle_at(flow: FlowField, p: Point) -> float | None:
    """Interpolated orientation at a single point, or None where undefined."""
    theta, ok = angles_at(flow, np.array([p[0]]), np.array([p[1]]))
    return float(theta[0]) if bool(ok[0]) else None


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
    cols = "x,y,theta_radians,valid"
    if flow.coherence is not None:
        cols += ",coherence"
    lines = [cols]
    # An angle a hair below pi prints as 3.141593, which reads back as >= pi
    # and fails validation; it is written as the same orientation, 0.
    angles = flow.angles.copy()
    flat = angles.reshape(-1)
    for i in np.flatnonzero(flat > math.pi - 1e-6):
        if float(f"{flat[i]:.6f}") >= math.pi:
            flat[i] = 0.0
    # plain Python values: formatting numpy scalars one by one is slow
    xs = [f"{x:g}," for x in flow.site_xs().tolist()]
    for iy, y in enumerate(flow.site_ys().tolist()):
        head = [f"{x}{y:g}," for x in xs]
        rows = [f"{h}{a:.6f},{int(v)}" for h, a, v in zip(head, angles[iy].tolist(), flow.valid[iy].tolist())]
        if flow.coherence is not None:
            rows = [f"{r},{c:.6f}" for r, c in zip(rows, flow.coherence[iy].tolist())]
        lines += rows
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_flow_csv(path) -> FlowField:
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty flow CSV")
    header = lines[0].split(",")
    if header[:4] != ["x", "y", "theta_radians", "valid"]:
        raise ValueError(f"{path}: unexpected flow CSV header {lines[0]!r}")
    has_coh = len(header) >= 5 and header[4] == "coherence"
    xs, ys, thetas, valids, cohs, linenos = [], [], [], [], [], []
    n_fields = 5 if has_coh else 4
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        linenos.append(lineno)
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
        xs.append(x)
        ys.append(y)
        thetas.append(theta)
        valids.append(v)
        cohs.append(coh)
    if not xs:
        raise ValueError(f"{path}: no sites")
    ux = np.unique(np.asarray(xs))
    uy = np.unique(np.asarray(ys))
    gw, gh = len(ux), len(uy)
    if gw * gh != len(xs):
        raise ValueError(f"{path}: sites do not form a complete grid")
    if gw > 1:
        stride = ux[1] - ux[0]
    elif gh > 1:
        stride = uy[1] - uy[0]
    else:
        stride = 1.0
    if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
        raise ValueError(f"{path}: non-integer grid stride {stride}")
    stride = int(round(stride))
    # row i must be site (i % gw, i // gw) * stride
    i = np.arange(len(xs))
    ex = (i % gw) * stride
    ey = (i // gw) * stride
    off = np.flatnonzero((np.abs(np.asarray(xs) - ex) > 1e-6) | (np.abs(np.asarray(ys) - ey) > 1e-6))
    if off.size:
        j = off[0]
        raise ValueError(
            f"{path}:{linenos[j]}: site ({xs[j]:g}, {ys[j]:g}) should be ({ex[j]:g}, {ey[j]:g}); rows must "
            f"list the grid from (0, 0) with stride {stride} in row-major order"
        )
    angles = np.asarray(thetas, dtype=np.float64).reshape(gh, gw)
    valid = np.asarray(valids, dtype=int).reshape(gh, gw).astype(bool)
    coherence = np.asarray(cohs, dtype=np.float64).reshape(gh, gw) if has_coh else None
    try:
        return FlowField(angles, valid, stride, coherence)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
