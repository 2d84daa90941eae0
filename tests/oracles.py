"""Independent helpers shared by the test modules.

These deliberately re-derive values with plain loops/formulas rather than
calling back into the code paths they check.
"""

from __future__ import annotations

import math

import numpy as np

import ridgeflow as rf
from ridgeflow.image import rotate_raster
from ridgeflow.projection import _STAT_OFFSET

INTERIOR_MARGIN = 16  # tangent + perpendicular half lengths at defaults


def manual_bilinear(arr: np.ndarray, x: float, y: float) -> float:
    """Plain-python bilinear sample; NaN outside the raster."""
    h, w = arr.shape
    if x < 0 or x > w - 1 or y < 0 or y > h - 1:
        return float("nan")
    x0 = min(int(math.floor(x)), w - 1)
    y0 = min(int(math.floor(y)), h - 1)
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    return float(
        arr[y0, x0] * (1 - fx) * (1 - fy)
        + arr[y0, x1] * fx * (1 - fy)
        + arr[y1, x0] * (1 - fx) * fy
        + arr[y1, x1] * fx * fy
    )


def reference_bilinear_many(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``image.bilinear_many`` as it was before its in-place rewrite: np.clip, fresh temporaries.

    Finite coordinates only; a NaN coordinate makes an invalid index here.
    """
    eps = 1e-9
    h, w = values.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = (xs >= -eps) & (xs <= w - 1.0 + eps) & (ys >= -eps) & (ys <= h - 1.0 + eps)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    fx = np.floor(xc)
    fy = np.floor(yc)
    x0 = fx.astype(np.intp)
    y0 = fy.astype(np.intp)
    fx = xc - fx
    fy = yc - fy
    gx = 1.0 - fx
    gy = 1.0 - fy
    dx = (x0 < w - 1).astype(np.intp)
    dy = (y0 < h - 1) * w
    corner = y0 * w + x0
    flat = values.ravel()
    v = flat.take(corner) * gx * gy
    v += flat.take(corner + dx) * fx * gy
    corner += dy
    v += flat.take(corner) * gx * fy
    corner += dx
    v += flat.take(corner) * fx * fy
    return np.where(inside, v, np.nan)


def reference_angles_at(flow: rf.FlowField, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """``flowfield.angles_at`` as it was before the site table: per corner a
    bounds test, clipped 2-D indexing and cos/sin of the doubled site angle.

    A non-finite point casts to an arbitrary index whose corners fail the
    bounds test; numpy warns about that cast and the infinite weights.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    gx = (xs - flow.origin[0]) / flow.stride
    gy = (ys - flow.origin[1]) / flow.stride
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    fx = gx - x0
    fy = gy - y0

    gw, gh = flow.grid_width, flow.grid_height
    vx = np.zeros(xs.shape, dtype=np.float64)
    vy = np.zeros(xs.shape, dtype=np.float64)
    wsum = np.zeros(xs.shape, dtype=np.float64)
    for ddx, ddy, wgt in (
        (0, 0, (1.0 - fx) * (1.0 - fy)),
        (1, 0, fx * (1.0 - fy)),
        (0, 1, (1.0 - fx) * fy),
        (1, 1, fx * fy),
    ):
        cx = x0 + ddx
        cy = y0 + ddy
        ok = (cx >= 0) & (cx < gw) & (cy >= 0) & (cy < gh)
        cxc = np.clip(cx, 0, gw - 1)
        cyc = np.clip(cy, 0, gh - 1)
        ok &= flow.valid[cyc, cxc]
        w = np.where(ok, wgt, 0.0)
        doubled = 2.0 * flow.angles[cyc, cxc]
        vx += w * np.cos(doubled)
        vy += w * np.sin(doubled)
        wsum += w

    with np.errstate(invalid="ignore", divide="ignore"):
        nx = vx / wsum
        ny = vy / wsum
    defined = (wsum > 0.0) & (np.hypot(np.where(wsum > 0, nx, 0.0), np.where(wsum > 0, ny, 0.0)) >= 1e-6)
    theta = np.where(defined, 0.5 * np.arctan2(np.where(defined, ny, 0.0), np.where(defined, nx, 1.0)), 0.0)
    theta = np.where(defined, np.mod(theta, math.pi), 0.0)
    theta = np.where(theta >= math.pi, 0.0, theta)
    return theta, defined


def two_pass_std(vals) -> float:
    vals = np.asarray([v for v in vals if not math.isnan(v)], dtype=np.float64)
    if vals.size < 2:
        return float("nan")
    m = vals.mean()
    return float(math.sqrt(((vals - m) ** 2).mean()))


def parallel_spec(orientation: float, noise: float = 0.0, seed: int = 0, size: int = 128, **kw) -> rf.SyntheticSpec:
    return rf.SyntheticSpec(
        width=size, height=size, pattern="parallel", orientation=orientation,
        period=8.0, noise_sigma=noise, rng_seed=seed, **kw,
    )


def suite_specs(noise: float = 0.0, size: int = 128) -> list[rf.SyntheticSpec]:
    """16-orientation suite at k*pi/16, seeds tied to k."""
    return [parallel_spec(k * math.pi / 16, noise=noise, seed=1000 + k, size=size) for k in range(16)]


def flow_mae(flow: rf.FlowField, truth: rf.FlowField, width: int, height: int,
             margin: float = INTERIOR_MARGIN, extra_mask=None) -> float:
    sel = flow.valid & truth.valid & rf.interior_site_mask(flow, width, height, margin)
    if extra_mask is not None:
        sel &= extra_mask
    return float(rf.angular_distance(flow.angles[sel], truth.angles[sel]).mean())


def inner_pixel_mask(height: int, width: int, margin: int = INTERIOR_MARGIN) -> np.ndarray:
    m = np.zeros((height, width), dtype=bool)
    m[margin:-margin, margin:-margin] = True
    return m


def _prefix_span_deviation(n: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    nf = np.maximum(n, 1)
    mean = s1 / nf
    var = s2 / nf - mean * mean
    var = np.where(var < 1e-9, 0.0, var)
    return np.where(n >= 2, np.sqrt(var), np.nan)


class PerSitePrefixEvaluator:
    """Per-site prefix-sum evaluator, the reference for the dense-map fast path.

    Same rotation as ``RotatedDeviationEvaluator``, but every site makes its
    own 2t+1 column lookups, each taking up to three span statistics from the
    column prefix sums of counts, values and squared values.
    """

    def __init__(self, image: rf.GrayImage, cfg: rf.FlowConfig):
        self._img = image.as_float()
        self._cfg = cfg

    def mean_deviation(self, alpha: float, xs, ys) -> np.ndarray:
        cfg = self._cfg
        rr = rotate_raster(self._img, float(alpha), (_STAT_OFFSET, _STAT_OFFSET))
        h, w = rr.values.shape
        v = np.where(rr.valid, rr.values, 0.0)
        pn = np.zeros((h + 1, w))
        p1 = np.zeros((h + 1, w))
        p2 = np.zeros((h + 1, w))
        pn[1:] = np.cumsum(rr.valid, axis=0)
        p1[1:] = np.cumsum(v, axis=0)
        p2[1:] = np.cumsum(v * v, axis=0)

        def span_deviation(cols, y0, y1):
            a = np.clip(y0, 0, h)
            b = np.maximum(np.clip(y1 + 1, 0, h), a)
            return _prefix_span_deviation(pn[b, cols] - pn[a, cols], p1[b, cols] - p1[a, cols], p2[b, cols] - p2[a, cols])

        rx, ry = rr.to_rotated(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
        cx = np.floor(rx + 0.5).astype(np.int64)
        cy = np.floor(ry + 0.5).astype(np.int64)
        t = cfg.tangent_half_length
        s = cfg.perp_half_length
        sig_sum = np.zeros(cx.shape)
        sig_cnt = np.zeros(cx.shape, dtype=np.int64)
        for i in range(-t, t + 1):
            col = cx + i
            col_ok = (col >= 0) & (col < w)
            colc = np.clip(col, 0, w - 1)
            sig = span_deviation(colc, cy - s, cy + s)
            if cfg.use_half_line_rule:
                stacked = np.stack([sig, span_deviation(colc, cy - s, cy), span_deviation(colc, cy, cy + s)])
                all_nan = np.isnan(stacked).all(axis=0)
                sig = np.nanmin(np.where(np.isnan(stacked), np.inf, stacked), axis=0)
                sig = np.where(all_nan, np.nan, sig)
            ok = col_ok & ~np.isnan(sig)
            sig_sum += np.where(ok, sig, 0.0)
            sig_cnt += ok
        return np.where(sig_cnt > 0, sig_sum / np.maximum(sig_cnt, 1), np.nan)
