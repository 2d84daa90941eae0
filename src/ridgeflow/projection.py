"""Orientation flow from projection statistics.

For a candidate angle, short perpendicular segments are dropped from every
sample site of the tangent segment and the standard deviation of intensities
along each perpendicular is taken; the dominant orientation is the candidate
with the smallest mean deviation, plus pi/2. Each perpendicular deviation is
the minimum over the full segment and its two halves, which keeps the
statistic meaningful where a ridge ends inside the window.

One evaluator computes the statistic: it rotates the image per candidate
angle so all segments become axis-aligned runs. It reads only the columns
of the canvas its queried sites read, and rotates their rows one band at a
time, each row once, straight into column prefix sums of the rotated values
and squared values; from these it builds the mean-deviation map over only
the rows the sites fall on, and each site is a single lookup into its band
of that map. Per angle it holds one band of rotated rows, prefix sums and
map, never a whole rotated window. The search asks for each distinct
candidate angle once and keeps only each site's running optimum, so no
table of angles by sites exists either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flowfield import FlowField, _grid_sites
from .image import GrayImage, RotationFrame, band_rows, rotate_raster

# Variances below this are floating-point dust from interpolation; treating
# them as exact zeros keeps argmin ties deterministic on flat regions.
_VAR_EPS = 1e-9

# Constant sub-pixel shift applied to every statistics sample. Bilinear
# interpolation smooths pixel noise on oblique lines (variance factor
# (f^2+(1-f)^2) per axis, averaging 2/3 over fractional offsets) but not on
# lattice-aligned ones, which would bias the angle comparison toward oblique
# candidates on noisy images. Shifting all samples by f0 with
# f0^2+(1-f0)^2 = 2/3 gives lattice-aligned lines the same expected
# smoothing, so every candidate angle plays by the same rules.
_STAT_OFFSET = (1.0 - 3.0**-0.5) / 2.0

# Map pixels per band of ``_mean_deviation_map``. Each band recomputes s
# rows of half-span deviations, so its bands are larger than the image
# stages': at 512x512 a map took about 37 ms in bands of 32768 or 65536
# pixels, 44 ms in bands of 8192 and 55 ms in one pass.
_MAP_BAND_PIXELS = 32768


@dataclass
class FlowConfig:
    """Window lengths, angular steps, grid stride and background threshold.

    Angular search is coarse-to-fine: candidates every ``coarse_step`` over
    [0, pi), then a refinement at ``fine_step`` within ``fine_half_range`` of
    the coarse optimum. Flow is computed every ``stride`` pixels; grid sites
    whose local patch variance falls below ``background_variance_threshold``
    are marked invalid. ``use_half_line_rule`` disables the min-over-halves
    rule when False (full-segment deviation only), for ablation.
    """

    tangent_half_length: int = 8
    perp_half_length: int = 8
    coarse_step: float = math.pi / 8
    fine_step: float = math.pi / 32
    fine_half_range: float = math.pi / 16
    stride: int = 2
    background_variance_threshold: float = 25.0
    use_half_line_rule: bool = True

    def __post_init__(self):
        for name in ("coarse_step", "fine_step", "fine_half_range", "background_variance_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tangent_half_length < 1 or self.perp_half_length < 1:
            raise ValueError("segment half lengths must be >= 1")
        n = round(math.pi / self.coarse_step) if self.coarse_step > 0 else 0
        if n < 1 or abs(n * self.coarse_step - math.pi) > 1e-9:
            raise ValueError("coarse_step must divide pi into an integer number of angles")
        if self.fine_step <= 0 or self.fine_step > self.coarse_step + 1e-12:
            raise ValueError("fine_step must be positive and <= coarse_step")
        if self.fine_half_range < 0 or self.fine_half_range > self.coarse_step / 2 + self.fine_step + 1e-12:
            raise ValueError("fine_half_range must lie in [0, coarse_step/2 + fine_step]")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.background_variance_threshold < 0:
            raise ValueError("background_variance_threshold must be non-negative")

    def coarse_angles(self) -> np.ndarray:
        return np.arange(round(math.pi / self.coarse_step)) * self.coarse_step

    def fine_offsets(self) -> list[float]:
        m = int(math.floor(self.fine_half_range / self.fine_step + 1e-9))
        return [k * self.fine_step for k in range(-m, m + 1)]


def _span_deviation(n: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Std from sample count, sum and sum of squares; NaN where <2 samples."""
    nf = np.maximum(n, 1)
    mean = s1 / nf
    var = s2 / nf
    var -= mean * mean
    np.copyto(var, 0.0, where=var < _VAR_EPS)
    np.sqrt(var, out=var)
    np.copyto(var, np.nan, where=n < 2)
    return var


def _scratch(work: dict[str, np.ndarray], key: str, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 view of ``shape`` on the reusable buffer ``work[key]``, grown as needed."""
    n = math.prod(shape)
    if key not in work or work[key].size < n:
        work[key] = None  # free the smaller buffer before allocating its successor
        work[key] = np.empty(n)
    return work[key][:n].reshape(shape)


def _site_mean_deviations(
    read_rows, shape: tuple[int, int], cfg: FlowConfig, row: np.ndarray, col: np.ndarray, work: dict[str, np.ndarray]
) -> np.ndarray:
    """Mean deviation at the map sites (``row``, ``col``) of a canvas, NaN where undefined.

    The canvas has ``shape``, and ``read_rows(a, b)`` returns the (values,
    valid) of its rows a .. b - 1, values 0.0 where invalid. Map row r,
    column c is the site (c - t, r - s) of the canvas, so the map covers
    every site whose window touches the canvas. Perpendicular spans are
    vertical runs clipped to the canvas rows, read as row-shifted slices of
    column prefix sums; the upper half span of a row is the lower half span
    of the row s below it. The tangent mean adds the 2t+1 column-shifted
    copies of the span deviations in order, columns off the canvas counting
    as undefined.

    The map is built in bands of rows, only where a site falls, each band
    trimmed to its first..last site row, and each band's sites are read
    from it. A band makes one ``read_rows`` call for the canvas rows its
    prefix rows still need, the site-free rows before it included, and adds
    them one row at a time, as ``np.cumsum`` does, after the last 2s + 1
    prefix rows of the band before; so every value has the bytes of the
    whole-canvas map, and every canvas row is read and summed once.
    Site-free rows are folded in a band at a time. Nothing is
    canvas-sized; the prefix buffer lives in ``work`` for the next call.
    """
    t = cfg.tangent_half_length
    s = cfg.perp_half_length
    h, w = shape
    k = 2 * s + 1
    out = np.full(row.shape, np.nan)
    if row.size == 0:
        return out
    order = np.argsort(row, kind="stable")
    srow = row[order]
    # prefix rows at .. at + 2s of counts, values and squares: row j sums canvas rows [0, j - 2s), clipped
    carry = np.zeros((3, k, w))
    at = 0

    def advance(q: int, values: np.ndarray, valid: np.ndarray, first: int) -> np.ndarray:
        """Prefix rows at .. q + 2s from the carried rows and canvas rows at .. q - 1, read from row ``first`` on."""
        nonlocal at
        p = _scratch(work, "prefix", (3, k + q - at, w))
        p[:, :k] = carry
        n = max(min(q, h) - at, 0)
        if n:
            src = slice(at - first, at - first + n)
            p[0, k : k + n] = valid[src]
            p[1, k : k + n] = values[src]
            np.multiply(values[src], values[src], out=p[2, k : k + n])
        p[:, k + n :] = 0.0
        # row by row: the sequential sums of np.cumsum(p, axis=1), which is slower along a middle axis
        for j in range(k, k + q - at):
            np.add(p[:, j - 1], p[:, j], out=p[:, j])
        carry[...] = p[:, q - at :]
        at = q
        return p

    def runs(p: np.ndarray, length: int, n: int) -> np.ndarray:
        """Deviations of the runs of ``length`` rows from each of the first ``n`` rows of ``p``."""
        d = p[:, length : n + length] - p[:, :n]
        return _span_deviation(d[0], d[1], d[2])

    out_w = w + 2 * t
    lo = 0
    for band in band_rows(out_w, int(srow[-1]) + 1, _MAP_BAND_PIXELS):
        hi = int(np.searchsorted(srow, band.stop))
        if hi == lo:
            continue
        r0, r1 = int(srow[lo]), int(srow[hi - 1]) + 1
        first = at
        values, valid = read_rows(at, min(r1, h)) if at < min(r1, h) else (None, None)
        step = band.stop - band.start
        while r0 - at > step:  # carry over rows no site needs, a band at a time
            advance(at + step, values, valid, first)
        base = at
        p = advance(r1, values, valid, first)[:, r0 - base :]
        sig = runs(p, 2 * s + 1, r1 - r0)
        if cfg.use_half_line_rule:
            half = runs(p, s + 1, r1 - r0 + s)
            np.fmin(sig, half[: r1 - r0], out=sig)
            np.fmin(sig, half[s:], out=sig)
        ok = ~np.isnan(sig)
        padded = np.zeros((r1 - r0, w + 4 * t))
        np.copyto(padded[:, 2 * t : 2 * t + w], sig, where=ok)
        sig_sum = np.zeros((r1 - r0, out_w))
        for i in range(2 * t + 1):
            sig_sum += padded[:, i : i + out_w]
        cnt = np.zeros((r1 - r0, w + 4 * t + 1), dtype=np.int64)
        cnt[:, 2 * t + 1 : 2 * t + 1 + w] = ok
        np.cumsum(cnt, axis=1, out=cnt)
        sites = order[lo:hi]
        r, c = srow[lo:hi] - r0, col[sites]
        sig_cnt = cnt[r, c + 2 * t + 1] - cnt[r, c]
        vals = np.divide(sig_sum[r, c], np.maximum(sig_cnt, 1))
        np.copyto(vals, np.nan, where=sig_cnt == 0)
        out[sites] = vals
        lo = hi
    return out


class RotatedDeviationEvaluator:
    """Mean-deviation evaluator: the deviations of an angle read from its map.

    Rotating by -alpha turns tangent segments into horizontal runs and the
    perpendiculars into vertical runs, so the mean deviation of every
    rotated lattice site comes from prefix sums of values and squared
    values. Grid sites are snapped to the nearest rotated lattice point of
    the whole canvas, so results match sampling the source along every
    segment up to sub-pixel resampling. Each call reads only the columns
    within t of a site, and rows from the top of the canvas, where the
    prefix sums start, to s below the last site. It rotates those rows one
    map band at a time, as the prefix sums take them in, reads the band's
    sites and drops the rows; no rotated window, map or table is kept, per
    band or per angle. The prefix buffer is private and sized to the
    largest band seen, since allocating it afresh for every angle makes the
    allocator return its pages to the system and fault them in again.
    """

    def __init__(self, image: GrayImage, cfg: FlowConfig):
        self._img = image.as_float()
        self._cfg = cfg
        self._work: dict[str, np.ndarray] = {}

    def mean_deviation(self, alpha: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        t = self._cfg.tangent_half_length
        s = self._cfg.perp_half_length
        offset = (_STAT_OFFSET, _STAT_OFFSET)
        frame = RotationFrame.of(self._img.shape, float(alpha), offset)
        rx, ry = frame.to_rotated(xs, ys)
        col = np.floor(rx + 0.5).astype(np.int64) + t
        row = np.floor(ry + 0.5).astype(np.int64) + s
        del rx, ry
        h, w = frame.shape
        inside = (row >= 0) & (row < h + 2 * s) & (col >= 0) & (col < w + 2 * t)
        cut = not inside.all()
        if cut:
            row, col = row[inside], col[inside]
        if row.size == 0:
            return np.full(inside.shape, np.nan)
        # map row r reads canvas rows up to r, map column c canvas columns c - 2t .. c
        cols = range(w)[max(int(col.min()) - 2 * t, 0) : int(col.max()) + 1]

        def read_rows(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
            rr = rotate_raster(self._img, float(alpha), offset, (slice(a, b), slice(cols.start, cols.stop)))
            return rr.values, rr.valid

        col -= cols.start
        mu = _site_mean_deviations(read_rows, (h, len(cols)), self._cfg, row, col, self._work)
        if not cut:
            return mu
        out = np.full(inside.shape, np.nan)
        out[inside] = mu
        return out


# ---------------------------------------------------------------------------
# Coarse-to-fine search and the flow field


def _search_orientations(mean_deviation, px: np.ndarray, py: np.ndarray, cfg: FlowConfig):
    """Coarse argmin then fine refinement; returns (theta, defined) arrays.

    Each site keeps only its running optimum (mu, alpha). A value replaces
    it when smaller, or, in the fine phase, equal at a smaller angle: the
    first coarse minimum wins, a NaN never does, and fine ties resolve
    toward the smaller angle.
    """
    n_sites = px.shape[0]
    if n_sites == 0:
        return np.zeros(0), np.zeros(0, dtype=bool)

    coarse = cfg.coarse_angles()
    best_mu = np.full(n_sites, np.inf)
    best_idx = np.zeros(n_sites, dtype=np.intp)
    for i, a in enumerate(coarse):
        mu = mean_deviation(a, px, py)
        better = mu < best_mu
        np.copyto(best_mu, mu, where=better)
        best_idx[better] = i
    defined = best_mu < np.inf
    alpha = coarse[best_idx]
    best_idx[~defined] = len(coarse)  # undefined sites reach no fine angle

    # A fine angle can be reached from two coarse optima (at the defaults,
    # 4k+2 from k and k+1), so each distinct angle is asked for once, on the
    # sites whose coarse optimum reaches it, looked up by coarse index. An
    # evaluator works per site, so the grouping does not change any value.
    # The distinct angles come from the coarse optima that some defined site
    # reached: no site-sized sort, and no np.unique, whose first call
    # imports numpy.ma.
    reached = np.flatnonzero(np.bincount(best_idx, minlength=len(coarse) + 1)[:-1])
    sources: dict[float, list[int]] = {}
    for off in cfg.fine_offsets():
        if off != 0.0:
            for i, a in zip(reached, np.mod(coarse[reached] + off, math.pi)):
                sources.setdefault(float(a), []).append(i)
    for a in sorted(sources):
        lookup = np.zeros(len(coarse) + 1, dtype=bool)
        lookup[sources[a]] = True
        sel = lookup[best_idx]
        vals = mean_deviation(a, px, py) if sel.all() else mean_deviation(a, px[sel], py[sel])
        sites = np.flatnonzero(sel)
        mu = best_mu[sites]
        better = (vals < mu) | ((vals == mu) & (a < alpha[sites]))
        sites = sites[better]
        best_mu[sites] = vals[better]
        alpha[sites] = a
    theta = np.mod(alpha + math.pi / 2.0, math.pi)
    return np.where(defined, theta, 0.0), defined


def patch_variance_grid(image: GrayImage, cfg: FlowConfig) -> np.ndarray:
    """Variance of the axis-aligned patch around each grid site (border-clipped)."""
    f = image.as_float()
    h, w = f.shape
    p1 = np.zeros((h + 1, w + 1))
    p2 = np.zeros((h + 1, w + 1))
    p1[1:, 1:] = f.cumsum(axis=0).cumsum(axis=1)
    p2[1:, 1:] = (f * f).cumsum(axis=0).cumsum(axis=1)

    r = cfg.tangent_half_length
    gx, gy = _grid_sites(w, h, cfg.stride)
    x0 = np.clip(gx - r, 0, w)
    x1 = np.clip(gx + r + 1, 0, w)
    y0 = np.clip(gy - r, 0, h)
    y1 = np.clip(gy + r + 1, 0, h)

    def rect(p, ya, yb, xa, xb):
        return p[yb][:, xb] - p[ya][:, xb] - p[yb][:, xa] + p[ya][:, xa]

    n = (y1 - y0)[:, None] * (x1 - x0)[None, :]
    s1 = rect(p1, y0, y1, x0, x1)
    s2 = rect(p2, y0, y1, x0, x1)
    mean = s1 / n
    return np.maximum(s2 / n - mean * mean, 0.0)


def compute_flow_field(image: GrayImage, cfg: FlowConfig | None = None) -> FlowField:
    """Dominant orientation on the stride grid, background sites invalid."""
    cfg = cfg or FlowConfig()
    min_dim = 2 * (cfg.tangent_half_length + cfg.perp_half_length)
    if image.width < min_dim or image.height < min_dim:
        raise ValueError(
            f"image must be at least {min_dim}x{min_dim} pixels for this configuration, "
            f"got {image.width}x{image.height}"
        )

    foreground = patch_variance_grid(image, cfg) >= cfg.background_variance_threshold
    gx, gy = _grid_sites(image.width, image.height, cfg.stride)
    iy, ix = np.nonzero(foreground)
    ev = RotatedDeviationEvaluator(image, cfg)
    # float64 once here, so no evaluator call converts the sites again
    theta, ok = _search_orientations(ev.mean_deviation, gx[ix].astype(np.float64), gy[iy].astype(np.float64), cfg)

    angles = np.zeros(foreground.shape)
    valid = np.zeros(foreground.shape, dtype=bool)
    angles[foreground] = theta
    valid[foreground] = ok
    return FlowField(angles, valid, cfg.stride)
