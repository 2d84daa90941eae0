"""Orientation flow from projection statistics.

For a candidate angle, short perpendicular segments are dropped from every
sample site of the tangent segment and the standard deviation of intensities
along each perpendicular is taken; the dominant orientation is the candidate
with the smallest mean deviation, plus pi/2. Each perpendicular deviation is
the minimum over the full segment and its two halves, which keeps the
statistic meaningful where a ridge ends inside the window.

One evaluator computes the statistic: it rotates the image per candidate
angle so all segments become axis-aligned runs. The rotated samples are
rounded to multiples of 1/256, so their column sums are exact, and each
band of site rows rotates only the rows and columns its own sites read,
unclipped, straight into column prefix sums of the values and squared
values, which start at zero; from these it takes the perpendicular
deviations of only the rows the sites fall on, and each site takes its
tangent mean from its own row of them with ``image._tap_mean``, the mean
the ridge test takes too. Per angle it holds one band of rotated rows,
prefix sums and deviations, never a whole rotated window or map.
The search asks for each distinct candidate angle once and keeps only each
site's running optimum, so no table of angles by sites exists either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flowfield import FlowField, _check_stride, _grid_sites
from .image import GrayImage, RotationFrame, _check_sizes, _tap_mean, _two_sigma_squared, rotate_raster

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

# Map pixels per band of ``_site_mean_deviations``. Each band rotates and
# sums the 2s canvas rows above its first site row again and recomputes s
# rows of half-span deviations, so its bands are larger than the image
# stages': a 512x512 flow took about 0.37 s on parallel and 0.57 s on
# concentric ridges in bands of 32768 pixels, 0.60 and 0.73 s in bands of
# 16384, and 0.46 and 0.61 s in bands of 65536, which peak 2.4 MiB higher.
_MAP_BAND_PIXELS = 32768


@dataclass(frozen=True)
class FlowConfig:
    """The settings of both flow methods, ``compute_flow_field`` and ``compute_flow_field_gradient``.

    Angular search is coarse-to-fine: candidates every ``coarse_step`` over
    [0, pi), then a refinement at ``fine_step`` within ``fine_half_range`` of
    the coarse optimum. Flow is computed every ``stride`` pixels; grid sites
    whose local patch variance, over a patch of half size
    ``tangent_half_length``, falls below ``background_variance_threshold``
    are marked invalid. ``use_half_line_rule`` disables the min-over-halves
    rule when False (full-segment deviation only), for ablation.

    The structure-tensor baseline reads the stride, the patch and the
    background threshold too, and three settings of its own: the tensor
    window's half size ``gradient_window_half``, its Gaussian weight sigma
    ``gradient_weight_sigma`` (None for uniform weights), and the coherence
    below which a site is invalid, ``coherence_threshold``. Frozen: a variant
    is made with ``dataclasses.replace``, which checks it again.
    """

    tangent_half_length: int = 8
    perp_half_length: int = 8
    coarse_step: float = math.pi / 8
    fine_step: float = math.pi / 32
    fine_half_range: float = math.pi / 16
    stride: int = 2
    background_variance_threshold: float = 25.0
    use_half_line_rule: bool = True
    gradient_window_half: int = 8
    gradient_weight_sigma: float | None = 4.0
    coherence_threshold: float = 0.1

    def __post_init__(self):
        for name in ("coarse_step", "fine_step", "fine_half_range", "background_variance_threshold",
                     "coherence_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        _check_sizes(1, "segment half lengths must be >= 1", tangent_half_length=self.tangent_half_length,
                     perp_half_length=self.perp_half_length)
        n = round(math.pi / self.coarse_step) if self.coarse_step > 0 else 0
        if n < 1 or abs(n * self.coarse_step - math.pi) > 1e-9:
            raise ValueError("coarse_step must divide pi into an integer number of angles")
        if self.fine_step <= 0 or self.fine_step > self.coarse_step + 1e-12:
            raise ValueError("fine_step must be positive and <= coarse_step")
        if self.fine_half_range < 0 or self.fine_half_range > self.coarse_step / 2 + self.fine_step + 1e-12:
            raise ValueError("fine_half_range must lie in [0, coarse_step/2 + fine_step]")
        _check_stride(self.stride)
        if self.background_variance_threshold < 0:
            raise ValueError("background_variance_threshold must be non-negative")
        if not isinstance(self.use_half_line_rule, (bool, np.bool_)):
            raise ValueError(f"use_half_line_rule must be a bool, got {self.use_half_line_rule!r}")
        half, sigma = self.gradient_window_half, self.gradient_weight_sigma
        _check_sizes(0, f"gradient window half size must be >= 0, got {half}", **{"gradient window half size": half})
        if sigma is not None:
            if not 0 < sigma < math.inf:
                raise ValueError(f"gradient weight sigma must be positive and finite, or None, got {sigma}")
            _two_sigma_squared(sigma, "gradient_weight_sigma")

    def coarse_angles(self) -> np.ndarray:
        return np.arange(round(math.pi / self.coarse_step)) * self.coarse_step

    def fine_offsets(self) -> list[float]:
        m = int(math.floor(self.fine_half_range / self.fine_step + 1e-9))
        return [k * self.fine_step for k in range(-m, m + 1)]


def _span_deviation(n: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Std from sample count, sum and sum of squares; NaN where <2 samples.

    All three inputs are spent: the steps run in place, and the result is ``s2``.
    """
    few = n < 2
    nf = np.maximum(n, 1, out=n)
    mean = np.divide(s1, nf, out=s1)
    var = np.divide(s2, nf, out=s2)
    var -= np.multiply(mean, mean, out=mean)
    np.copyto(var, 0.0, where=var < _VAR_EPS)
    np.sqrt(var, out=var)
    np.copyto(var, np.nan, where=few)
    return var


def _site_mean_deviations(
    read, shape: tuple[int, int], cfg: FlowConfig, row: np.ndarray, col: np.ndarray, work: dict[str, np.ndarray]
) -> np.ndarray:
    """Mean deviation at the map sites (``row``, ``col``) of a canvas, NaN where undefined.

    The canvas has ``shape``, and ``read(rows, cols)`` returns the values of
    its rows and columns in those two slices, NaN where a sample has no
    value and everywhere past the canvas. Map row r, column c is the site
    (c - t, r - s) of the canvas, so the map covers every site whose window
    touches the canvas. Perpendicular spans are vertical runs, read as
    row-shifted slices of column prefix sums; the upper half span of a row
    is the lower half span of the row s below it. A site's tangent mean is
    the ``_tap_mean`` of the 2t+1 span deviations of its row at columns
    c - 2t .. c, each tap gathered at the sites alone; a NaN adds no tap.

    Each sample is rounded to a multiple of 1/256 as it is read, so a value
    has at most 16 significant bits and a square 32, and every column sum
    over fewer than 2**21 rows is exact: a span's sums have the same bytes
    wherever its prefix sums start. So the sites are taken in bands of map
    rows r0 .. r1 - 1, each at most a map band tall and ended where the next
    site row lies more than 2s + 1 rows on, and each band reads only the
    canvas rows r0 - 2s .. r1 - 1 and the columns min c - 2t .. max c of its
    own sites, unclipped, in one ``read`` call, and sums them from zero. No
    rows no site's spans need are read, and nothing is canvas-sized; the
    prefix planes live in ``work["prefix"]`` for the next call, grown as needed.
    """
    t = cfg.tangent_half_length
    s = cfg.perp_half_length
    out = np.full(row.shape, np.nan)
    order = np.argsort(row, kind="stable")  # the sites in row order; no sorted copy of their rows is made
    step = max(1, _MAP_BAND_PIXELS // (shape[1] + 2 * t))

    def runs(p: np.ndarray, length: int, n: int) -> np.ndarray:
        """Deviations of the runs of ``length`` rows from each of the first ``n`` rows of ``p``."""
        d = p[:, length : n + length] - p[:, :n]
        return _span_deviation(d[0], d[1], d[2]).copy()  # a copy, so the count and sum planes go

    lo = 0
    while lo < row.size:
        r0 = int(row[order[lo]])
        hi = int(np.searchsorted(row, r0 + step, sorter=order))
        gap = np.flatnonzero(np.diff(row[order[lo:hi]]) > 2 * s + 1)
        if gap.size:
            hi = lo + int(gap[0]) + 1
        sites = order[lo:hi]
        lo = hi
        r1 = int(row[sites[-1]]) + 1
        c0, c1 = int(col[sites].min()) - 2 * t, int(col[sites].max()) + 1
        # prefix row i sums canvas rows r0 - 2s .. r0 - 2s + i - 1, read from row 1 on
        planes = (3, r1 - r0 + 2 * s + 1, c1 - c0)
        size = math.prod(planes)
        if "prefix" not in work or work["prefix"].size < size:
            work["prefix"] = None  # free the smaller buffer before allocating its successor
            work["prefix"] = np.empty(size)
        p = work["prefix"][:size].reshape(planes)
        p[:, 0] = 0.0
        v = p[1, 1:]
        v[...] = read(slice(r0 - 2 * s, r1), slice(c0, c1))
        v *= 256.0
        np.rint(v, out=v)
        v *= 1.0 / 256.0
        # zeroed here, not in the rows read, which the caller may still hold
        nan = np.isnan(v)
        np.copyto(v, 0.0, where=nan)
        p[0, 1:] = np.logical_not(nan, out=nan)
        np.multiply(v, v, out=p[2, 1:])
        # row by row: np.cumsum(p, axis=1) is slower along a middle axis
        for j in range(1, planes[1]):
            np.add(p[:, j - 1], p[:, j], out=p[:, j])
        sig = runs(p, 2 * s + 1, r1 - r0)
        if cfg.use_half_line_rule:
            half = runs(p, s + 1, r1 - r0 + s)
            np.fmin(sig, half[: r1 - r0], out=sig)
            np.fmin(sig, half[s:], out=sig)
            del half
        at_site = np.ravel_multi_index((row[sites] - r0, col[sites] - 2 * t - c0), sig.shape)
        flat = sig.ravel()
        out[sites] = _tap_mean((flat.take(at_site + i) for i in range(2 * t + 1)), len(sites))
    return out


def _snap(r: np.ndarray, pad: int, size: int) -> np.ndarray:
    """Nearest lattice index of each rotated coordinate plus ``pad``, as int32; ``r`` is spent.

    Indices are clipped to [-1, size] and NaN maps to -1, so whatever lies
    outside [0, size) stays off the map, where its window is all NaN, and
    the cast is always defined.
    """
    r += 0.5
    np.floor(r, out=r)
    r += pad
    return np.fmin(np.fmax(r, -1.0, out=r), size, out=r).astype(np.int32)


class RotatedDeviationEvaluator:
    """Mean-deviation evaluator: the deviations of an angle read from its map.

    Rotating by -alpha turns tangent segments into horizontal runs and the
    perpendiculars into vertical runs, so the mean deviation of every
    rotated lattice site comes from prefix sums of values and squared
    values. Grid sites are snapped to the nearest rotated lattice point of
    the whole canvas, so results match sampling the source along every
    segment up to sub-pixel resampling and the rounding of each sample to
    a multiple of 1/256. Each band of site rows rotates, in one read, only
    the rows and columns its own sites' segments cover, reads its sites and
    drops the rows; no rotated window, map or table is kept, per band or
    per angle. A read gives only values, NaN where a sample maps from
    outside the image, as every pixel past the canvas does: it lies 1 px or
    more past the outermost pixel centres, and the sampling offset moves a
    sample 0.30 px at most. The prefix buffer is private and sized to the
    largest band seen, since allocating it afresh for every angle makes the
    allocator return its pages to the system and fault them in again.
    """

    def __init__(self, image: GrayImage, cfg: FlowConfig):
        self._img = image.pixels
        self._cfg = cfg
        self._work: dict[str, np.ndarray] = {}

    def mean_deviation(self, alpha: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        t = self._cfg.tangent_half_length
        s = self._cfg.perp_half_length
        offset = (_STAT_OFFSET, _STAT_OFFSET)
        frame = RotationFrame.of(self._img.shape, float(alpha), offset)
        h, w = frame.shape
        shape = np.shape(xs)
        rx, ry = frame.to_rotated(np.ravel(xs), np.ravel(ys))
        col = _snap(rx, t, w + 2 * t)
        row = _snap(ry, s, h + 2 * s)
        del rx, ry
        def read(rows: slice, cols: slice) -> np.ndarray:
            return rotate_raster(self._img, float(alpha), offset, (rows, cols)).values

        return _site_mean_deviations(read, (h, w), self._cfg, row, col, self._work).reshape(shape)


# ---------------------------------------------------------------------------
# Coarse-to-fine search and the flow field


def _search_orientations(mean_deviation, px: np.ndarray, py: np.ndarray, cfg: FlowConfig):
    """Coarse argmin then fine refinement; returns theta, NaN where no candidate was defined.

    Each site keeps only its running optimum: mu, and its angle as a small
    index into the angles searched. A value replaces it when smaller, or,
    in the fine phase, equal at a smaller angle: the first coarse minimum
    wins, a NaN never does, and fine ties resolve toward the smaller angle.
    """
    n_sites = px.shape[0]
    if n_sites == 0:
        return np.zeros(0)

    coarse = cfg.coarse_angles()
    best_mu = np.full(n_sites, np.inf)
    best_idx = np.zeros(n_sites, dtype=np.min_scalar_type(len(coarse)))
    for i, a in enumerate(coarse):
        mu = mean_deviation(a, px, py)
        better = mu < best_mu
        np.copyto(best_mu, mu, where=better)
        best_idx[better] = i
        del mu, better  # so they are gone during the next call
    best_idx[best_mu == np.inf] = len(coarse)  # undefined sites reach no fine angle

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
    fine = sorted(sources)
    # a site's angle is angles[pick]: its coarse optimum, NaN where undefined, then a fine angle
    angles = np.concatenate((coarse, [np.nan], fine))
    pick = best_idx.astype(np.min_scalar_type(len(angles)))
    for j, a in enumerate(fine, start=len(coarse) + 1):
        lookup = np.zeros(len(coarse) + 1, dtype=bool)
        lookup[sources[a]] = True
        sel = lookup[best_idx]
        vals = mean_deviation(a, px, py) if sel.all() else mean_deviation(a, px[sel], py[sel])
        sites = np.flatnonzero(sel)
        mu = best_mu[sites]
        better = (vals < mu) | ((vals == mu) & (a < angles[pick[sites]]))
        sites = sites[better]
        best_mu[sites] = vals[better]
        pick[sites] = j
        del sel, vals, sites, mu, better  # so they are gone during the next call
    return np.mod(angles[pick] + math.pi / 2.0, math.pi)


def patch_variance_grid(image: GrayImage, cfg: FlowConfig) -> np.ndarray:
    """Variance of the axis-aligned patch around each grid site (border-clipped).

    The patch sums come from one zero-bordered 2-D prefix sum at a time, of
    the values and then of their squares, summed in place and read at the
    patch corners only.
    """
    pixels = image.pixels
    h, w = pixels.shape
    r = cfg.tangent_half_length
    gx, gy = _grid_sites(w, h, cfg.stride)
    x0 = np.clip(gx - r, 0, w)
    x1 = np.clip(gx + r + 1, 0, w)
    y0 = np.clip(gy - r, 0, h)[:, None]
    y1 = np.clip(gy + r + 1, 0, h)[:, None]

    def patch_sums(squared: bool) -> np.ndarray:
        p = np.zeros((h + 1, w + 1))
        inner = p[1:, 1:]
        inner[...] = pixels
        if squared:
            inner *= inner
        np.cumsum(inner, axis=0, out=inner)
        np.cumsum(inner, axis=1, out=inner)
        return p[y1, x1] - p[y0, x1] - p[y1, x0] + p[y0, x0]

    n = (y1 - y0) * (x1 - x0)[None, :]
    mean = patch_sums(False) / n
    return np.maximum(patch_sums(True) / n - mean * mean, 0.0)


def compute_flow_field(image: GrayImage, cfg: FlowConfig = FlowConfig()) -> FlowField:
    """Dominant orientation on the stride grid, background sites invalid."""
    min_dim = 2 * (cfg.tangent_half_length + cfg.perp_half_length)
    if image.width < min_dim or image.height < min_dim:
        raise ValueError(
            f"image must be at least {min_dim}x{min_dim} pixels for this configuration, "
            f"got {image.width}x{image.height}"
        )

    foreground = patch_variance_grid(image, cfg) >= cfg.background_variance_threshold
    gx, gy = _grid_sites(image.width, image.height, cfg.stride)
    # the foreground sites in row-major order, their pixel coordinates in the smallest unsigned type that holds
    # them (uint16 below 65536 pixels a side), which the evaluator converts exactly
    coord = np.min_scalar_type(max(image.width, image.height))
    px = np.broadcast_to(gx.astype(coord), foreground.shape)[foreground]
    py = np.broadcast_to(gy.astype(coord)[:, None], foreground.shape)[foreground]
    ev = RotatedDeviationEvaluator(image, cfg)
    theta = _search_orientations(ev.mean_deviation, px, py, cfg)

    angles = np.full(foreground.shape, np.nan)
    angles[foreground] = theta
    return FlowField(angles, ~np.isnan(angles), cfg.stride)
