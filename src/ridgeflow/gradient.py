"""Structure-tensor orientation baseline.

Gradients come from 3x3 Sobel kernels (normalized to intensity per pixel,
borders replicated). The tensor is the Gaussian-weighted sum of gradient
outer products over a square window; its dominant eigenvector points across
ridges, so the flow field stores that angle plus pi/2 to be directly
comparable with the projection method.

The tensor is taken in one pass over bands of grid-site rows, with no
whole-image gradient or product: each band takes the Sobel gradients of the
pixel rows its windows reach and sums their products at its sites only.
Sobel values of 8-bit pixels are exact (multiples of 1/8), and each sum has
the operations of a zero-padded ``scipy.ndimage.convolve`` read at the
sites, so every value has its bytes: each site's sum starts at 0 and adds
weight times value tap by tap, in row-major order of the flipped kernel,
skipping every tap whose |weight| is at most the float64 epsilon as scipy's
footprint does.
"""

from __future__ import annotations

import math

import numpy as np

from .flowfield import FlowField, _grid_sites
from .image import GrayImage, band_rows
from .projection import FlowConfig, patch_variance_grid


def _window_weights(window_half: int, weight_sigma: float | None) -> np.ndarray:
    offs = np.arange(-window_half, window_half + 1, dtype=np.float64)
    if weight_sigma is None:
        return np.ones((offs.size, offs.size))
    dx, dy = np.meshgrid(offs, offs)
    # for a tiny sigma an exponent overflows to -inf, whose weight is exactly 0
    with np.errstate(over="ignore"):
        return np.exp(-(dx * dx + dy * dy) / (2.0 * weight_sigma * weight_sigma))


def _tensor_sums(pixels: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """The a11, a12 and a22 sums of the odd square ``kernel`` at the stride grid sites, as a (3, rows, columns) array.

    Per band of site rows, the Sobel gradients of the pixel rows its windows
    reach (indices clamped, which replicates the borders) give the three
    products, zero outside the image. Split into contiguous stride-phase
    planes, no more per axis than the kernel's side, since no tap reaches
    past it, each kept tap reads one plane at a fixed offset for all three.
    """
    h, w = pixels.shape
    c = kernel.shape[0] // 2
    taps = [(i, j, wt) for (i, j), wt in np.ndenumerate(kernel[::-1, ::-1]) if abs(wt) > np.finfo(np.float64).eps]
    xs, ys = _grid_sites(w, h, stride)
    cols = np.clip(np.arange(-1, w + 1), 0, w - 1)
    out = np.zeros((3, ys.size, xs.size))
    for rows in band_rows(xs.size, ys.size):
        top = rows.start * stride - c  # the first pixel row the band's windows reach
        n = (rows.stop - 1 - rows.start) * stride + 2 * c + 1
        y0, y1 = max(top, 0), min(top + n, h)
        f = pixels[np.clip(np.arange(y0 - 1, y1 + 1), 0, h - 1)][:, cols].astype(np.float64)
        # sums of bytes are exact in any order, so the separable form gives the 3x3 kernels' bytes
        across, down = f[:-2] + 2.0 * f[1:-1] + f[2:], f[:, :-2] + 2.0 * f[:, 1:-1] + f[:, 2:]
        gx, gy = (across[:, 2:] - across[:, :-2]) / 8.0, (down[2:] - down[:-2]) / 8.0
        del f, across, down
        prod = np.zeros((3, n, w + 2 * c))
        for k, (a, b) in enumerate(((gx, gx), (gx, gy), (gy, gy))):
            np.multiply(a, b, out=prod[k, y0 - top : y1 - top, c : c + w])
        del gx, gy, a, b
        phases = range(min(stride, kernel.shape[0]))
        planes = [[np.ascontiguousarray(prod[:, p::stride, q::stride]) for q in phases] for p in phases]
        del prod
        acc = out[:, rows]
        term = np.empty(acc.shape)
        for i, j, wt in taps:
            y, x = i // stride, j // stride
            np.multiply(planes[i % stride][j % stride][:, y : y + acc.shape[1], x : x + xs.size], wt, out=term)
            acc += term
    return out


def compute_flow_field_gradient(image: GrayImage, cfg: FlowConfig = FlowConfig()) -> FlowField:
    """Structure-tensor flow on the same stride grid as the projection method, with the settings ``cfg``.

    Stored angles are ridge orientations (tensor angle + pi/2). The tensor
    window has half size ``cfg.gradient_window_half`` and Gaussian weight
    sigma ``cfg.gradient_weight_sigma``. Sites are invalid where coherence
    < ``cfg.coherence_threshold`` or where the local patch variance is below
    the background threshold.
    """
    if image.width < 3 or image.height < 3:
        raise ValueError(f"image must be at least 3x3 pixels, got {image.width}x{image.height}")
    # before the tensor sums, so the patch variance's prefix sums are freed first
    foreground = patch_variance_grid(image, cfg) >= cfg.background_variance_threshold
    # weights past the image borders only multiply the zero padding
    kernel = _window_weights(min(cfg.gradient_window_half, max(image.width, image.height) - 1),
                             cfg.gradient_weight_sigma)
    a11, a12, a22 = _tensor_sums(image.pixels, kernel, cfg.stride)

    trace = a11 + a22  # its buffer becomes the coherence; every other step runs in place in the sums' planes
    diff, twice = np.subtract(a11, a22, out=a11), np.multiply(a12, 2.0, out=a12)
    spread = np.hypot(diff, twice, out=a22)
    ridge = np.add(np.multiply(np.arctan2(twice, diff, out=twice), 0.5, out=twice), math.pi / 2.0, out=twice)
    np.copyto(ridge, 0.0, where=np.mod(ridge, math.pi, out=ridge) >= math.pi)
    flat = trace < 1e-12
    coherence = np.minimum(np.divide(spread, np.maximum(trace, 1e-300, out=trace), out=trace), 1.0, out=trace)
    np.copyto(coherence, 0.0, where=flat)

    valid = foreground & (coherence >= cfg.coherence_threshold)
    return FlowField(ridge, valid, cfg.stride, coherence=coherence)
