"""Synthetic ridge patterns with known ground-truth orientation fields.

Noise comes from a self-contained SplitMix64 counter stream mapped through
Box-Muller, so a given seed yields the same image on every platform without
depending on any library's default generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flowfield import FlowField, _check_stride, _grid_sites
from .image import GrayImage, _check_sizes

PATTERNS = ("parallel", "concentric", "half_plane_stripe")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs offset+1 .. offset+count of the SplitMix64 stream for ``seed``."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def seeded_normals(seed: int, count: int) -> np.ndarray:
    """Standard normal draws via Box-Muller over the SplitMix64 stream."""
    z = _splitmix64(seed, 2 * count)
    # 53-bit uniforms; u1 shifted into (0, 1] so log() is finite
    u1 = ((z[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a generated ridge pattern.

    ``orientation`` is the direction ridges run along (parallel pattern only).
    Intensity pre-noise is offset + amplitude * cos(...), so with the defaults
    the pattern spans the full 8-bit range. Dark troughs are the "ridges".
    Frozen: a variant is made with ``dataclasses.replace``, which checks it again.
    """

    width: int
    height: int
    pattern: str = "parallel"
    orientation: float = 0.0
    period: float = 8.0
    amplitude: float = 127.0
    offset: float = 127.5
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("orientation", "period", "amplitude", "offset", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        _check_sizes(1, "dimensions must be positive", width=self.width, height=self.height)
        _check_sizes(-math.inf, "", rng_seed=self.rng_seed)  # any integer, no least: the stream takes its low 64 bits
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if self.period < 4:
            raise ValueError("period must be >= 4 pixels")
        if self.amplitude < 0 or self.noise_sigma < 0:
            raise ValueError("amplitude and noise_sigma must be non-negative")
        if self.amplitude + abs(self.offset - 127.5) > 127.5 + 1e-9:
            raise ValueError("amplitude + |offset - 127.5| must stay within [0, 255]")


def generate(spec: SyntheticSpec, stride: int = 2) -> tuple[GrayImage, FlowField]:
    """Render the pattern and its ground-truth flow on a ``stride`` grid."""
    _check_stride(stride)
    xs = np.arange(spec.width, dtype=np.float64)
    ys = np.arange(spec.height, dtype=np.float64)
    X, Y = np.meshgrid(xs, ys)
    GX, GY = np.meshgrid(*_grid_sites(spec.width, spec.height, stride))
    omega = 2.0 * math.pi / spec.period

    if spec.pattern == "parallel":
        normal = spec.orientation + math.pi / 2.0
        nx = math.cos(normal)
        ny = math.sin(normal)
        # snap numeric dust so axis-aligned patterns are exactly axis-aligned
        nx = 0.0 if abs(nx) < 1e-12 else nx
        ny = 0.0 if abs(ny) < 1e-12 else ny
        phase = (X * nx + Y * ny) * omega
        values = spec.offset + spec.amplitude * np.cos(phase)
        theta = spec.orientation % math.pi  # exactly pi a hair below 0, which is 0 on the half circle, as in angles_at
        angles = np.full(GX.shape, theta if theta < math.pi else 0.0)
        valid = np.ones(GX.shape, dtype=bool)
    elif spec.pattern == "concentric":
        cx = (spec.width - 1) / 2.0
        cy = (spec.height - 1) / 2.0
        r = np.hypot(X - cx, Y - cy)
        values = spec.offset + spec.amplitude * np.cos(r * omega)
        valid = np.hypot(GX - cx, GY - cy) >= 1.0  # tangent direction is ill-defined at the center
        angles = np.where(valid, np.mod(np.arctan2(GY - cy, GX - cx) + math.pi / 2.0, math.pi), 0.0)
    else:  # half_plane_stripe: horizontal ridges on the left, flat on the right
        boundary = spec.width / 2.0
        stripes = spec.offset + spec.amplitude * np.cos(Y * omega)
        values = np.where(X < boundary, stripes, spec.offset)
        angles = np.zeros(GX.shape)
        valid = GX < boundary

    if spec.noise_sigma > 0:
        noise = seeded_normals(spec.rng_seed, values.size).reshape(values.shape)
        values = values + spec.noise_sigma * noise
    return GrayImage.from_float(values), FlowField(angles, valid, stride)
