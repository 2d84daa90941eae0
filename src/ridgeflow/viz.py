"""SVG rendering of a flow field over its grayscale image.

The background is embedded as a base64 PNG built with a fixed zlib level so
repeated renders are byte-identical. Each valid grid site contributes one
line segment centered at the site, 0.9 * stride long, at the site's angle.
"""

from __future__ import annotations

import base64
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .flowfield import FlowField, check_flow_grid
from .image import GrayImage


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload))


def png_bytes(pixels: np.ndarray) -> bytes:
    """Encode an (h, w) uint8 raster as an 8-bit grayscale PNG."""
    h, w = pixels.shape
    raw = b"".join(b"\x00" + pixels[y].tobytes() for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw, 6))
        + _png_chunk(b"IEND", b"")
    )


def _flow_overlay_svg(image: GrayImage, flow: FlowField) -> str:
    w, h = image.width, image.height
    check_flow_grid(flow, w, h)
    encoded = base64.b64encode(png_bytes(image.pixels)).decode("ascii")
    half = 0.45 * flow.stride
    xs = flow.site_xs()
    ys = flow.site_ys()
    segments = []
    for iy in range(flow.grid_height):
        for ix in range(flow.grid_width):
            if not flow.valid[iy, ix]:
                continue
            theta = flow.angles[iy, ix]
            cx = xs[ix] + 0.5
            cy = ys[iy] + 0.5
            dx = half * math.cos(theta)
            dy = half * math.sin(theta)
            segments.append(
                f'<line x1="{cx - dx:.2f}" y1="{cy - dy:.2f}" x2="{cx + dx:.2f}" y2="{cy + dy:.2f}"/>'
            )
    body = "\n".join(segments)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
        f'<image x="0" y="0" width="{w}" height="{h}" '
        f'image-rendering="pixelated" href="data:image/png;base64,{encoded}"/>\n'
        f'<g stroke="#d62728" stroke-width="0.6" stroke-linecap="round">\n'
        f"{body}\n</g>\n</svg>\n"
    )


def render_flow_overlay(image: GrayImage, flow: FlowField, out) -> None:
    Path(out).write_text(_flow_overlay_svg(image, flow), encoding="ascii")
