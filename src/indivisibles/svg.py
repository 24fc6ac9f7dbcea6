"""Deterministic SVG diagrams of the constructions.

All coordinates are emitted with a fixed format, so a given input always
produces byte-identical output.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Point2, Polygon, WidthFunction, bounding_box, centroid_region
from .exhaustion import _block_edges

_WIDTH = 600.0
_HEIGHT = 400.0
_PAD = 0.08


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class _Mapper:
    """Affine map from data space to the SVG viewport (y flipped)."""

    def __init__(self, x0, x1, y0, y1):
        dx = (x1 - x0) or 1.0
        dy = (y1 - y0) or 1.0
        x0 -= _PAD * dx
        x1 += _PAD * dx
        y0 -= _PAD * dy
        y1 += _PAD * dy
        self.scale = min(_WIDTH / (x1 - x0), _HEIGHT / (y1 - y0))
        self.x0, self.y1 = x0, y1

    def pt(self, x, y) -> str:
        sx = (x - self.x0) * self.scale
        sy = (self.y1 - y) * self.scale
        return f"{_fmt(sx)},{_fmt(sy)}"

    def xy(self, x, y) -> tuple[str, str]:
        sx = (x - self.x0) * self.scale
        sy = (self.y1 - y) * self.scale
        return _fmt(sx), _fmt(sy)


def _document(body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def render_unroll(r: float, n: int) -> str:
    """The sawtooth unrolling: n teeth standing on a baseline of n chords."""
    from .transforms import sawtooth_teeth, unroll_disk

    from .geometry import Disk

    saw = unroll_disk(Disk(Point2(0.0, 0.0), r), n)
    teeth = sawtooth_teeth(saw)
    chord = 2.0 * r * math.sin(math.pi / n)
    apothem = r * math.cos(math.pi / n)
    m = _Mapper(0.0, n * chord, 0.0, apothem)
    body = [
        f'<line class="baseline" x1="{m.xy(0.0, 0.0)[0]}" y1="{m.xy(0.0, 0.0)[1]}" '
        f'x2="{m.xy(n * chord, 0.0)[0]}" y2="{m.xy(n * chord, 0.0)[1]}" '
        'stroke="black" stroke-width="1"/>'
    ]
    for tooth in teeth:
        pts = " ".join(m.pt(p.x, p.y) for p in tooth.vertices)
        body.append(f'<polygon class="tooth" points="{pts}" fill="none" stroke="steelblue"/>')
    return _document(body)


def render_bounds(width: WidthFunction, n: int) -> str:
    """Inner and outer staircase rectangles bracketing a width profile."""
    edges = _block_edges(width, n, 0, n)
    vals = np.asarray(width(edges), dtype=np.float64)
    a, b = width.domain
    top = float(np.max(vals))
    m = _Mapper(a, b, 0.0, top)
    body = []
    for i in range(len(edges) - 1):
        lo = float(min(vals[i], vals[i + 1]))
        hi = float(max(vals[i], vals[i + 1]))
        w_px = _fmt((edges[i + 1] - edges[i]) * m.scale)
        x_, ytop = m.xy(edges[i], hi)
        body.append(
            f'<rect class="outer" x="{x_}" y="{ytop}" width="{w_px}" '
            f'height="{_fmt(hi * m.scale)}" fill="none" stroke="firebrick"/>'
        )
        _, ytop_in = m.xy(edges[i], lo)
        body.append(
            f'<rect class="inner" x="{x_}" y="{ytop_in}" width="{w_px}" '
            f'height="{_fmt(lo * m.scale)}" fill="none" stroke="seagreen"/>'
        )
    ts = np.linspace(a, b, 257)
    ws = np.asarray(width(ts), dtype=np.float64)
    pts = " ".join(m.pt(float(t), float(w)) for t, w in zip(ts, ws))
    body.append(f'<polyline class="profile" points="{pts}" fill="none" stroke="black"/>')
    return _document(body)


def render_guldin(profile_polygon: Polygon) -> str:
    """A meridian section with the revolution axis and its centroid marker."""
    (x0, x1), (y0, y1) = bounding_box(profile_polygon)
    x0 = min(x0, 0.0)  # always show the axis
    m = _Mapper(x0, x1, y0, y1)
    ax_x, ax_y0 = m.xy(0.0, y0 - 0.05 * ((y1 - y0) or 1.0))
    _, ax_y1 = m.xy(0.0, y1 + 0.05 * ((y1 - y0) or 1.0))
    body = [
        f'<line class="axis" x1="{ax_x}" y1="{ax_y0}" x2="{ax_x}" y2="{ax_y1}" '
        'stroke="black" stroke-dasharray="6,3"/>'
    ]
    pts = " ".join(m.pt(p.x, p.y) for p in profile_polygon.vertices)
    body.append(f'<polygon class="profile" points="{pts}" fill="none" stroke="steelblue"/>')
    c = centroid_region(profile_polygon)
    cx, cy = m.xy(c.x, c.y)
    body.append(f'<circle class="centroid" cx="{cx}" cy="{cy}" r="4.000000" fill="firebrick"/>')
    return _document(body)
