"""Deterministic SVG diagrams of the constructions.

All coordinates are emitted with a fixed format, so a given input always
produces byte-identical output.
"""

from __future__ import annotations

import numpy as np

from .exhaustion import _staircase_blocks
from .geometry import Disk, Point2, Polygon, WidthFunction, bounding_box, centroid_region
from .transforms import _teeth, unroll_disk

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
        return ",".join(self.xy(x, y))

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
    """The sawtooth unrolling: n teeth standing on a baseline of n chords.

    Each tooth is drawn as ``transforms.sawtooth_teeth`` stores it, from the
    same ``(n, 3, 2)`` array of the sawtooth's rows.
    """
    saw = unroll_disk(Disk(Point2(0.0, 0.0), r), n)
    # the baseline runs from the origin to the last chord end, the apexes reach the apothem
    (x0, x1), (y0, y1) = saw.box()
    m = _Mapper(x0, x1, y0, y1)
    body = [
        f'<line class="baseline" x1="{m.xy(x0, 0.0)[0]}" y1="{m.xy(x0, 0.0)[1]}" '
        f'x2="{m.xy(x1, 0.0)[0]}" y2="{m.xy(x1, 0.0)[1]}" '
        'stroke="black" stroke-width="1"/>'
    ]
    for tooth in _teeth(saw).tolist():
        pts = " ".join(m.pt(px, py) for px, py in tooth)
        body.append(f'<polygon class="tooth" points="{pts}" fill="none" stroke="steelblue"/>')
    return _document(body)


def render_bounds(width: WidthFunction, n: int) -> str:
    """Inner and outer staircase rectangles bracketing a width profile, as
    ``exhaustion`` reads them off the n-slab grid."""
    # each block is a view of buffers that the next one overwrites
    blocks = [(edges.copy(), lower.copy(), upper.copy()) for edges, lower, upper in _staircase_blocks(width, n)]
    a, b = width.domain
    m = _Mapper(a, b, 0.0, float(np.max(np.concatenate([upper for *_, upper in blocks]))))
    body = []
    for edges, lower, upper in blocks:
        for t0, t1, lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist(), lower.tolist(), upper.tolist()):
            w_px = _fmt((t1 - t0) * m.scale)
            for kind, height, stroke in (("outer", hi, "firebrick"), ("inner", lo, "seagreen")):
                sx, sy = m.xy(t0, height)
                body.append(f'<rect class="{kind}" x="{sx}" y="{sy}" width="{w_px}" '
                            f'height="{_fmt(height * m.scale)}" fill="none" stroke="{stroke}"/>')
    ts = np.linspace(a, b, 257)
    pts = " ".join(m.pt(float(t), float(w)) for t, w in zip(ts, width(ts)))
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
    pts = " ".join(m.pt(px, py) for px, py in profile_polygon.xy().tolist())
    body.append(f'<polygon class="profile" points="{pts}" fill="none" stroke="steelblue"/>')
    c = centroid_region(profile_polygon)
    cx, cy = m.xy(c.x, c.y)
    body.append(f'<circle class="centroid" cx="{cx}" cy="{cy}" r="4.000000" fill="firebrick"/>')
    return _document(body)
