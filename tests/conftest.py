"""Shared fixtures and generators for the test suite."""

import math
from pathlib import Path

import numpy as np
import pytest

from indivisibles import CircleArc, Point2, Polygon, Polyline, SlabRegion

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS_DIR = REPO_ROOT / "scripts"
DATA_DIR = Path(__file__).resolve().parent / "data"


def star_polygon(rng: np.random.Generator, n_min=4, n_max=12, center=(0.0, 0.0), r_min=0.5, r_max=2.0) -> Polygon:
    """Random star-shaped (hence simple) polygon around ``center``."""
    n = int(rng.integers(n_min, n_max + 1))
    # jittered but strictly increasing angles keep vertices distinct
    jitter = rng.uniform(0.1, 0.9, n)
    angles = 2.0 * math.pi * (np.arange(n) + jitter) / n
    radii = rng.uniform(r_min, r_max, n)
    cx, cy = center
    pts = [(cx + r * math.cos(a), cy + r * math.sin(a)) for r, a in zip(radii, angles)]
    return Polygon(pts)


def rigid_motion(rng: np.random.Generator):
    """Random rotation + translation as a Point2 -> Point2 callable."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    tx, ty = rng.uniform(-5.0, 5.0, 2)
    c, s = math.cos(theta), math.sin(theta)

    def apply(p: Point2) -> Point2:
        return Point2(c * p.x - s * p.y + tx, s * p.x + c * p.y + ty)

    return apply


def scalar_part_means(s0: float, s1: float, power: int) -> list[float]:
    """The means of max(s, 0)**power and max(-s, 0)**power over one segment
    along which s runs linearly from s0 to s1, in plain floats: with p0, p1
    the parts at the ends, (p0 + p1) / 2 or (p0^2 + p0 p1 + p1^2) / 3, times
    the share (p0 + p1) / |s1 - s0| of the segment where s changes sign."""
    means = []
    for p0, p1 in ((max(s0, 0.0), max(s1, 0.0)), (max(-s0, 0.0), max(-s1, 0.0))):
        mean = (p0 + p1) / 2.0 if power == 1 else (p0 * p0 + p0 * p1 + p1 * p1) / 3.0
        if (s0 > 0.0) != (s1 > 0.0):
            mean *= (p0 + p1) / abs(s1 - s0)
        means.append(mean)
    return means


def scalar_side_moments(shape, line) -> tuple[float, float]:
    """Side moments of a polyline, slab region, polygon or half-disk in a
    scalar loop, edge by edge or slab by slab, with the signed distance and
    the first moment written out: the reference that the array forms match
    bit for bit.  A polyline and a slab's midline give length times each
    part's mean; a region whose box lies on one side of the line gives its
    whole first moment to that side, and otherwise each boundary edge p -> q
    gives (n x (q - p)) / 2 times the mean of each part squared, with the
    sign of its side.  An arc's rule is scalar code already, so a half-disk's
    arc gives its own ``_flux``."""
    (nx, ny), px, py = line.normal(), line.point.x, line.point.y

    def dist(x, y):
        return nx * (x - px) + ny * (y - py)

    pos = neg = 0.0
    if isinstance(shape, Polyline):
        for p, q in shape.edges():
            seg = math.hypot(q.x - p.x, q.y - p.y)
            if seg != 0.0:  # so that no 0 * inf gives nan
                above, below = scalar_part_means(dist(p.x, p.y), dist(q.x, q.y), 1)
                pos, neg = pos + seg * above, neg + seg * below
        return pos, neg
    if isinstance(shape, SlabRegion):
        a, b = shape.width.domain
        h = (b - a) / shape.quadrature_slabs
        mids = a + (np.arange(shape.quadrature_slabs, dtype=np.float64) + 0.5) * h
        halves = np.asarray(shape.width(mids), dtype=np.float64) / 2.0
        for y, half in zip(mids.tolist(), halves.tolist()):
            if half > 0.0:
                above, below = scalar_part_means(dist(-half, y), dist(half, y), 1)
                pos, neg = pos + 2.0 * half * above * h, neg + 2.0 * half * below * h
        return pos, neg
    (x0, x1), (y0, y1) = shape.box()
    corners = [dist(x, y) for x in (x0, x1) for y in (y0, y1)]
    if min(corners) >= 0.0 or max(corners) <= 0.0:
        area, sx, sy = shape.measures()
        moment = nx * (sx - px * area) + ny * (sy - py * area)
        return max(moment, 0.0), max(-moment, 0.0)
    pos = neg = 0
    for piece in shape._pieces():
        if isinstance(piece, CircleArc):
            above, below = piece._flux(line)
        else:
            above = below = 0.0
            pts = piece.points + piece.points[:1] if piece.closed else piece.points
            for p, q in zip(pts, pts[1:]):
                half_cross = 0.5 * (nx * (q.y - p.y) - ny * (q.x - p.x))
                up, down = scalar_part_means(dist(p.x, p.y), dist(q.x, q.y), 2)
                above, below = above + half_cross * up, below + half_cross * down
            below = -below
        pos, neg = pos + above, neg + below
    return max(pos, 0.0), max(neg, 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
