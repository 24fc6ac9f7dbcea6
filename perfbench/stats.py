"""Order statistics and rates over the benchmark's timing samples."""

from __future__ import annotations

import statistics

TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (q in [0, 100]) of the values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    for q in TAIL_CANDIDATES:
        if count * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return None


def timing(values) -> dict:
    """Median and the tail percentile that the sample count supports."""
    out = {"p50": statistics.median(values), "samples": len(values)}
    q = tail_percentile(len(values))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def rate(records, kind: str, unit: float) -> float:
    """Work of one operation kind per second of its own time, in ``unit``s."""
    chosen = [r for r in records if r["kind"] == kind]
    seconds = sum(r["seconds"] for r in chosen)
    return sum(r["work"] for r in chosen) / seconds / unit if seconds > 0 else 0.0


def per_pass_total(records, kind: str) -> float:
    """Median over passes of the time one pass spends in one operation kind."""
    totals: dict[int, float] = {}
    for r in records:
        if r["kind"] == kind:
            totals[r["pass"]] = totals.get(r["pass"], 0.0) + r["seconds"]
    return statistics.median(totals.values()) if totals else 0.0
