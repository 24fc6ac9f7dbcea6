"""Point-in-polygon decisions do not depend on which SIMD kernels numpy
dispatches to.

A seeded ``contains`` sample on a triangle, a 4-vertex ring and a 64-vertex
star is recomputed in a subprocess that disables every dispatched CPU feature
the host has (numpy's ``NPY_DISABLE_CPU_FEATURES``), so numpy runs its
baseline kernels there, sort included, and compared with the same sample
computed in this process.  The golden Monte Carlo estimates are rerun at the
baseline by a CI step that reads its feature list from here.

Run as a script, this module prints those values as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import indivisibles as iv

from conftest import star_polygon


def dispatched_features() -> list[str]:
    """The CPU features above numpy's baseline that this host has.  The CI
    step that reruns the golden-pin tests at numpy's baseline reads its list
    from here."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def pinned_values() -> dict:
    """The sha256 of a seeded ``contains`` sample on each ring.  A tenth of
    the points sit at vertex heights, so the sort meets ties; ties share
    every edge's slice, so no decision depends on their order."""
    rng = np.random.default_rng(20261019)
    rings = {
        "triangle": iv.Polygon([(1.5, -1.5), (4.5, -1.0), (2.0, 1.5)]),
        "quad": iv.Polygon([(1.5, -1.0), (4.5, -1.5), (4.0, 1.5), (2.5, 1.0)]),
        "star64": star_polygon(rng, 64, 64, center=(3.0, 0.0), r_min=0.5, r_max=1.0),
    }
    values = {}
    for name, poly in rings.items():
        xs, ys = rng.uniform(1.5, 4.5, 1 << 15), rng.uniform(-1.5, 1.5, 1 << 15)
        ys[::10] = rng.choice(poly.xy()[:, 1], len(ys[::10]))  # at vertex heights
        values[name] = hashlib.sha256(iv.contains(poly, xs, ys).tobytes()).hexdigest()
    return values


def test_pinned_values_match_at_numpy_baseline():
    features = dispatched_features()
    if not features:
        pytest.skip("numpy dispatches to no SIMD feature this host has")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    src = str(Path(iv.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, check=False, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == pinned_values()


if __name__ == "__main__":
    print(json.dumps(pinned_values()))
