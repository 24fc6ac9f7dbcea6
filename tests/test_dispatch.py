"""Pinned bits do not depend on which SIMD kernels numpy dispatches to.

The golden Monte Carlo estimates and a seeded point-in-polygon sample are
recomputed in a subprocess that disables every dispatched CPU feature the
host has (numpy's ``NPY_DISABLE_CPU_FEATURES``), so numpy runs its baseline
kernels there, and compared with the same values computed in this process.

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
from test_oracle import GOLDEN, _golden_estimate


def dispatched_features() -> list[str]:
    """The CPU features above numpy's baseline that this host has.  The CI
    step that reruns the golden-pin tests at numpy's baseline reads its list
    from here."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def pinned_values() -> dict:
    """repr of each golden estimate's mean and stderr, and the sha256 of a
    seeded ``contains`` sample on a 64-vertex star."""
    values = {}
    for name in sorted(GOLDEN):
        est = _golden_estimate(name)
        values[name] = [repr(est.mean), repr(est.stderr)]
    rng = np.random.default_rng(20261019)
    poly = star_polygon(rng, 64, 64, center=(3.0, 0.0), r_min=0.5, r_max=1.0)
    xs, ys = rng.uniform(1.5, 4.5, 1 << 15), rng.uniform(-1.5, 1.5, 1 << 15)
    ys[::97] = rng.choice(poly.xy()[:, 1], len(ys[::97]))  # at vertex heights
    values["contains"] = hashlib.sha256(iv.contains(poly, xs, ys).tobytes()).hexdigest()
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
