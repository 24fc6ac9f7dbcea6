"""Results do not depend on which SIMD kernels numpy dispatches to.

A seeded ``contains`` sample on a triangle, a 4-vertex ring and a 64-vertex
star, and seeded values of the numpy functions whose float64 bits IEEE 754
does not fix, are recomputed in a subprocess that disables every dispatched
CPU feature the host has (numpy's ``NPY_DISABLE_CPU_FEATURES``), so numpy
runs its baseline kernels there, sort included, and compared with the same
values computed in this process.  The CLI byte pins and the golden Monte
Carlo pins are rerun at the same baseline, as a pytest run in a subprocess.
The golden pins are also rerun in a subprocess pinned to one CPU, where the
Monte Carlo oracle starts no thread, so they hold at one worker and at one
per CPU of this host.

An AST scan keeps ``src/`` to the numpy names in ``NUMPY_NAMES``, so a
function that is not backed here cannot slip in.  ``np.exp``, for one, gives
different bits on numpy's AVX-512 path than at its baseline.

Run as a script, this module prints those values as JSON.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import indivisibles as iv

from conftest import REPO_ROOT, star_polygon

# Every np.<name> and np.<name>.<attr> that src/ uses.  Each is exact
# (indexing, integer and comparison functions, dtypes), one IEEE 754 operation
# per element (arithmetic, sqrt), or a fixed sequence of those (cumsum,
# add.accumulate, linspace, divmod), except those in UNFIXED, which
# pinned_values hashes at both dispatch levels.  complex128 only views pairs
# of float64 as one value: a complex add is an IEEE add of each part, so a
# complex add.accumulate is its two float64 chains bit for bit at every
# dispatch level.  Add a name only with that backing.
NUMPY_NAMES = frozenset({
    "abs", "add", "add.accumulate", "any", "arange", "argmax", "argsort", "array", "asarray",
    "ascontiguousarray", "bitwise_xor", "broadcast_shapes", "broadcast_to", "column_stack",
    "complex128", "concatenate", "cos", "count_nonzero", "cumsum", "diff", "divmod", "empty", "empty_like",
    "errstate", "flatnonzero", "float64", "fromiter", "hypot", "int64", "intp", "isfinite",
    "linspace", "max", "maximum", "min", "minimum", "multiply", "ndarray",
    "repeat", "result_type", "right_shift", "searchsorted", "shape", "sin", "sort", "sqrt",
    "stack", "subtract", "take", "uint64", "where", "zeros", "zeros_like",
})
# sin, cos and hypot are approximations whose last bit is the library's
# choice.  Each is taken over seeded x and y.
UNFIXED = {
    "sin": lambda x, y: np.sin(x),
    "cos": lambda x, y: np.cos(x),
    "hypot": np.hypot,
}


def dispatched_features() -> list[str]:
    """The CPU features above numpy's baseline that this host has."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def pinned_values() -> dict:
    """The sha256 of a seeded ``contains`` sample on each ring, and of each
    ``UNFIXED`` function over seeded values.  A tenth of the points sit at
    vertex heights, so the sort meets ties; ties share every edge's slice,
    so no decision depends on their order."""
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
    # magnitudes from 1e-3 to 1e3
    x, y = rng.uniform(-1.0, 1.0, (2, 1 << 16)) * 10.0 ** rng.integers(-3, 4, (2, 1 << 16))
    for name, f in UNFIXED.items():
        values[f"np.{name}"] = hashlib.sha256(f(x, y).tobytes()).hexdigest()
    return values


def test_src_uses_only_backed_numpy_names():
    used = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        names = set()  # each np.<name> as <name>, each np.<name>.<attr> also as <name>.<attr>
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # numpy reached under another name would escape the scan
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("numpy"), f"{path}:{node.lineno}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert (alias.name, alias.asname) == ("numpy", "np") or not alias.name.startswith("numpy"), \
                        f"{path}:{node.lineno}"
            elif isinstance(node, ast.Attribute):
                inner = node.value
                if isinstance(inner, ast.Name) and inner.id == "np":
                    names.add(node.attr)
                elif isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name) and inner.value.id == "np":
                    names.add(f"{inner.attr}.{node.attr}")
        assert names <= NUMPY_NAMES, f"{path} uses numpy names with no dispatch backing: {sorted(names - NUMPY_NAMES)}"
        used |= names
    assert UNFIXED.keys() <= NUMPY_NAMES
    assert used == NUMPY_NAMES, f"allow-listed but unused: {sorted(NUMPY_NAMES - used)}"


def _python(*args, **env):
    """Python run on ``args`` with ``env`` added to the environment and this
    package importable."""
    env = dict(os.environ, **env)
    src = str(Path(iv.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=REPO_ROOT, capture_output=True, text=True, check=False, timeout=300
    )


def _at_numpy_baseline(*args):
    """``_python(*args)`` with every dispatched CPU feature disabled, or a
    skip when numpy dispatches to none."""
    features = dispatched_features()
    if not features:
        pytest.skip("numpy dispatches to no SIMD feature this host has")
    return _python(*args, NPY_DISABLE_CPU_FEATURES=" ".join(features))


def test_pinned_values_match_at_numpy_baseline():
    proc = _at_numpy_baseline(__file__)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == pinned_values()


def test_golden_pins_hold_at_numpy_baseline():
    # every CLI byte pin, and each golden Monte Carlo estimate
    proc = _at_numpy_baseline(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "-W", "error::RuntimeWarning",
        "tests/test_cli_bytes.py", "tests/test_oracle.py", "-k", "test_cli_bytes or golden",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_golden_pins_hold_at_one_worker():
    # The Monte Carlo oracle counts on one worker per CPU this process may
    # use; pinned to one CPU, it counts every chunk in the caller.
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("this platform cannot pin a process to one CPU")
    proc = _python("-c", (
        "import os, sys, pytest\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '-W', 'error::RuntimeWarning',"
        " 'tests/test_oracle.py', '-k', 'golden']))"
    ))
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    print(json.dumps(pinned_values()))
