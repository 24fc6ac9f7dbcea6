"""Time the kernel primitives and a Monte Carlo volume on each built lane.

Times the uniform stream, the ordered sum and an end-to-end sphere
``mc_volume`` on the pure lane and, when the compiled extension is built, on
the compiled lane too.  On the way it checks that the pure ordered sum equals
a plain left-to-right Python loop, and that both lanes produce identical bits
when both are present.  The repository's benchmark proper is ``perfbench/``.

Usage: python benchmarks/bench_kernels.py [--samples N] [--repeat K]
"""

import argparse
import time

import numpy as np

import indivisibles._kernels as kernels
from indivisibles._kernels import _pure
from indivisibles.oracle import mc_volume

try:
    from indivisibles._kernels import _core
except ImportError:
    _core = None


def best_of(repeat, fn, *args, **kwargs):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def loop_sum(values, init):
    acc = float(init)
    for v in values.tolist():
        acc = acc + v
    return acc


def sphere_volume_estimate(samples):
    return mc_volume(
        lambda x, y, z: x * x + y * y + z * z <= 1.0,
        ((-1, 1), (-1, 1), (-1, 1)),
        samples,
        seed=42,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--samples", type=int, default=2_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    n = args.samples
    lanes = {"pure": _pure}
    if _core is not None:
        lanes["compiled"] = _core
    times = {}
    results = {}
    for lane, impl in lanes.items():
        stream = np.empty(n)
        times["uniform01", lane], _ = best_of(args.repeat, impl.fill_uniform01, stream, 42, 0)
        times["ordered_sum", lane], total = best_of(args.repeat, impl.ordered_sum, stream, 0.0)
        saved = kernels._impl
        try:
            kernels._impl = impl
            times["mc_volume(sphere)", lane], estimate = best_of(args.repeat, sphere_volume_estimate, n)
        finally:
            kernels._impl = saved
        results[lane] = (stream, total, estimate)

    stream, total, _ = results["pure"]
    if total != loop_sum(stream, 0.0):
        raise SystemExit("pure ordered_sum disagrees with the plain left-to-right loop")
    if _core is not None:
        (s_pure, t_pure, e_pure), (s_core, t_core, e_core) = results["pure"], results["compiled"]
        if not np.array_equal(s_pure, s_core):
            raise SystemExit("lanes disagree on the uniform stream")
        if t_pure != t_core:
            raise SystemExit("lanes disagree on the ordered sum")
        if e_pure != e_core:
            raise SystemExit("lanes disagree on the Monte Carlo estimate")

    header = f"{'kernel':<20} {'n':>10}" + "".join(f" {lane + ' [ms]':>14}" for lane in lanes)
    print(header + (f" {'speedup':>9}" if _core is not None else ""))
    for name in ("uniform01", "ordered_sum", "mc_volume(sphere)"):
        row = f"{name:<20} {n:>10}" + "".join(f" {times[name, lane] * 1e3:>14.2f}" for lane in lanes)
        if _core is not None:
            row += f" {times[name, 'pure'] / times[name, 'compiled']:>8.1f}x"
        print(row)
    print("\npure ordered_sum matches the plain loop")
    if _core is not None:
        print("all lane outputs bit-identical")
    else:
        print("compiled lane not built; measured the pure lane only")


if __name__ == "__main__":
    main()
