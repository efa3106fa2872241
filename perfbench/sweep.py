"""Scaling sweep: per-call time of each envelope kernel and of dist.

    python3 perfbench/sweep.py [--seed N]

Run from the root of a femlab checkout.  For every grid size in NODES and
slope lattice in DENS it builds two random full-sector potentials (the
benchmark's own generator) and times each kernel per call: at least
MIN_CALLS calls and MIN_SECONDS in all, reporting the median call.  The
lattice bounds how many distinct slopes a potential has, so it sets the
number of dual breakpoints; the node count sets the grid work.  Prints a
table in milliseconds, then one JSON line with the same numbers.  This is
a separate command, not a benchmark workload: it gives kernel changes
their asymptotics before and after.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

NODES = (3, 5, 17, 65, 257)
DENS = (8, 64)
MIN_CALLS = 5
MIN_SECONDS = 0.2
SUB_LEVEL = (Fraction(1, 4), Fraction(3, 4))


def time_call(fn) -> float:
    """Median seconds of one call of fn()."""
    times = []
    start = perf_counter()
    while len(times) < MIN_CALLS or perf_counter() - start < MIN_SECONDS:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kernels(fl, n, den, seed):
    """(name, zero-argument call) for every timed kernel on one configuration."""
    from femlab import grid_convex as gc

    rng = random.Random(seed)
    half = n // 2
    nodes = list(range(-half, half + 1))
    grid = fl.Grid(nodes=tuple(nodes), polytope=(0, 1))
    finer = fl.Grid(nodes=tuple(sorted(set(nodes) | {Fraction(2 * x + 1, 2) for x in nodes[:-1]})), polytope=(0, 1))
    ref = fl.make_pl(grid, workloads.reference_values(nodes), 0, 1)
    u = fl.make_pl(grid, workloads.sector_values(rng, nodes, den), 0, 1)
    v = fl.make_pl(grid, workloads.sector_values(rng, nodes, den), 0, 1)
    v_fine = gc.refine_to(v, finer)
    du, dv = gc.legendre(u), gc.legendre(v)
    top = gc.max_dual(du, dv)
    ctx = fl.metric_context(fl.model_from_interval(grid, grid.polytope, ref))
    sub = fl.model_from_interval(grid, SUB_LEVEL, ref)
    return [
        ("legendre", lambda: gc.legendre(u)),
        ("restrict_dual", lambda: gc.restrict_dual(du, *SUB_LEVEL)),
        ("max_dual", lambda: gc.max_dual(du, dv)),
        ("biconjugate", lambda: gc.biconjugate(top, grid)),
        ("refine_to", lambda: gc.refine_to(u, finer)),
        ("align", lambda: gc.align(u, v_fine)),
        ("pointwise_max", lambda: gc.pointwise_max(u, v)),
        ("rooftop", lambda: gc.rooftop(u, v)),
        ("model_project", lambda: gc.model_project(sub, u)),
        ("dist", lambda: fl.dist(ctx, u, v)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="per-call kernel timings over grid size and slope lattice")
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    fl = workloads.import_femlab()
    configs = [(n, den) for den in DENS for n in NODES]
    table = {}
    for n, den in configs:
        for name, call in kernels(fl, n, den, args.seed):
            table.setdefault(name, {})["%d/%d" % (n, den)] = time_call(call) * 1e3
    print("backend=%s python=%s seed=%d (ms per call)" % (fl.BACKEND, platform.python_version(), args.seed))
    print("%-14s" % "nodes/den" + " ".join("%9s" % ("%d/%d" % c) for c in configs))
    for name, row in table.items():
        print("%-14s" % name + " ".join("%9.3f" % row["%d/%d" % c] for c in configs))
    print(json.dumps({"backend": fl.BACKEND, "seed": args.seed, "unit": "ms", "per_call": table}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
