"""The four benchmark workloads: seeded inputs, one pass, its digest.

fine_grid and cross_level generate their inputs here from the workload
seed with the standard library alone, so femlab receives only finished
data and a change to its samplers cannot change what they measure.
suites and canonical hand the seed to femlab, whose own sampler draws
their trials.  Sizes are chosen so that the work per pass barely depends
on the seed; only the values do.

Every potential lives on the polytope [0, 1]: its chord slopes lie there.

    canonical    `femlab run scenarios/canonical.json` in a child interpreter
    suites       the six property suites at count 20, in-process
    fine_grid    exact distances and a GH value on a 257-node grid
    cross_level  fresh BigSpaces on a 4-level family and its limit:
                 quasi-distances, level restriction, direct-limit laws
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Scratch files and the run log; PERFBENCH_OUT moves them (the benchmark's
# own tests do, so that their short runs stay out of the log).
WORKDIR = Path(os.environ.get("PERFBENCH_OUT", ROOT / ".perfbench_out"))
CHILD = Path(__file__).resolve().parent / "child.py"

SUITE_COUNT = 20
FINE_NODES = 257
FINE_DEN = 64
FINE_POINTS = 4
CROSS_LEVELS = ((0, 1), (0, Fraction(3, 4)), (0, Fraction(5, 8)), (0, Fraction(9, 16)))
CROSS_LIMIT = (0, Fraction(1, 2))
# Four small spaces rather than one large one: the cost of exact arithmetic
# follows the random slopes, and four independent groups average that out
# (about 5% spread in work across seeds, against 9% for one 5-member space).
CROSS_SPACES = 4
CROSS_CANDIDATES = 3
CROSS_CAP = 4.0
CROSS_SUP_BOUND = 3


def import_femlab():
    """Import femlab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "femlab" / "__init__.py").is_file():
        raise SystemExit("perfbench: no femlab sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import femlab

    if Path(femlab.__file__).resolve().parent != (src / "femlab").resolve():
        raise SystemExit("perfbench: femlab was imported from %s, not %s" % (femlab.__file__, src))
    return femlab


# --- input generation (stdlib only) ------------------------------------------


def reference_values(nodes):
    """Reference charging every node: chord slopes interpolate [0, 1] at piece midpoints."""
    x0, xm = nodes[0], nodes[-1]
    values = [Fraction(0)]
    for a, b in zip(nodes, nodes[1:]):
        values.append(values[-1] + Fraction(a + b - 2 * x0, 2 * (xm - x0)) * (b - a))
    return values


def sector_values(rng, nodes, den):
    """Random convex node values with chord slopes in [0, 1].

    The slopes are sorted multiples of 1/den; the first value is a multiple
    of 1/den in [-2, 2].
    """
    ks = sorted(rng.randint(0, den) for _ in range(len(nodes) - 1))
    values = [Fraction(rng.randint(-2 * den, 2 * den), den)]
    for k, a, b in zip(ks, nodes, nodes[1:]):
        values.append(values[-1] + Fraction(k, den) * (b - a))
    return values


def _normalized_values(rng, nodes, ref_values, den):
    """Full-polytope values shifted so that max(u - reference) over the line is 0.

    Both span the whole polytope, so the sup of the difference sits at a node.
    """
    values = sector_values(rng, nodes, den)
    top = max(u - r for u, r in zip(values, ref_values))
    return [u - top for u in values]


def _canonical_doc(seed):
    with open(ROOT / "scenarios" / "canonical.json") as fh:
        doc = json.load(fh)
    doc["samples"]["seed"] = seed
    for block in doc["experiments"]:
        if block["kind"] == "suite":
            block["seed"] = seed
    return doc


def generate(name, seed):
    """The plain-data inputs of one workload: rationals and lists only."""
    rng = random.Random(seed)
    if name == "canonical":
        return {"doc": _canonical_doc(seed)}
    if name == "suites":
        return {"seed": seed}
    if name == "fine_grid":
        half = FINE_NODES // 2
        nodes = list(range(-half, half + 1))
        points = [sector_values(rng, nodes, FINE_DEN) for _ in range(FINE_POINTS)]
        start = Fraction(rng.randint(0, 4), 8)
        return {
            "nodes": nodes,
            "reference": reference_values(nodes),
            "points": points,
            "sub_level": (start, start + Fraction(1, 2)),
        }
    if name == "cross_level":
        nodes = [-2, -1, 0, 1, 2]
        ref = reference_values(nodes)
        groups = [
            [_normalized_values(rng, nodes, ref, 8) for _ in range(CROSS_CANDIDATES)]
            for _ in range(CROSS_SPACES)
        ]
        return {"nodes": nodes, "reference": ref, "groups": groups}
    raise KeyError(name)


# --- set-up: hand the inputs to femlab -----------------------------------------


def build(fl, name, seed):
    """Generate the inputs and construct the femlab objects a pass starts from."""
    data = generate(name, seed)
    if name == "canonical":
        WORKDIR.mkdir(exist_ok=True)
        path = WORKDIR / ("canonical-%d.json" % seed)
        path.write_text(json.dumps(data["doc"], sort_keys=True))
        return {"scenario": str(path)}
    if name == "suites":
        return data
    if name == "fine_grid":
        grid = fl.Grid(nodes=tuple(data["nodes"]), polytope=(0, 1))
        ref = fl.make_pl(grid, data["reference"], 0, 1)
        full = fl.model_from_interval(grid, grid.polytope, ref)
        sub = fl.model_from_interval(grid, data["sub_level"], ref)
        return {
            "points": [fl.make_pl(grid, v, 0, 1) for v in data["points"]],
            "sub": sub,
            "full_ctx": fl.metric_context(full),
            "sub_ctx": fl.metric_context(sub),
        }
    if name == "cross_level":
        grid = fl.Grid(nodes=tuple(data["nodes"]), polytope=(0, 1))
        ref = fl.make_pl(grid, data["reference"], 0, 1)
        family = fl.family_from_intervals(grid, CROSS_LEVELS, CROSS_LIMIT, ref)
        groups = [[fl.make_pl(grid, v, 0, 1) for v in group] for group in data["groups"]]
        return {"family": family, "reference": ref, "groups": groups}
    raise KeyError(name)


# --- one pass --------------------------------------------------------------


class PassResult(NamedTuple):
    """What one pass did: items attempted and failed, and a digest of its outputs."""

    items: int
    failed: int
    digest: str
    child_rss_kb: int = 0


def _canonical_child(cmd, env, clock):
    """Run the child while this process, on the same CPU, keeps calibrating.

    The child runs for longer than the host keeps one speed, so a single
    calibration before it says little about the speed it ran at.  Sharing
    the CPU with the calibration loop samples that speed all along; both
    sides are timed in CPU seconds, which the sharing does not inflate.
    Not in traced runs: the child's spans are wall times.
    """
    calibs = []
    with open(WORKDIR / "canonical-stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, 0 if clock.traced else os.WNOHANG)
                if pid:
                    break
                calibs.append(calibrate(process_time))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    cpu = usage.ru_utime + usage.ru_stime
    if not calibs:
        calibs.append(calibrate(process_time))
    clock.add(cpu, cpu / statistics.mean(calibs), calibs)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def _canonical_pass(fl, inputs, clock, trace_file=None):
    out = WORKDIR / "canonical-artifacts"
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, str(CHILD), "cli"]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    cmd += ["--", "run", inputs["scenario"], "--out", str(out)]
    env = dict(os.environ)
    env.pop("FEM_LAB_OUT", None)
    returncode, rss_kb = _canonical_child(cmd, env, clock)
    digest = hashlib.sha256()
    if out.is_dir():
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return PassResult(1, 0 if returncode == 0 else 1, digest.hexdigest(), rss_kb)


def _suites_pass(fl, inputs, clock):
    digest = hashlib.sha256()
    items = failed = 0
    for name in fl.SUITES:
        records, summary = clock(fl.run_suite, name, inputs["seed"], SUITE_COUNT)
        items += len(records)
        failed += summary["failures"]
        for row in records + [summary]:
            digest.update(fl.dumps_canonical(row).encode() + b"\n")
    return PassResult(items, failed, digest.hexdigest())


def _fine_grid_sub_level(fl, inputs, x):
    images = [fl.model_project(inputs["sub"], u) for u in inputs["points"]]
    y = fl.space_from_potentials(inputs["sub_ctx"], images)
    return y, fl.gh_exact(x, y)


def _fine_grid_pass(fl, inputs, clock):
    x = clock(fl.space_from_potentials, inputs["full_ctx"], inputs["points"])
    y, gh = clock(_fine_grid_sub_level, fl, inputs, x)
    n = x.size
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Projection to a sub-level is 1-Lipschitz; GH is at most half the
    # identity correspondence's distortion.
    failed = sum(1 for i, j in pairs if not (0 <= y.d(i, j) <= x.d(i, j)))
    upper = max(abs(x.d(i, j) - y.d(i, j)) for i, j in pairs) / 2
    if not 0 <= gh <= upper:
        failed += 1
    rows = [[fl.rat_str(v) for v in row] for row in x.matrix + y.matrix] + [[fl.rat_str(gh)]]
    digest = hashlib.sha256(fl.dumps_canonical(rows).encode()).hexdigest()
    return PassResult(2 * len(pairs), failed, digest)


def _cross_level_space(fl, family, reference, candidates):
    """(items, failed, outputs) of one fresh BigSpace over one candidate group."""
    generator = fl.entropy_cap_filter(candidates, CROSS_CAP, fl.rat(CROSS_SUP_BOUND), reference)
    space = fl.BigSpace(family, generator)
    members = len(generator.members)
    # The full quasi-distance matrix first: its size is fixed by the member
    # and level counts, whereas the shortest-path searches below stop at a
    # seed-dependent point.  Run after it, they mostly hit the BigSpace
    # caches, so the work per pass does not depend on the seed.
    points = [space.point_from_member(k, i) for k in range(space.level_count) for i in range(members)]
    matrix = [fl.rat_str(space.quasi(p, q)) for a, p in enumerate(points) for q in points[a + 1:]]
    restriction = fl.level_restriction_check(space, space.limit_level, range(members))
    limit = fl.direct_limit_check(family, generator)
    levels = limit.witnesses["levels"]
    chains = restriction.witnesses["checked"]
    lipschitz_pairs = levels * (levels - 1) // 2 * members * (members - 1) // 2
    failed = (0 if restriction.passed else chains) + (0 if limit.passed else lipschitz_pairs)
    return len(matrix) + chains + lipschitz_pairs, failed, [matrix, restriction.as_dict(), limit.as_dict()]


def _cross_level_pass(fl, inputs, clock):
    items = failed = 0
    outputs = []
    for candidates in inputs["groups"]:
        n, bad, out = clock(_cross_level_space, fl, inputs["family"], inputs["reference"], candidates)
        items += n
        failed += bad
        outputs.append(out)
    digest = hashlib.sha256(fl.dumps_canonical(outputs).encode()).hexdigest()
    return PassResult(items, failed, digest)


PASSES = {
    "canonical": _canonical_pass,
    "suites": _suites_pass,
    "fine_grid": _fine_grid_pass,
    "cross_level": _cross_level_pass,
}

# What one item of each workload is (items_per_s and failed_ratio count them).
ITEMS = {
    "canonical": "scenario run",
    "suites": "property check",
    "fine_grid": "exact distance",
    "cross_level": "quasi-distance, checked chain or Lipschitz pair",
}


def calibrate(timer=perf_counter) -> float:
    """Seconds (by `timer`) for a fixed loop of small-operand stdlib Fraction arithmetic."""
    t0 = timer()
    acc = Fraction(0)
    for i in range(1, 2001):
        a = Fraction(i % 97 + 1, i % 89 + 2)
        b = Fraction(i % 13 + 1, i % 7 + 3)
        acc = a * b - a / b + (acc if acc < 10 else 0)
    return timer() - t0


class Clock:
    """Times the steps of one pass, each against a calibration run just before it.

    A shared host changes speed by up to 1.8x within a second, in bursts
    of 0.1 to 1 s.  One calibration per multi-second pass often catches a
    different speed than the pass ran at; one per step of a few tenths of
    a second mostly catches the same one.  `rel` sums each step's time in
    calibration units, `wall` its seconds, `calibs` the calibrations.  The
    canonical pass is one child process and adds its own step instead
    (see _canonical_child); `traced` says the run is a traced one.
    """

    def __init__(self, traced=False):
        self.traced = traced
        self.wall = 0.0
        self.rel = 0.0
        self.calibs = []

    def __call__(self, fn, *args):
        calib = calibrate()
        t0 = perf_counter()
        out = fn(*args)
        elapsed = perf_counter() - t0
        self.add(elapsed, elapsed / calib, [calib])
        return out

    def add(self, seconds, rel, calibs):
        self.wall += seconds
        self.rel += rel
        self.calibs.extend(calibs)


def setup_probe(name, seed):
    """(calibration seconds, seconds to import femlab and build the inputs).

    Meant for a fresh interpreter.  For canonical the pass itself runs in
    a child that starts from nothing, so only the import counts.
    """
    calib = calibrate()
    t0 = perf_counter()
    fl = import_femlab()
    if name != "canonical":
        build(fl, name, seed)
    return calib, perf_counter() - t0
