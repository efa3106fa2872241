"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds run records as perfbench/run.py appends them to
.perfbench_out/runs.jsonl.  Runs are grouped by (workload, seconds,
trace).  Within a group only the seeds run on both sides are compared, so
both sides measure the same inputs; the runs of those seeds are pooled, as
the benchmark's spreads are taken over seeds.  For every group, prints each
metric's median and quartiles on both sides and the change of the median
as a share of the first set's.  Runs with failed items are left out and
counted: an incorrect run's times do not measure the program.  Refuses
(exit 2) when the two sets ran on different rational backends: their
timings measure different arithmetic and are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def group(runs):
    """{(workload, seconds, trace): {seed: [run, ...]}}"""
    out = {}
    for run in runs:
        key = (run["workload"], run["seconds"], run["trace"])
        out.setdefault(key, {}).setdefault(run["seed"], []).append(run)
    return out


def values(by_seed, seeds):
    """{metric: [value of every run of `seeds`]}"""
    out = {}
    for seed in seeds:
        for run in by_seed[seed]:
            for name, metric in run["metrics"].items():
                out.setdefault(name, []).append(metric["value"])
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    backends = [sorted({r["meta"]["backend"] for r in runs}) for runs in (before, after)]
    if len(backends[0]) != 1 or backends[0] != backends[1]:
        print(
            "refusing to compare: backends %s vs %s" % ("/".join(backends[0]), "/".join(backends[1])),
            file=sys.stderr,
        )
        return 2
    print("backend %s; runs: %d before, %d after" % (backends[0][0], len(before), len(after)))
    correct = [[r for r in runs if r["failed"] == 0] for runs in (before, after)]
    for label, runs, kept in zip(("before", "after"), (before, after), correct):
        if len(kept) < len(runs):
            print("left out %d %s runs with failed items" % (len(runs) - len(kept), label))
    a, b = group(correct[0]), group(correct[1])
    for key in sorted(set(a) & set(b)):
        seeds = sorted(set(a[key]) & set(b[key]))
        if not seeds:
            print("%s seconds=%s trace=%d: no seed run on both sides" % key)
            continue
        print("%s seconds=%s trace=%d seeds=%s" % (key + (",".join(map(str, seeds)),)))
        va, vb = values(a[key], seeds), values(b[key], seeds)
        for name in sorted(set(va) & set(vb)):
            q_a, q_b = quartiles(va[name]), quartiles(vb[name])
            change = (q_b[1] - q_a[1]) / q_a[1] if q_a[1] else float("nan")
            print(
                "  %-44s %12.6g [%.6g, %.6g]  ->  %12.6g [%.6g, %.6g]  %+.1f%%"
                % (name, q_a[1], q_a[0], q_a[2], q_b[1], q_b[0], q_b[2], 100 * change)
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
