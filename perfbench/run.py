"""femlab's benchmark: run one workload at one seed for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a femlab checkout; femlab is imported from src/.
Workloads are closed loops: one process runs one pass after another on one
thread (canonical runs each pass as one child interpreter, one at a time).
Each pass is a few steps; before each step a fixed stdlib-fractions loop
is timed (the calibration, workloads.calibrate).

End-to-end metrics (--trace 0), each gated by BENCHMARK.json:

    setup_s      import femlab and build the inputs, in a fresh interpreter;
                 median of SETUP_PROBES probes, each divided by the
                 calibration timed just before it and scaled to a host on
                 which the calibration takes CALIB_REF_S seconds
    pass_rel     median over passes of the pass time in calibration units:
                 the sum over its steps of step time / calibration time
                 (canonical: the child's CPU time / the mean CPU time of
                 the calibrations run on its CPU while it ran)
    peak_rss_mb  peak resident memory of the process that does the work

On a shared 2-CPU host the speed was measured to change by up to 1.8x
within and between runs, so raw times do not repeat within any usable
bound; they are printed for people (pass_s, items_per_s, setup_wall_s;
canonical's pass_s is the child's CPU time) and kept in the run record,
but not gated.  failed_ratio is printed too; it is not a gated metric
because it is 0 whenever the run is correct.

With --trace 1, untraced and traced passes alternate and the metrics are
the per-layer ones of tracing.py, per traced pass, plus
trace.overhead_ratio (traced / untraced median pass time).

The last line of stdout is the JSON result; earlier lines are for people:
run metadata, every metric with its unit, failed_ratio and the verdict.
Each run is also appended to .perfbench_out/runs.jsonl, which
perfbench/compare.py reads.

A pass is correct when its library checks pass, the child (if any) exits
0, its output digest equals that of the run's first pass, and, for seeds
listed in perfbench/digests.json, equals the digest recorded there.
Anything else counts every item of the pass as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("pass_rel", "ratio"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 7
CALIB_REF_S = 0.018
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_probes(name, seed):
    """(calibration, set-up) seconds from SETUP_PROBES fresh interpreters."""
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(workloads.CHILD), "setup", name, str(seed)],
            capture_output=True,
            text=True,
            check=True,
        )
        calib, setup = out.stdout.split()[-2:]
        probes.append((float(calib), float(setup)))
    return probes


def expected_digest(name, seed):
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def tail(values):
    """(percentile, value): the highest percentile with ten samples beyond it."""
    pct = tracing.tail_percentile(len(values))
    return pct, (tracing.percentile(sorted(values), pct) if pct else None)


def measure(name, seed, seconds, trace, expected=None):
    """One run: set up, then passes until `seconds` have elapsed.

    `expected` is the digest every pass must produce (None: only
    consistency across passes is required).  Returns the run record.
    """
    fl = workloads.import_femlab()
    workloads.WORKDIR.mkdir(exist_ok=True)
    probes = setup_probes(name, seed)
    inputs = workloads.build(fl, name, seed)
    run_pass = workloads.PASSES[name]
    tracer = tracing.Tracer() if trace else None
    trace_file = workloads.WORKDIR / ("trace-%s-%d.json" % (name, seed))
    import_s = []

    plain, traced, ratios, calibs = [], [], [], []
    attempted = failed = 0
    items_per_pass = 0
    child_rss_kb = 0
    first_digest = None
    deadline = perf_counter() + seconds
    while True:
        use_trace = trace and len(plain) > len(traced)
        clock = workloads.Clock(trace)
        if use_trace and name == "canonical":
            res = run_pass(fl, inputs, clock, trace_file)
            with open(trace_file) as fh:
                data = json.load(fh)
            import_s.append(data.pop("import_s"))
            tracer.merge(data)
        elif use_trace:
            with tracer.installed():
                res = run_pass(fl, inputs, clock)
            tracer.end_pass()
        else:
            res = run_pass(fl, inputs, clock)
            child_rss_kb = max(child_rss_kb, res.child_rss_kb)
            ratios.append(clock.rel)
            calibs.extend(clock.calibs)
        if first_digest is None:
            first_digest = res.digest
        bad_digest = res.digest != first_digest or (expected is not None and res.digest != expected)
        attempted += res.items
        failed += res.items if bad_digest else res.failed
        items_per_pass = res.items
        (traced if use_trace else plain).append(clock.wall)
        if perf_counter() >= deadline and (not trace or traced):
            break

    wall = {
        "pass_s": statistics.median(plain),
        "items_per_s": items_per_pass * len(plain) / sum(plain),
        "setup_wall_s": statistics.median(s for _, s in probes),
    }
    if trace:
        metrics = tracer.summary()
        metrics["cli.import_s"] = statistics.mean(import_s) if import_s else 0.0
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        units = dict(tracing.metric_specs())
        if name != "canonical":
            with open(workloads.WORKDIR / ("spans-%s-%d.jsonl" % (name, seed)), "w") as fh:
                tracer.write_spans(fh)
    else:
        rss_kb = child_rss_kb if name == "canonical" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": statistics.median(s / c for c, s in probes) * CALIB_REF_S,
            "pass_rel": statistics.median(ratios),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = dict(END_TO_END)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "meta": {
            "backend": fl.BACKEND,
            "python": platform.python_version(),
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
            "calib_s": statistics.median(calibs),
        },
        "passes": len(plain),
        "traced_passes": len(traced),
        "items_per_pass": items_per_pass,
        "pass_times": plain,
        "traced_pass_times": traced,
        "pass_rels": ratios,
        "calib_times": calibs,
        "setup_probes": probes,
        "wall": wall,
        "digest": first_digest,
        "expected_digest": expected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report(record):
    """Human-readable lines, then the one-line JSON result."""
    meta = record["meta"]
    print(
        "perfbench %s seed=%d seconds=%s trace=%d backend=%s python=%s rev=%s nproc=%s calib_s=%.6f"
        % (
            record["workload"],
            record["seed"],
            record["seconds"],
            record["trace"],
            meta["backend"],
            meta["python"],
            meta["git_rev"],
            meta["nproc"],
            meta["calib_s"],
        )
    )
    pct, pass_tail = tail(record["pass_times"])
    print(
        "passes=%d traced_passes=%d items_per_pass=%d (item: %s)"
        % (record["passes"], record["traced_passes"], record["items_per_pass"], workloads.ITEMS[record["workload"]])
    )
    wall = record["wall"]
    print(
        "raw times, not gated: pass_s median %.4f s over %d passes%s; items_per_s %.4f; setup_wall_s %.4f"
        % (
            wall["pass_s"],
            record["passes"],
            ", p%d %.4f s" % (pct, pass_tail) if pct else "",
            wall["items_per_s"],
            wall["setup_wall_s"],
        )
    )
    for name, m in record["metrics"].items():
        print("  %-44s %-14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-44s %-14.6g %s" % ("failed_ratio", record["failed"] / record["attempted"], "ratio"))
    if record["expected_digest"] is None:
        rule = "same digest on every pass"
    else:
        rule = "every pass matches the recorded digest"
    verdict = "correct" if record["failed"] == 0 else "INCORRECT"
    print("verdict: %s (%s; digest %s)" % (verdict, rule, record["digest"]))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            },
            sort_keys=True,
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="femlab benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the calibration, the passes and every child: the two CPUs
    # of a shared host are slowed by different neighbours, so a ratio of
    # times taken on different CPUs would measure the neighbours.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), expected_digest(args.workload, args.seed)
    )
    with open(workloads.WORKDIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
