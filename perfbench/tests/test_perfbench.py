"""The benchmark's own checks: its output contract, its inputs, its gate.

Run from the root of the checkout:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Send scratch files and the run log to a temporary directory, here and in children."""
    monkeypatch.setenv("PERFBENCH_OUT", str(tmp_path))
    monkeypatch.setattr(workloads, "WORKDIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, kind, workdir):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canonical", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (workdir / "runs.jsonl").is_file()
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    assert dict(tracing.metric_specs()) == _declared("per_layer")


@pytest.mark.parametrize("name", sorted(workloads.PASSES))
def test_seed_changes_the_outputs(name, workdir):
    """A pass at seed 2 gives seed 2's recorded digest, not seed 1's.

    suites and canonical hand the seed to femlab's own sampler, so their
    inputs can only be told apart by what femlab makes of them.
    """
    with open(run.DIGESTS) as fh:
        recorded = json.load(fh)[name]
    fl = workloads.import_femlab()
    res = workloads.PASSES[name](fl, workloads.build(fl, name, 2), workloads.Clock())
    assert res.failed == 0
    assert res.digest == recorded["2"]
    assert res.digest != recorded["1"]
    assert workloads.generate(name, 1) == workloads.generate(name, 1)


def test_corrupted_expected_digest_shows_as_failures(workdir):
    record = run.measure("suites", 1, 0.01, False, expected="0" * 64)
    assert record["attempted"] > 0
    assert record["failed"] / record["attempted"] > 0


def test_tracer_restores_every_patched_name():
    fl = workloads.import_femlab()
    from femlab import bigspace, grid_convex

    before = (fl.dist, bigspace.dist, grid_convex.GridPLConvex.__post_init__, bigspace.BigSpace.quasi)
    with tracing.Tracer().installed():
        assert bigspace.dist is not before[1]
        assert grid_convex.GridPLConvex.__post_init__ is not before[2]
    after = (fl.dist, bigspace.dist, grid_convex.GridPLConvex.__post_init__, bigspace.BigSpace.quasi)
    assert after == before
