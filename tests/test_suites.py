"""Property suites: deterministic, green, and honest about their counting."""

from __future__ import annotations

import pytest

from femlab import SUITES, Grid, make_pl, rat, run_suite, suites
from femlab.errors import BadReference, GridMismatch, UnknownSuite, ValidationError
from femlab.sampling import nondegenerate_reference

GRID3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
REF_ND = make_pl(GRID3, (0, rat(1, 4), 1), 0, 1)
HARNESS = {"nodes": (-2, -1, 0, 1, 2), "polytope": (0, 1)}
GRID5 = Grid(**HARNESS)


def test_suite_names_are_the_documented_six():
    assert SUITES == (
        "metric_axioms",
        "energy_identities",
        "measure_bounds",
        "contraction",
        "chains",
        "gh",
    )


@pytest.mark.parametrize("name", SUITES)
def test_every_suite_runs_green(name):
    records, summary = run_suite(name, seed=17, count=12)
    assert summary["suite"] == name
    assert summary["seed"] == 17
    assert summary["count"] == 12
    assert summary["failures"] == 0
    assert summary["passes"] == summary["checks"] == len(records)
    assert all(r["pass"] for r in records)
    assert all(r["seed"] == 17 for r in records)


@pytest.mark.parametrize("name", SUITES)
def test_suites_are_deterministic(name):
    first = run_suite(name, seed=23, count=8)
    second = run_suite(name, seed=23, count=8)
    assert first == second


def test_different_seeds_explore_different_witnesses():
    a, _ = run_suite("metric_axioms", seed=1, count=6)
    b, _ = run_suite("metric_axioms", seed=2, count=6)
    assert [r["witness"] for r in a] != [r["witness"] for r in b]


def test_count_zero_yields_summary_only():
    records, summary = run_suite("chains", seed=3, count=0)
    assert records == []
    assert summary["checks"] == summary["passes"] == summary["failures"] == 0


@pytest.mark.parametrize("count", [-1, -3, True, "2"])
def test_bad_counts_are_rejected(count):
    with pytest.raises(ValidationError, match="count must be a non-negative integer"):
        run_suite("chains", seed=3, count=count)


@pytest.mark.parametrize("seed", [None, True, 1.5, "1"])
def test_seeds_that_are_not_ints_are_rejected(seed):
    with pytest.raises(ValidationError, match="seed must be an integer"):
        run_suite("chains", seed=seed, count=5)


def test_unknown_suite_is_rejected():
    with pytest.raises(UnknownSuite):
        run_suite("spectra", seed=1, count=1)


def test_suites_accept_a_custom_harness():
    records, summary = run_suite(
        "metric_axioms", seed=11, count=5, grid=GRID3, reference=REF_ND
    )
    assert summary["failures"] == 0
    assert {r["property"] for r in records} >= {"symmetry", "triangle", "pythagoras"}


def test_records_are_json_ready():
    records, _ = run_suite("energy_identities", seed=5, count=4)
    for r in records:
        assert set(r) == {"property", "seed", "trial", "pass", "witness"}
        assert isinstance(r["pass"], bool)


def test_the_harness_is_built_once_per_process(monkeypatch):
    built = {"Grid": 0, "nondegenerate_reference": 0}
    for name in built:
        def counted(*args, _name=name, _real=getattr(suites, name), **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(suites, name, counted)
    for _ in range(2):
        for name in SUITES:
            run_suite(name, seed=1, count=2)
    assert built["Grid"] <= 1 and built["nondegenerate_reference"] <= 1, built


def test_levels_kept_by_the_shared_harness_reach_no_record():
    """Earlier runs fill the harness reference's memo; no record may depend on it."""
    for name in reversed(SUITES):
        run_suite(name, seed=2026, count=20)
    for name in SUITES:
        grid = Grid(**HARNESS)
        fresh = run_suite(name, 2026, 20, grid=grid, reference=nondegenerate_reference(grid))
        assert run_suite(name, seed=2026, count=20) == fresh


DEGENERATE = "reference is degenerate: its slope measure must charge every node"


@pytest.mark.parametrize(
    "grid, reference, error, text",
    [
        (None, REF_ND, GridMismatch, "reference lives on another grid"),
        (GRID5, REF_ND, GridMismatch, "reference lives on another grid"),
        (None, make_pl(Grid(nodes=(0, 1), polytope=(0, 2)), (0, 1), 0, 2), GridMismatch,
         "reference lives over a different polytope"),
        (None, make_pl(GRID5, (0, 0, 0, 0, 0), 0, 0), BadReference,
         "reference slope range [0/1, 0/1] must equal the polytope"),
        (None, make_pl(GRID5, (0, 0, 0, 0, 1), 0, 1), ValidationError, DEGENERATE),
        (GRID3, make_pl(GRID3, (0, 0, 1), 0, 1), ValidationError, DEGENERATE),
    ],
    ids=["another-grid", "another-grid-given", "another-polytope", "narrow", "no-mass", "no-mass-given-grid"],
)
def test_a_reference_the_scenario_reader_refuses_is_refused(grid, reference, error, text):
    with pytest.raises(error) as err:
        run_suite("metric_axioms", 1, 5, grid=grid, reference=reference)
    assert str(err.value) == text
