"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femlab import dumps_canonical, load_json, write_jsonl
from femlab.cli import main
from femlab.errors import ScheduleInvalid

SCENARIO = os.path.join(os.path.dirname(__file__), "..", "scenarios", "canonical.json")


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("FEM_LAB_OUT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "femlab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def read_all(out_dir):
    return {
        name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))
    }


def test_run_canonical_scenario_writes_every_artifact(tmp_path):
    proc = run_cli("run", SCENARIO, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "chain_2.json",
        "converge_1.json",
        "gh_3.csv",
        "gh_3.json",
        "suite_0_metric_axioms.jsonl",
    ]
    lines = (tmp_path / "suite_0_metric_axioms.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    summary = rows[-1]
    assert summary["failures"] == 0
    assert any(
        r.get("property") == "pythagoras" and r.get("pass") is True for r in rows[:-1]
    )
    chain = json.loads((tmp_path / "chain_2.json").read_text())
    assert chain["pass"] is True and chain["d"] == "1/4"
    converge = json.loads((tmp_path / "converge_1.json").read_text())
    assert converge["check"] == "monotone_distance_convergence"
    assert converge["pass"] is True
    assert converge["witnesses"]["distances"] == ["1/4", "7/32", "23/128", "79/512"]
    header = (tmp_path / "gh_3.csv").read_text().splitlines()[0]
    assert header == "cap,level,members,distortion,distortion_float"


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", SCENARIO, "--out", str(a)).returncode == 0
    assert run_cli("run", SCENARIO, "--out", str(b)).returncode == 0
    assert read_all(a) == read_all(b)


def test_env_var_overrides_the_out_flag(tmp_path):
    chosen, ignored = tmp_path / "env", tmp_path / "flag"
    proc = run_cli(
        "run", SCENARIO, "--out", str(ignored), env_extra={"FEM_LAB_OUT": str(chosen)}
    )
    assert proc.returncode == 0
    assert chosen.is_dir() and not ignored.exists()


def test_empty_scenario_succeeds_without_output(tmp_path):
    doc = {
        "grid": {"nodes": ["-1/1", "0/1", "1/1"], "polytope": ["0/1", "1/1"]},
        "reference": {"values": ["0/1", "1/4", "1/1"], "slope_left": "0/1", "slope_right": "1/1"},
        "experiments": [],
    }
    path = tmp_path / "empty.json"
    path.write_text(dumps_canonical(doc))
    out = tmp_path / "out"
    proc = run_cli("run", str(path), "--out", str(out))
    assert proc.returncode == 0
    assert not out.exists()


def test_nonconvex_potential_is_a_validation_error(tmp_path):
    doc = {
        "grid": {"nodes": ["-1/1", "0/1", "1/1"], "polytope": ["-1/1", "1/1"]},
        "reference": {"values": ["0/1", "1/4", "1/1"], "slope_left": "-1/1", "slope_right": "1/1"},
        "potentials": {"bad": {"values": ["0/1", "1/1", "0/1"], "slope_left": "-1/1", "slope_right": "1/1"}},
        "experiments": [{"kind": "suite", "suite": "chains", "seed": 1, "count": 1}],
    }
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(doc))
    proc = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ValidationError"
    assert "bad" in err["message"] and "decreases" in err["message"]


def test_unknown_suite_in_a_scenario_is_rejected(tmp_path):
    doc = {
        "grid": {"nodes": ["-1/1", "0/1", "1/1"], "polytope": ["0/1", "1/1"]},
        "reference": {"values": ["0/1", "1/4", "1/1"], "slope_left": "0/1", "slope_right": "1/1"},
        "experiments": [{"kind": "suite", "suite": "spectra", "seed": 1, "count": 1}],
    }
    path = tmp_path / "unknown.json"
    path.write_text(dumps_canonical(doc))
    proc = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "ValidationError"


def test_a_reference_mass_beyond_the_float_range_runs(tmp_path):
    # the reference charges both end nodes with 10^-400, so the caps of
    # the samples take logs of mass ratios that no float can hold
    doc = json.loads(open(SCENARIO).read())
    doc["reference"]["values"] = [0, "1/1" + "0" * 400, 1]
    del doc["potentials"]
    doc["experiments"] = [{"kind": "gh", "family": "nested", "caps": [1.0], "tolerance": 0.1}]
    path = tmp_path / "extreme.json"
    path.write_text(dumps_canonical(doc))
    out = tmp_path / "out"
    proc = run_cli("run", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(out)) == ["gh_0.csv", "gh_0.json"]


def test_failing_block_still_writes_evidence_then_exits_one(tmp_path):
    doc = json.loads(open(SCENARIO).read())
    keep = [b for b in doc["experiments"] if b["kind"] == "converge"]
    keep[0]["tolerance"] = 1e-9
    doc["experiments"] = keep
    path = tmp_path / "tight.json"
    path.write_text(dumps_canonical(doc))
    out = tmp_path / "out"
    proc = run_cli("run", str(path), "--out", str(out))
    assert proc.returncode == 1
    assert sorted(os.listdir(out)) == ["converge_0.json"]
    err = json.loads(proc.stderr)
    assert err["error"] == "AssertionFailed"
    assert err["witnesses"][0]["kind"] == "converge"


def test_suite_subcommand_streams_json_lines(tmp_path):
    proc = run_cli("suite", "metric_axioms", "--seed", "11", "--count", "6")
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows[-1]["failures"] == 0
    assert {r["property"] for r in rows[:-1]} >= {"symmetry", "pythagoras"}


def test_suite_subcommand_optionally_writes_the_lines(tmp_path):
    out = tmp_path / "suite_out"
    proc = run_cli("suite", "chains", "--seed", "4", "--count", "3", "--out", str(out))
    assert proc.returncode == 0
    lines = (out / "suite_chains.jsonl").read_text().splitlines()
    assert [json.loads(l) for l in lines] == [
        json.loads(l) for l in proc.stdout.splitlines()
    ]


def test_unknown_suite_name_exits_two():
    proc = run_cli("suite", "spectra", "--seed", "1")
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "UnknownSuite"


@pytest.mark.parametrize("count", ["-3", "0"])
def test_suite_count_below_one_exits_two(count):
    proc = run_cli("suite", "gh", "--seed", "1", "--count", count)
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "ValidationError"
    assert "--count must be at least 1" in err["message"]


def test_suite_block_with_count_zero_exits_two(tmp_path):
    doc = load_json(SCENARIO)
    doc["experiments"] = [{"kind": "suite", "suite": "chains", "seed": 1, "count": 0}]
    path = tmp_path / "zero.json"
    path.write_text(dumps_canonical(doc))
    out = tmp_path / "out"
    proc = run_cli("run", str(path), "--out", str(out))
    assert proc.returncode == 2
    assert not out.exists()
    err = json.loads(proc.stderr)
    assert proc.stderr == dumps_canonical(err) + "\n"
    assert err["error"] == "ParseError"
    assert "count must be a positive integer" in err["message"]


def _run_mutated_canonical(tmp_path, mutate):
    doc = load_json(SCENARIO)
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(dumps_canonical(doc))
    out = tmp_path / "out"
    proc = run_cli("run", str(path), "--out", str(out))
    return proc, out


def _set_block(kind, key, value):
    def mutate(doc):
        next(b for b in doc["experiments"] if b["kind"] == kind)[key] = value

    return mutate


def test_chain_block_with_no_steps_exits_two(tmp_path):
    proc, out = _run_mutated_canonical(tmp_path, _set_block("chain", "steps", []))
    assert proc.returncode == 2
    assert not out.exists()
    err = json.loads(proc.stderr)
    assert proc.stderr == dumps_canonical(err) + "\n"
    assert err["error"] == "ParseError"
    assert "steps must be a non-empty list" in err["message"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["samples"].update(cap="abc"),
        lambda d: d["samples"].update(sup_bound=True),
        _set_block("gh", "caps", ["x"]),
        _set_block("converge", "tolerance", "0.1"),
        lambda d: d.update(potentials=[1, 2]),
        lambda d: d.update(families=[1, 2]),
        _set_block("converge", "tolerence", 0.5),
        _set_block("gh", "caps", [-1.0]),
        lambda d: d["samples"].update(sup_bound=-1),
        _set_block("gh", "caps", [float("nan")]),
        _set_block("converge", "tolerance", float("nan")),
        _set_block("converge", "tolerance", -1),
        lambda d: d["samples"].update(cpa=0.5),
        lambda d: d["samples"].update(cap=float("nan")),
        _set_block("chain", "interval", [0, 2]),
        lambda d: d["families"]["nested"].update(levels=[[0, 2], [0, "3/4"]]),
        lambda d: d["families"]["nested"].update(levels=[[0, "5/8"], [0, "3/4"]], limit=[0, 1]),
    ],
    ids=[
        "cap",
        "sup_bound",
        "caps",
        "tolerance",
        "potentials",
        "families",
        "unknown_key",
        "caps_negative",
        "sup_bound_negative",
        "caps_nan",
        "tolerance_nan",
        "tolerance_negative",
        "samples_unknown_key",
        "samples_cap_nan",
        "chain_interval_outside",
        "family_level_outside",
        "gh_on_increasing_family",
    ],
)
def test_mistyped_scenario_fields_exit_two_without_a_traceback(tmp_path, mutate):
    proc, out = _run_mutated_canonical(tmp_path, mutate)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] in ("ParseError", "ValidationError")
    assert not out.exists()


def test_boolean_rational_in_a_scenario_exits_two(tmp_path):
    doc = {
        "grid": {"nodes": ["-1/1", "0/1", "1/1"], "polytope": ["0/1", "1/1"]},
        "reference": {"values": ["0/1", "1/4", True], "slope_left": "0/1", "slope_right": "1/1"},
        "experiments": [{"kind": "suite", "suite": "chains", "seed": 1, "count": 1}],
    }
    path = tmp_path / "bool.json"
    path.write_text(dumps_canonical(doc))
    proc = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "ParseError"
    assert "reference.values" in err["message"] and "bool" in err["message"]


def test_main_is_callable_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FEM_LAB_OUT", raising=False)
    code = main(["suite", "gh", "--seed", "2", "--count", "2"])
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[-1]["suite"] == "gh"


def test_library_errors_exit_two_with_json_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FEM_LAB_OUT", raising=False)

    def fail(*args, **kwargs):
        raise ScheduleInvalid("cap -1.0 keeps no candidates")

    expected = dumps_canonical(
        {"error": "ScheduleInvalid", "message": "cap -1.0 keeps no candidates"}
    )
    monkeypatch.setattr("femlab.cli.run_scenario", fail)
    assert main(["run", SCENARIO, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == expected + "\n"
    monkeypatch.setattr("femlab.cli.run_suite", fail)
    assert main(["suite", "gh", "--seed", "1", "--count", "1"]) == 2
    assert capsys.readouterr().err == expected + "\n"


def _write_huge_seed(path):
    doc = load_json(SCENARIO)
    doc["experiments"][0]["seed"] = 424242
    path.write_text(dumps_canonical(doc).replace("424242", "9" * 5000))


@pytest.mark.parametrize(
    "write, message",
    [(None, "cannot read"), (_write_huge_seed, "invalid JSON")],
    ids=["missing_path", "seed_of_5000_digits"],
)
def test_unreadable_scenarios_exit_two(tmp_path, write, message):
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    if write is not None:
        write(path)
    proc = run_cli("run", str(path), "--out", str(out))
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert proc.stderr == dumps_canonical(err) + "\n"
    assert err["error"] == "ParseError" and message in err["message"]
    assert not out.exists()


def test_other_exceptions_exit_three_with_json_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FEM_LAB_OUT", raising=False)

    def fail(*args, **kwargs):
        raise RuntimeError("unexpected")

    expected = dumps_canonical({"error": "RuntimeError", "message": "unexpected"})
    monkeypatch.setattr("femlab.cli.run_scenario", fail)
    assert main(["run", SCENARIO, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == expected + "\n"
    monkeypatch.setattr("femlab.cli.run_suite", fail)
    assert main(["suite", "gh", "--seed", "1", "--count", "1"]) == 3
    assert capsys.readouterr().err == expected + "\n"


@pytest.mark.parametrize(
    "argv",
    [("run", SCENARIO), ("suite", "gh", "--seed", "1", "--count", "1")],
    ids=["run", "suite"],
)
@pytest.mark.parametrize(
    "via_env, below",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["flag", "env", "flag-below", "env-below"],
)
def test_an_out_naming_an_existing_file_exits_two_before_any_work(tmp_path, argv, via_env, below):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = str(taken / "sub" if below else taken)
    if via_env:
        proc = run_cli(*argv, env_extra={"FEM_LAB_OUT": out})
    else:
        proc = run_cli(*argv, "--out", out)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert proc.stderr == dumps_canonical(err) + "\n"
    assert err["error"] == "ValidationError" and "not a directory" in err["message"]
    assert taken.read_text() == "keep"


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "required: command"),
        (("run", "x", "--bogus"), "unrecognized arguments: --bogus"),
        (("suite", "gh", "--seed", "x"), "invalid int value: 'x'"),
        (("run", SCENARIO, "--tolerance", "0.1"), "unrecognized arguments: --tolerance"),
    ],
    ids=["bare", "unknown_option", "bad_seed", "removed_tolerance"],
)
def test_usage_errors_exit_two_with_one_json_object(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert proc.stderr == dumps_canonical(err) + "\n"
    assert err["error"] == "ParseError" and message in err["message"]


def test_help_prints_usage_and_exits_zero():
    proc = run_cli("run", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: femlab run") and proc.stderr == ""


def test_suite_writes_its_file_before_it_prints(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FEM_LAB_OUT", raising=False)
    printed_before_write = []

    def spy(path, rows):
        printed_before_write.append(capsys.readouterr().out)
        write_jsonl(path, rows)

    monkeypatch.setattr("femlab.cli.write_jsonl", spy)
    out = tmp_path / "new" / "dir"
    assert main(["suite", "gh", "--seed", "1", "--count", "1", "--out", str(out)]) == 0
    assert printed_before_write == [""]
    assert (out / "suite_gh.jsonl").read_text() == capsys.readouterr().out


_CANONICAL = load_json(SCENARIO)
_DELETE = object()
_REPLACEMENTS = (
    _DELETE, None, True, -1, 0, 3, 0.5, float("nan"), float("inf"),
    "x", "1/3", "1/0", [], [0, 1], {},
)


def _paths(node, path=()):
    """Every key or index path below node, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_scenarios(draw):
    """The canonical scenario cut to one experiment block, one field replaced or removed."""
    doc = copy.deepcopy(_CANONICAL)
    doc["experiments"] = [draw(st.sampled_from(doc["experiments"]))]
    *parents, key = draw(st.sampled_from(list(_paths(doc))))
    target = doc
    for step in parents:
        target = target[step]
    value = draw(st.sampled_from(_REPLACEMENTS))
    if value is _DELETE:
        del target[key]
    else:
        target[key] = copy.deepcopy(value)
    return doc


@settings(max_examples=100)
@given(doc=_mutated_scenarios())
def test_mutated_scenarios_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "mutated.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write(dumps_canonical(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["run", path, "--out", out])
        err = stderr.getvalue()
        assert code in (0, 1, 2), err
        assert err == "" or err == dumps_canonical(json.loads(err)) + "\n"
        if code == 2:
            assert not os.path.exists(out)
