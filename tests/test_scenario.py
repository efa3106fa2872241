"""Scenario documents: parsing, validation wording, block execution."""

from __future__ import annotations

import copy
import csv
import json
import os
import random
from fractions import Fraction

import pytest

from femlab import (
    Scenario,
    load_json,
    nested_family_distortions,
    parse_scenario,
    rat_str,
    run_scenario,
)
from femlab.errors import AssertionFailed, ParseError, ValidationError
from femlab.sampling import random_candidates

SCENARIO = os.path.join(os.path.dirname(__file__), "..", "scenarios", "canonical.json")


def base_doc():
    return {
        "grid": {"nodes": ["-1/1", "0/1", "1/1"], "polytope": ["0/1", "1/1"]},
        "reference": {
            "values": ["0/1", "1/4", "1/1"],
            "slope_left": "0/1",
            "slope_right": "1/1",
        },
        "experiments": [{"kind": "suite", "suite": "chains", "seed": 1, "count": 2}],
    }


def _set_first(doc, kind, key, value):
    next(b for b in doc["experiments"] if b["kind"] == kind)[key] = value


def test_canonical_file_parses():
    scn = parse_scenario(load_json(SCENARIO))
    assert set(scn.potentials) == {"tent", "ramp"}
    assert set(scn.families) == {"nested"}
    assert len(scn.experiments) == 4
    assert scn.samples["seed"] == 2026


def test_scenario_is_a_frozen_value_with_its_own_dicts():
    a, b = Scenario(), Scenario(experiments=())
    assert a == b and a.potentials == a.families == {} and a.samples is None
    assert a.potentials is not b.potentials and a.families is not b.families
    with pytest.raises(AttributeError):
        a.experiments = ()
    scn = parse_scenario(load_json(SCENARIO))
    assert scn == parse_scenario(load_json(SCENARIO))
    rebuilt = Scenario(
        grid=scn.grid,
        reference=scn.reference,
        potentials=scn.potentials,
        families=scn.families,
        samples=scn.samples,
        experiments=scn.experiments,
    )
    assert rebuilt == scn and repr(rebuilt) == repr(scn)


def test_document_must_be_an_object():
    with pytest.raises(ParseError, match="JSON object"):
        parse_scenario([1, 2])
    with pytest.raises(ParseError, match="experiments must be a list"):
        parse_scenario({"experiments": {"kind": "suite"}})


def test_empty_experiments_skip_all_other_validation():
    scn = parse_scenario({"experiments": []})
    assert scn.experiments == ()
    assert run_scenario({"experiments": []}, "/nonexistent/never-created") == []


def test_unknown_top_level_keys_are_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="unknown scenario keys: extra"):
        parse_scenario(doc)


def test_floats_are_not_rationals():
    doc = base_doc()
    doc["reference"]["values"][1] = 0.25
    with pytest.raises(ParseError, match='write the rational as "p/q"'):
        parse_scenario(doc)


def test_booleans_are_not_rationals():
    doc = base_doc()
    doc["reference"]["slope_left"] = False
    with pytest.raises(ParseError, match="reference.slope_left: .*bool"):
        parse_scenario(doc)
    doc = base_doc()
    doc["reference"]["values"][2] = True
    with pytest.raises(ParseError, match="reference.values: .*bool"):
        parse_scenario(doc)


@pytest.mark.parametrize("literal", ["0.25", "1e3", " 1/2", "1/4 ", "+1", "1/-4", ""])
def test_rationals_follow_the_strict_grammar(literal):
    doc = base_doc()
    doc["reference"]["values"][1] = literal
    with pytest.raises(ParseError, match='reference.values: expected an integer or a "p/q" string'):
        parse_scenario(doc)


def test_integers_and_signed_p_over_q_strings_are_rationals():
    doc = base_doc()
    doc["grid"]["nodes"] = [-1, "0", "1/1"]
    doc["reference"]["values"] = ["0", "1/4", 1]
    doc["potentials"] = {"p": {"values": ["-1/2", "-1/2", "1/2"], "slope_left": 0, "slope_right": 1}}
    scn = parse_scenario(doc)
    assert scn.grid.nodes == (-1, 0, 1)
    assert scn.potentials["p"].values[0] == Fraction(-1, 2)


def test_chain_interval_is_parsed_once_into_the_block():
    doc = load_json(SCENARIO)
    assert parse_scenario(doc).experiments[2]["interval"] == (0, 1)
    _set_first(doc, "chain", "interval", ["0", "1/2"])
    assert parse_scenario(doc).experiments[2]["interval"] == (0, Fraction(1, 2))


def test_missing_tolerances_are_filled_in_and_given_ones_kept():
    doc = load_json(SCENARIO)
    given = {b["kind"]: b["tolerance"] for b in doc["experiments"] if "tolerance" in b}
    assert given == {"converge": 0.1, "gh": 0.1}
    blocks = {b["kind"]: b for b in parse_scenario(doc).experiments}
    assert blocks["converge"]["tolerance"] == blocks["gh"]["tolerance"] == 0.1
    for block in doc["experiments"]:
        block.pop("tolerance", None)
    blocks = {b["kind"]: b for b in parse_scenario(doc).experiments}
    assert blocks["converge"]["tolerance"] == blocks["gh"]["tolerance"] == 1e-9
    assert "tolerance" not in blocks["suite"] and "tolerance" not in blocks["chain"]


def test_empty_intervals_are_rejected():
    doc = base_doc()
    doc["families"] = {"f": {"levels": [["1/2", "1/2"]], "limit": ["0/1", "1/2"]}}
    doc["experiments"] = [
        {"kind": "converge", "family": "f", "first": "a", "second": "a"}
    ]
    with pytest.raises(ValidationError, match="is empty"):
        parse_scenario(doc)


def test_degenerate_reference_is_rejected():
    doc = base_doc()
    # middle value on the chord: the slope measure misses the middle node
    doc["reference"]["values"] = ["0/1", "1/2", "1/1"]
    with pytest.raises(ValidationError, match="reference is degenerate"):
        parse_scenario(doc)


def test_nonconvex_potential_names_the_chord_pair():
    doc = base_doc()
    doc["potentials"] = {
        "bad": {"values": ["0/1", "1/1", "0/1"], "slope_left": "0/1", "slope_right": "1/1"}
    }
    with pytest.raises(ValidationError, match="potentials.bad.*decreases"):
        parse_scenario(doc)


def test_named_potentials_must_span_the_polytope():
    doc = base_doc()
    doc["potentials"] = {
        "narrow": {"values": ["0/1", "0/1", "1/2"], "slope_left": "0/1", "slope_right": "1/2"}
    }
    with pytest.raises(ValidationError, match="full-space"):
        parse_scenario(doc)


def test_bad_family_schedules_are_validation_errors():
    doc = base_doc()
    doc["families"] = {
        "f": {"levels": [["0/1", "3/4"], ["0/1", "3/4"]], "limit": ["0/1", "1/2"]}
    }
    with pytest.raises(ValidationError, match="families.f"):
        parse_scenario(doc)


def test_unresolved_names_are_caught():
    doc = base_doc()
    doc["experiments"] = [{"kind": "chain", "base": "ghost", "other": "ghost"}]
    with pytest.raises(ValidationError, match="unknown potential 'ghost'"):
        parse_scenario(doc)
    doc["experiments"] = [
        {"kind": "converge", "family": "ghost", "first": "a", "second": "b"}
    ]
    with pytest.raises(ValidationError, match="unknown family 'ghost'"):
        parse_scenario(doc)


def test_unknown_kinds_and_suites():
    doc = base_doc()
    doc["experiments"] = [{"kind": "prove"}]
    with pytest.raises(ValidationError, match="unknown kind 'prove'"):
        parse_scenario(doc)
    doc["experiments"] = [{"kind": "suite", "suite": "spectra", "seed": 1, "count": 1}]
    with pytest.raises(ValidationError, match="unknown suite 'spectra'"):
        parse_scenario(doc)


def test_seed_and_count_must_be_honest_integers():
    doc = base_doc()
    doc["experiments"][0]["seed"] = "1"
    with pytest.raises(ParseError, match="seed must be an integer"):
        parse_scenario(doc)
    doc = base_doc()
    for count in (-3, 0):
        doc["experiments"][0]["count"] = count
        with pytest.raises(ParseError, match="count must be a positive integer"):
            parse_scenario(doc)
    doc = base_doc()
    doc["experiments"][0]["seed"] = True
    with pytest.raises(ParseError, match="seed must be an integer"):
        parse_scenario(doc)


def test_chain_steps_must_be_positive_integers():
    doc = load_json(SCENARIO)
    for block in doc["experiments"]:
        if block["kind"] == "chain":
            block["steps"] = [1, 0]
    with pytest.raises(ParseError, match="steps must be positive integers"):
        parse_scenario(doc)
    _set_first(doc, "chain", "steps", [])
    with pytest.raises(ParseError, match="steps must be a non-empty list"):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "kind, key",
    [("suite", "tolerance"), ("converge", "tolerence"), ("chain", "seed"), ("gh", "count")],
)
def test_unknown_block_keys_are_rejected(kind, key):
    doc = load_json(SCENARIO)
    _set_first(doc, kind, key, 1)
    with pytest.raises(ValidationError, match="unknown keys for a %s block: %s" % (kind, key)):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["grid"].update(step=1), "grid: unknown keys: step"),
        (lambda d: d["reference"].update(slope=0), "reference: unknown keys: slope"),
        (lambda d: d["potentials"]["tent"].update(value=[0]), "potentials.tent: unknown keys: value"),
        (lambda d: d["families"]["nested"].update(limits=[0, 1]), "nested: unknown keys: limits"),
        (lambda d: d["samples"].update(cpa=0.5, bound=1), "samples: unknown keys: bound, cpa"),
        (lambda d: _set_first(d, "converge", "tolerance", -1), "tolerance must be non-negative"),
        (lambda d: _set_first(d, "gh", "caps", [1.0, -0.5]), "caps must be non-negative"),
    ],
)
def test_unknown_nested_keys_and_negative_bounds_are_rejected(mutate, message):
    doc = load_json(SCENARIO)
    mutate(doc)
    with pytest.raises(ValidationError, match=message):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["samples"].update(cap="abc"), "samples.cap must be a number"),
        (lambda d: d["samples"].update(sup_bound=True), "samples.sup_bound must be a number"),
        (lambda d: _set_first(d, "gh", "caps", [1.0, "x"]), "caps must be a number"),
        (lambda d: _set_first(d, "gh", "caps", [False]), "caps must be a number"),
        (lambda d: _set_first(d, "converge", "tolerance", "0.1"), "tolerance must be a number"),
        (lambda d: _set_first(d, "gh", "tolerance", None), "tolerance must be a number"),
        (lambda d: d.update(potentials=[1, 2]), "potentials: expected an object"),
        (lambda d: d.update(families=[1, 2]), "families: expected an object"),
        (lambda d: d["families"].update(nested=3), "families.nested: expected an object"),
        (lambda d: d.update(samples=[1]), "samples: expected an object"),
        (lambda d: d.update(grid=None), "scenario.grid: expected an object"),
        (lambda d: d["grid"].update(nodes=None), "grid.nodes: expected a list"),
        (lambda d: d["reference"].update(values=3), "reference.values: expected a list"),
        (lambda d: d["families"]["nested"].update(levels=None), "nested.levels: expected a list"),
        (lambda d: _set_first(d, "suite", "kind", []), r"\]\.kind: expected a string"),
        (lambda d: _set_first(d, "gh", "family", []), r"\]\.family: expected a string"),
    ],
)
def test_numeric_and_object_fields_are_type_checked(mutate, message):
    doc = load_json(SCENARIO)
    mutate(doc)
    with pytest.raises(ParseError, match=message):
        parse_scenario(doc)


def test_gh_needs_a_samples_block():
    doc = load_json(SCENARIO)
    del doc["samples"]
    doc["experiments"] = [b for b in doc["experiments"] if b["kind"] == "gh"]
    with pytest.raises(ValidationError, match="need a samples block"):
        parse_scenario(doc)


def test_gh_caps_must_be_a_nonempty_list():
    doc = load_json(SCENARIO)
    for block in doc["experiments"]:
        if block["kind"] == "gh":
            block["caps"] = []
    with pytest.raises(ParseError, match="caps must be a non-empty list"):
        parse_scenario(doc)


def test_run_writes_paths_in_block_order(tmp_path):
    paths = run_scenario(load_json(SCENARIO), str(tmp_path))
    names = [os.path.basename(p) for p in paths]
    assert names == [
        "suite_0_metric_axioms.jsonl",
        "converge_1.json",
        "chain_2.json",
        "gh_3.csv",
        "gh_3.json",
    ]
    assert all(os.path.exists(p) for p in paths)


def test_chain_block_reproduces_the_defect_law(tmp_path):
    run_scenario(load_json(SCENARIO), str(tmp_path))
    payload = json.loads((tmp_path / "chain_2.json").read_text())
    assert payload["check"] == "chain_defect_law"
    assert payload["pass"] is True
    assert payload["d"] == "1/4"
    chains = [row["chain"] for row in payload["rows"]]
    assert chains == ["1/2", "3/8", "5/16", "9/32", "17/64"]
    assert [row["defect"] for row in payload["rows"]] == [
        "1/4",
        "1/8",
        "1/16",
        "1/32",
        "1/64",
    ]
    assert payload["gap"] == "1/2"


def test_gh_block_without_sample_bounds_keeps_every_candidate(tmp_path):
    doc = load_json(SCENARIO)
    del doc["samples"]["cap"], doc["samples"]["sup_bound"]
    doc["experiments"] = [b for b in doc["experiments"] if b["kind"] == "gh"]
    scn = parse_scenario(doc)
    block, samples = scn.experiments[0], scn.samples
    candidates = random_candidates(
        random.Random(samples["seed"]), scn.grid, scn.reference, samples["count"]
    )
    rows, _ = nested_family_distortions(
        scn.families[block["family"]], candidates, block["caps"], block["tolerance"]
    )
    run_scenario(doc, str(tmp_path))
    with open(tmp_path / "gh_0.csv", newline="") as fh:
        written = list(csv.reader(fh))
    assert written[0] == ["cap", "level", "members", "distortion", "distortion_float"]
    expected = [
        (r["cap"], r["level"], r["members"], rat_str(r["distortion"]), float(r["distortion"]))
        for r in rows
    ]
    assert written[1:] == [[str(v) for v in row] for row in expected]


def test_failing_block_raises_after_writing(tmp_path):
    doc = load_json(SCENARIO)
    doc["experiments"] = [
        b for b in doc["experiments"] if b["kind"] == "converge"
    ]
    doc["experiments"][0]["tolerance"] = 1e-9
    with pytest.raises(AssertionFailed) as err:
        run_scenario(doc, str(tmp_path))
    assert (tmp_path / "converge_0.json").exists()
    witnesses = err.value.witnesses
    assert witnesses[0]["block"] == 0
    assert witnesses[0]["kind"] == "converge"
    assert witnesses[0]["witness"]["pass"] is False
