"""Canonical JSON bytes, newline discipline, load errors."""

from __future__ import annotations

import json
import math

import pytest

from femlab import (
    Report,
    dumps_canonical,
    encode_value,
    load_json,
    rat,
    write_csv,
    write_json,
    write_jsonl,
)
from femlab.errors import ParseError


def test_dumps_canonical_sorts_keys_and_strips_spaces():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'


def test_encode_value_handles_rationals_and_infinities():
    doc = encode_value({"d": rat(1, 4), "caps": [math.inf, -math.inf, 0.5], "n": 3})
    assert doc == {"d": "1/4", "caps": ["inf", "-inf", 0.5], "n": 3}


def test_report_is_a_frozen_value_printed_field_by_field():
    report = Report(name="law", passed=True, lhs=rat(1, 4), rhs=0.5, witnesses={"k": 2})
    assert repr(report) == "Report(name='law', passed=True, lhs=%r, rhs=0.5, witnesses={'k': 2})" % rat(1, 4)
    assert report == Report("law", True, rat(1, 4), 0.5, {"k": 2})
    assert report != Report("law", False, rat(1, 4), 0.5, {"k": 2})
    with pytest.raises(AttributeError):
        report.passed = False
    assert report.as_dict() == {"check": "law", "pass": True, "lhs": "1/4", "rhs": 0.5, "witnesses": {"k": 2}}


def test_write_json_round_trips_through_load(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"x": "1/2", "y": [1, 2]})
    assert load_json(path) == {"x": "1/2", "y": [1, 2]}
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and raw.count(b"\n") == 1
    assert b"\r" not in raw


def test_write_jsonl_one_object_per_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"i": 0}, {"i": 1}])
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b""
    assert [json.loads(l) for l in lines[:-1]] == [{"i": 0}, {"i": 1}]


def test_write_csv_uses_bare_newlines(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [[1, "1/2"], [2, "3/4"]])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,1/2\n2,3/4\n"


def test_load_json_raises_parse_error_on_junk(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_json(path)


@pytest.mark.parametrize(
    "write, match",
    [
        (lambda p: p.mkdir(), "cannot read"),
        (lambda p: p.write_bytes(b'{"x": "\xff"}'), "invalid JSON"),
        (lambda p: p.write_text("[" * 100000 + "]" * 100000), "invalid JSON"),
    ],
    ids=["directory", "not_utf8", "nested_too_deep"],
)
def test_load_json_maps_read_failures_to_parse_error(tmp_path, write, match):
    path = tmp_path / "doc.json"
    write(path)
    with pytest.raises(ParseError, match=match):
        load_json(path)
