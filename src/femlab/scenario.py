"""Scenario documents: one JSON file describing a deterministic run.

Schema (rationals are integers or canonical "p/q" strings; floats appear
only in caps and tolerances):

    {
      "grid": {"nodes": [...], "polytope": [a, b]},
      "reference": {"values": [...], "slope_left": s, "slope_right": s},
      "potentials": {"name": {"values": [...], "slope_left": s, "slope_right": s}},
      "families": {"name": {"levels": [[a, b], ...], "limit": [a, b]}},
      "samples": {"seed": int, "count": int, "cap": float, "sup_bound": float},
      "experiments": [
        {"kind": "suite", "suite": name, "seed": int, "count": int},
        {"kind": "converge", "family": name, "first": pot, "second": pot,
         "tolerance": float},
        {"kind": "chain", "base": pot, "other": pot, "interval": [a, b],
         "steps": [N, ...]},
        {"kind": "gh", "family": name, "caps": [c, ...], "tolerance": float}
      ]
    }

Each kind is one ``_KINDS`` entry (keys, reader, runner).  A block may carry
only its kind's keys, and the parser fills the optional ones: tolerance is
DEFAULT_TOLERANCE, a chain's interval the polytope, its steps DEFAULT_CHAIN_STEPS.
Rationals are JSON integers or strings "p" or "p/q" of ASCII digits,
optionally preceded by "-".  Caps and tolerances must be finite,
non-negative JSON numbers.  Every object, nested ones included, may carry
only the keys shown above.
Every interval must lie inside the polytope, and a gh block needs a
decreasing family.
Every block with randomness carries an explicit seed, so identical files
produce byte-identical outputs.  An empty document runs nothing and
succeeds.  Output files are written before any failure is raised, so a
red run still leaves its full evidence on disk.
"""

from __future__ import annotations

import math
import os
import random
import re

from ._rational import _Frozen, rat, rat_str
from .errors import (
    AssertionFailed,
    ConvexityViolation,
    ParseError,
    ScheduleInvalid,
    SlopeOutOfPolytope,
    ValidationError,
)
from .families import (
    entropy_cap_filter,
    family_from_intervals,
    monotone_distance_convergence,
)
from .ghlimits import nested_family_distortions
from .grid_convex import (
    Grid,
    check_reference,
    make_pl,
    model_from_interval,
    model_project,
    pointwise_max,
)
from .measures import is_nondegenerate_reference
from .metric import chain_defect_report
from .report import encode_value
from .sampling import random_candidates
from .serialize import write_csv, write_json, write_jsonl
from .suites import SUITES, run_suite

DEFAULT_TOLERANCE = 1e-9
DEFAULT_CHAIN_STEPS = (1, 2, 4, 8, 16)

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_EXPECTED = {dict: "an object", list: "a list", str: "a string"}


class Scenario(_Frozen):
    """Validated in-memory form of one scenario document."""

    __slots__ = ("grid", "reference", "potentials", "families", "samples", "experiments", "_memo")
    _shown = ("grid", "reference", "potentials", "families", "samples", "experiments")

    def __init__(self, grid: Grid = None, reference=None, potentials: dict = None,
                 families: dict = None, samples: dict = None, experiments: tuple = ()):
        self._set(grid=grid, reference=reference, samples=samples, experiments=experiments,
                  potentials={} if potentials is None else potentials,
                  families={} if families is None else families, _memo={})


def _only(obj, keys, message):
    """Raise ValidationError(message: the sorted keys of obj outside keys)."""
    unknown = set(obj) - set(keys)
    if unknown:
        raise ValidationError("%s: %s" % (message, ", ".join(sorted(unknown))))


def _require(doc, key, where, kind=object):
    if key not in doc:
        raise ParseError("missing key %r in %s" % (key, where))
    return _expect(doc[key], kind, "%s.%s" % (where, key))


def _rational(value, where):
    if isinstance(value, float):
        raise ParseError(
            "%s: floats are not exact; write the rational as \"p/q\"" % where
        )
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, str) and _RATIONAL.fullmatch(value)
    ):
        raise ParseError(
            "%s: expected an integer or a \"p/q\" string, got %s %r"
            % (where, type(value).__name__, value)
        )
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("%s: %s" % (where, exc))


def _number(value, where):
    try:
        # json reads NaN and Infinity as floats; neither is a usable bound.
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ParseError("%s must be a number, got %r" % (where, value))
    if value < 0:
        raise ValidationError("%s must be non-negative, got %r" % (where, value))
    return float(value)


def _expect(value, kind, where):
    if not isinstance(value, kind):
        raise ParseError("%s: expected %s" % (where, _EXPECTED[kind]))
    return value


def _interval(value, where, polytope=None):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError("%s: interval must be a [lo, hi] pair" % where)
    lo = _rational(value[0], where)
    hi = _rational(value[1], where)
    if lo >= hi:
        raise ValidationError("%s: interval [%s, %s] is empty" % (where, rat_str(lo), rat_str(hi)))
    if polytope is not None and not polytope[0] <= lo < hi <= polytope[1]:
        raise ValidationError(
            "%s: interval [%s, %s] leaves the polytope [%s, %s]"
            % (where, rat_str(lo), rat_str(hi), rat_str(polytope[0]), rat_str(polytope[1]))
        )
    return (lo, hi)


def _potential(grid, spec, where):
    _expect(spec, dict, where)
    _only(spec, ("values", "slope_left", "slope_right"), where + ": unknown keys")
    values = [_rational(v, where + ".values") for v in _require(spec, "values", where, list)]
    sl = _rational(_require(spec, "slope_left", where), where + ".slope_left")
    sr = _rational(_require(spec, "slope_right", where), where + ".slope_right")
    try:
        return make_pl(grid, values, sl, sr)
    except (ConvexityViolation, SlopeOutOfPolytope, ValueError) as exc:
        raise ValidationError("%s: %s" % (where, exc))


def _integer(value, least, message):
    """Raise ParseError(message) unless value is an int, not a bool, and >= least."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ParseError(message)


def _resolve(table, key, block, where, label):
    name = _require(block, key, where, str)
    if name not in table:
        raise ValidationError("%s: unknown %s %r" % (where, label, name))
    return name


def parse_scenario(doc) -> Scenario:
    """Validate one decoded JSON document into a Scenario.

    Structural problems (missing keys, bad rationals) raise ParseError;
    semantic ones (non-convex potential, degenerate reference, unresolved
    names, bad schedules) raise ValidationError.
    """
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a JSON object")
    _only(
        doc,
        ("grid", "reference", "potentials", "families", "samples", "experiments"),
        "unknown scenario keys",
    )

    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list):
        raise ParseError("experiments must be a list")
    if not experiments:
        return Scenario(experiments=())

    grid_spec = _require(doc, "grid", "scenario", dict)
    _only(grid_spec, ("nodes", "polytope"), "grid: unknown keys")
    nodes = [_rational(x, "grid.nodes") for x in _require(grid_spec, "nodes", "grid", list)]
    polytope = _interval(_require(grid_spec, "polytope", "grid"), "grid.polytope")
    try:
        grid = Grid(nodes=tuple(nodes), polytope=polytope)
    except ValueError as exc:
        raise ValidationError("grid: %s" % exc)

    reference = _potential(grid, _require(doc, "reference", "scenario"), "reference")
    check_reference(grid, reference)
    if not is_nondegenerate_reference(reference):
        raise ValidationError(
            "reference is degenerate: its slope measure must charge every node"
        )

    potentials = {}
    for name, spec in _expect(doc.get("potentials", {}), dict, "potentials").items():
        where = "potentials.%s" % name
        u = _potential(grid, spec, where)
        if u.dual_domain() != grid.polytope:
            raise ValidationError(
                "%s: named potentials are full-space data; end slopes must span "
                "the whole polytope (experiments project them into sectors)" % where
            )
        potentials[name] = u

    families = {}
    for name, spec in _expect(doc.get("families", {}), dict, "families").items():
        where = "families.%s" % name
        _expect(spec, dict, where)
        _only(spec, ("levels", "limit"), where + ": unknown keys")
        levels = [
            _interval(iv, where + ".levels", grid.polytope)
            for iv in _require(spec, "levels", where, list)
        ]
        limit = _interval(_require(spec, "limit", where), where + ".limit", grid.polytope)
        try:
            families[name] = family_from_intervals(grid, levels, limit, reference)
        except ScheduleInvalid as exc:
            raise ValidationError("%s: %s" % (where, exc))

    samples = doc.get("samples")
    if samples is not None:
        _expect(samples, dict, "samples")
        _only(samples, ("seed", "count", "cap", "sup_bound"), "samples: unknown keys")
        _integer(
            _require(samples, "seed", "samples"), -math.inf, "samples: seed must be an integer"
        )
        _integer(
            _require(samples, "count", "samples"), 0, "samples: count must be a non-negative integer"
        )
        for key in ("cap", "sup_bound"):
            if key in samples:
                _number(samples[key], "samples.%s" % key)
        samples = dict(samples)

    scn = Scenario(grid, reference, potentials, families, samples)
    checked = []
    for i, block in enumerate(experiments):
        where = "experiments[%d]" % i
        entry = dict(_expect(block, dict, where))
        kind = _require(block, "kind", where, str)
        if kind not in _KINDS:
            raise ValidationError(
                "%s: unknown kind %r; known: %s" % (where, kind, ", ".join(sorted(_KINDS)))
            )
        keys, reader, _ = _KINDS[kind]
        _only(block, ("kind", *keys), "%s: unknown keys for a %s block" % (where, kind))
        if "tolerance" in keys:
            entry["tolerance"] = _number(block.get("tolerance", DEFAULT_TOLERANCE), where + ".tolerance")
        reader(scn, entry, where)
        checked.append(entry)
    return Scenario(grid, reference, potentials, families, samples, tuple(checked))


def _read_suite(scn, block, where):
    suite = _require(block, "suite", where)
    if suite not in SUITES:
        raise ValidationError("%s: unknown suite %r" % (where, suite))
    _integer(_require(block, "seed", where), -math.inf, where + ": seed must be an integer")
    _integer(_require(block, "count", where), 1, where + ": count must be a positive integer")


def _run_suite(scn, block, index, out_dir):
    records, summary = run_suite(
        block["suite"], block["seed"], block["count"], scn.grid, scn.reference
    )
    path = os.path.join(out_dir, "suite_%d_%s.jsonl" % (index, block["suite"]))
    write_jsonl(path, records + [summary])
    return summary["failures"] == 0, [path], {"summary": summary}


def _finish(passed, payload, paths):
    """Write payload as JSON to the last of paths; a runner's (passed, paths, witness)."""
    write_json(paths[-1], payload)
    return passed, paths, payload


def _read_converge(scn, block, where):
    _resolve(scn.families, "family", block, where, "family")
    _resolve(scn.potentials, "first", block, where, "potential")
    _resolve(scn.potentials, "second", block, where, "potential")


def _run_converge(scn, block, index, out_dir):
    family = scn.families[block["family"]]
    first, second = (
        [model_project(env, scn.potentials[block[key]]) for env in family.levels + (family.limit,)]
        for key in ("first", "second")
    )
    report = monotone_distance_convergence(family, first, second, block["tolerance"])
    path = os.path.join(out_dir, "converge_%d.json" % index)
    return _finish(report.passed, report.as_dict(), [path])


def _read_chain(scn, block, where):
    _resolve(scn.potentials, "base", block, where, "potential")
    _resolve(scn.potentials, "other", block, where, "potential")
    if "interval" in block:
        block["interval"] = _interval(block["interval"], where + ".interval", scn.grid.polytope)
    block.setdefault("interval", scn.grid.polytope)
    steps = block.setdefault("steps", DEFAULT_CHAIN_STEPS)
    if not isinstance(steps, (list, tuple)) or not steps:
        raise ParseError("%s: steps must be a non-empty list" % where)
    for n in steps:
        _integer(n, 1, where + ": steps must be positive integers")


def _run_chain(scn, block, index, out_dir):
    psi = model_from_interval(scn.grid, block["interval"], scn.reference)
    base = model_project(psi, scn.potentials[block["base"]])
    other = model_project(psi, scn.potentials[block["other"]])
    rep = chain_defect_report(psi, pointwise_max(base, other), base, block["steps"])
    payload = {
        "check": rep.name,
        "pass": rep.passed,
        "d": encode_value(rep.lhs),
        "gap": encode_value(rep.rhs),
        "rows": encode_value(rep.witnesses["rows"]),
    }
    return _finish(rep.passed, payload, [os.path.join(out_dir, "chain_%d.json" % index)])


def _read_gh(scn, block, where):
    name = _resolve(scn.families, "family", block, where, "family")
    if scn.families[name].direction != "decreasing":
        raise ValidationError(
            "%s: gh experiments need a decreasing family; %r is increasing" % (where, name)
        )
    caps = _require(block, "caps", where)
    if not isinstance(caps, list) or not caps:
        raise ParseError("%s: caps must be a non-empty list" % where)
    for c in caps:
        _number(c, where + ".caps")
    if scn.samples is None:
        raise ValidationError("%s: gh experiments need a samples block for their seed" % where)


def _run_gh(scn, block, index, out_dir):
    samples = scn.samples
    rng = random.Random(samples["seed"])
    candidates = random_candidates(rng, scn.grid, scn.reference, samples["count"])
    # A missing bound is infinite, and split_caps never gives NaN: it keeps everything.
    cap, sup_bound = (float(samples.get(key, math.inf)) for key in ("cap", "sup_bound"))
    pool = entropy_cap_filter(candidates, cap, sup_bound, scn.reference)
    rows, report = nested_family_distortions(
        scn.families[block["family"]], list(pool.members), block["caps"], block["tolerance"]
    )
    csv_path = os.path.join(out_dir, "gh_%d.csv" % index)
    write_csv(
        csv_path,
        ("cap", "level", "members", "distortion", "distortion_float"),
        [
            (r["cap"], r["level"], r["members"], rat_str(r["distortion"]), float(r["distortion"]))
            for r in rows
        ],
    )
    json_path = os.path.join(out_dir, "gh_%d.json" % index)
    return _finish(report.passed, report.as_dict(), [csv_path, json_path])


# kind: (block keys besides "kind", reader that checks and fills defaults, runner)
_KINDS = {
    "suite": (("suite", "seed", "count"), _read_suite, _run_suite),
    "converge": (("family", "first", "second", "tolerance"), _read_converge, _run_converge),
    "chain": (("base", "other", "interval", "steps"), _read_chain, _run_chain),
    "gh": (("family", "caps", "tolerance"), _read_gh, _run_gh),
}


def run_scenario(doc, out_dir):
    """Execute a decoded scenario document, writing artifacts into out_dir.

    Returns the list of written paths.  Raises AssertionFailed after all
    blocks have run (and all files are written) if any block failed; the
    exception carries per-block witnesses.
    """
    scn = parse_scenario(doc)
    if not scn.experiments:
        return []
    os.makedirs(out_dir, exist_ok=True)
    written, failures = [], []
    for i, block in enumerate(scn.experiments):
        passed, paths, witness = _KINDS[block["kind"]][2](scn, block, i, out_dir)
        written.extend(paths)
        if not passed:
            failures.append({"block": i, "kind": block["kind"], "witness": witness})
    if failures:
        raise AssertionFailed(
            "%d of %d experiment blocks failed" % (len(failures), len(scn.experiments)),
            failures,
        )
    return written
