"""Per-layer tracing of femlab from outside the library.

A Tracer wraps the public functions named in LAYERS at every place femlab
binds them: modules import each other with ``from .x import y``, so
patching only the defining module would miss most callers.  Methods and
dataclass validators (``__post_init__``) are patched on their class.  Each
wrapped call records a span (start, duration, parent span) in memory; self
time is the span's duration minus the time its child spans cover, tracer
bookkeeping included, so a layer is not charged for the tracing of its
callees.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from time import perf_counter_ns

# (module, attribute, layer).  "Class.method" patches the class; several
# attributes may feed one layer (both PL dataclasses validate as one).
LAYERS = (
    ("grid_convex", "legendre", "grid_convex.legendre"),
    ("grid_convex", "restrict_dual", "grid_convex.restrict_dual"),
    ("grid_convex", "max_dual", "grid_convex.max_dual"),
    ("grid_convex", "biconjugate", "grid_convex.biconjugate"),
    ("grid_convex", "refine_to", "grid_convex.refine_to"),
    ("grid_convex", "align", "grid_convex.align"),
    ("grid_convex", "pointwise_max", "grid_convex.pointwise_max"),
    ("grid_convex", "rooftop", "grid_convex.rooftop"),
    ("grid_convex", "model_project", "grid_convex.model_project"),
    ("grid_convex", "GridPLConvex.__post_init__", "grid_convex.validate"),
    ("grid_convex", "DualPL.__post_init__", "grid_convex.validate"),
    ("measures", "AtomicMeasure.__post_init__", "measures.validate"),
    ("measures", "monge_ampere", "measures.monge_ampere"),
    ("measures", "entropy", "measures.entropy"),
    ("energy", "energy", "energy.energy"),
    ("metric", "dist", "metric.dist"),
    ("metric", "rho", "metric.rho"),
    ("metric", "chain_rho", "metric.chain_rho"),
    ("families", "entropy_cap_filter", "families.entropy_cap_filter"),
    ("families", "project_family", "families.project_family"),
    ("bigspace", "BigSpace.quasi", "bigspace.quasi"),
    ("bigspace", "BigSpace.chain", "bigspace.chain"),
    ("bigspace", "BigSpace.pair_dist", "bigspace.pair_dist"),
    ("ghlimits", "space_from_potentials", "ghlimits.space_from_potentials"),
    ("ghlimits", "FiniteMetricSpace.__post_init__", "ghlimits.FiniteMetricSpace"),
    ("ghlimits", "gh_exact", "ghlimits.gh_exact"),
    ("ghlimits", "distortion", "ghlimits.distortion"),
    ("ghlimits", "nested_family_distortions", "ghlimits.nested_family_distortions"),
    ("ghlimits", "direct_limit_check", "ghlimits.direct_limit_check"),
    ("suites", "run_suite", "suites.run_suite"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("serialize", "write_json", "serialize.write_json"),
    ("serialize", "write_jsonl", "serialize.write_jsonl"),
    ("serialize", "write_csv", "serialize.write_csv"),
)

# Layers a memo cache could serve: they also get the share of calls whose
# arguments (compared by value) were already seen in the same pass, and
# their per-call latency.
DETAILED = ("metric.dist", "energy.energy", "metric.rho", "metric.chain_rho")
# Repeat share only, for a method whose first argument (the BigSpace that
# owns the caches) is keyed by identity.
REPEAT_ONLY = ("bigspace.quasi",)

_UNITS = {
    "calls": "count",
    "self_s": "s",
    "repeat_share": "ratio",
    "ms_p50": "ms",
    "ms_tail": "ms",
    "ms_tail_pct": "%",
}


def layer_names():
    seen = []
    for _, _, layer in LAYERS:
        if layer not in seen:
            seen.append(layer)
    return seen


def metric_specs():
    """Every per-layer metric as (name, unit), in print order."""
    specs = []
    for layer in layer_names():
        stats = ["calls", "self_s"]
        if layer in DETAILED:
            stats += ["repeat_share", "ms_p50", "ms_tail", "ms_tail_pct"]
        elif layer in REPEAT_ONLY:
            stats += ["repeat_share"]
        specs += [("%s.%s" % (layer, s), _UNITS[s]) for s in stats]
    specs += [("cli.import_s", "s"), ("rational.max_bits", "bits"), ("trace.overhead_ratio", "ratio")]
    return specs


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (0 if none)."""
    if count <= 10:
        return 0
    return (100 * (count - 10)) // count


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class Tracer:
    """Spans of one traced pass at a time, plus totals over all passes."""

    def __init__(self):
        self.spans = []  # (span, parent, layer, start_ns, dur_ns, self_ns) of this pass
        self.last_spans = []
        self.passes = 0
        self.calls = {}
        self.self_ns = {}
        self.durations = {}
        self.repeats = {}
        self.max_bits = 0
        self._seen = {}
        self._pinned = []
        self._stack = []
        self._next_span = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer, validator):
        detailed = layer in DETAILED or layer in REPEAT_ONLY
        by_identity = layer in REPEAT_ONLY
        stack = self._stack

        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][1] if stack else -1
            frame = [0, span]
            stack.append(frame)
            ok = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                self.spans.append((span, parent, layer, t0, dur, dur - frame[0]))
                if detailed:
                    self._count_repeat(layer, args, by_identity)
                    self.durations.setdefault(layer, []).append(dur)
                if ok:
                    self._watch_bits(args[0] if validator else result)
                if stack:
                    stack[-1][0] += perf_counter_ns() - enter

        return traced

    def _count_repeat(self, layer, args, by_identity):
        if by_identity:
            self._pinned.append(args[0])
            args = (id(args[0]),) + tuple(args[1:])
        seen = self._seen.setdefault(layer, set())
        if args in seen:
            self.repeats[layer] = self.repeats.get(layer, 0) + 1
        else:
            seen.add(args)

    def _watch_bits(self, value):
        bits = _max_bits(value)
        if bits > self.max_bits:
            self.max_bits = bits

    def end_pass(self):
        """Fold this pass's spans into the totals and start a fresh pass."""
        for _, _, layer, _, _, self_ns in self.spans:
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_ns[layer] = self.self_ns.get(layer, 0) + self_ns
        self.last_spans = self.spans
        self.spans = []
        self._seen = {}
        self._pinned = []
        self.passes += 1

    # -- patching ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every import site of every layer function; restore on exit."""
        undo = []
        try:
            for modname, attr, layer in LAYERS:
                module = importlib.import_module("femlab." + modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(orig, layer, meth == "__post_init__"))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(orig, layer, False)
                for site in _femlab_modules():
                    for name, value in list(vars(site).items()):
                        if value is orig:
                            setattr(site, name, wrapper)
                            undo.append((site, name, orig))
            yield self
        finally:
            for owner, name, orig in reversed(undo):
                setattr(owner, name, orig)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-pass layer metrics (all names, zero where a layer never ran)."""
        passes = max(self.passes, 1)
        out = {}
        for layer in layer_names():
            out[layer + ".calls"] = self.calls.get(layer, 0) / passes
            out[layer + ".self_s"] = self.self_ns.get(layer, 0) / 1e9 / passes
            if layer in DETAILED or layer in REPEAT_ONLY:
                calls = self.calls.get(layer, 0)
                out[layer + ".repeat_share"] = self.repeats.get(layer, 0) / calls if calls else 0.0
            if layer in DETAILED:
                durs = sorted(self.durations.get(layer, ()))
                pct = tail_percentile(len(durs))
                out[layer + ".ms_p50"] = percentile(durs, 50) / 1e6
                out[layer + ".ms_tail"] = percentile(durs, pct) / 1e6 if pct else 0.0
                out[layer + ".ms_tail_pct"] = pct
        out["rational.max_bits"] = self.max_bits
        return out

    def to_dict(self) -> dict:
        """Totals in mergeable form, for a traced child process to hand back."""
        return {
            "passes": self.passes,
            "calls": self.calls,
            "self_ns": self.self_ns,
            "durations": self.durations,
            "repeats": self.repeats,
            "max_bits": self.max_bits,
        }

    def merge(self, data: dict):
        self.passes += data["passes"]
        for key in ("calls", "self_ns", "repeats"):
            mine = getattr(self, key)
            for layer, value in data[key].items():
                mine[layer] = mine.get(layer, 0) + value
        for layer, values in data["durations"].items():
            self.durations.setdefault(layer, []).extend(values)
        self.max_bits = max(self.max_bits, data["max_bits"])

    def write_spans(self, fh):
        """The last traced pass's spans, one JSON array per line."""
        for span in self.last_spans:
            fh.write("[%d,%d,\"%s\",%d,%d,%d]\n" % span)


def _femlab_modules():
    return [m for name, m in list(sys.modules.items()) if name == "femlab" or name.startswith("femlab.")]


def _max_bits(value, depth=0) -> int:
    """Largest numerator/denominator bit length among the rationals in value."""
    num = getattr(value, "numerator", None)
    if num is not None and not isinstance(value, (int, float)):
        return max(num.bit_length(), value.denominator.bit_length())
    if depth > 3:
        return 0
    if isinstance(value, (tuple, list)):
        return max((_max_bits(v, depth + 1) for v in value), default=0)
    for attr in ("values", "points", "masses", "matrix"):
        inner = getattr(value, attr, None)
        if isinstance(inner, tuple):
            return max(_max_bits(inner, depth + 1), _max_bits(getattr(value, "slope_left", None), depth + 1),
                       _max_bits(getattr(value, "slope_right", None), depth + 1))
    return 0
