"""Check reports: a pass flag, both sides of the inequality, witnesses."""

from __future__ import annotations

import math

from ._rational import Rational, _Frozen, rat_str


def encode_value(x):
    """JSON-safe encoding: rationals as canonical strings, rest as-is."""
    if isinstance(x, Rational):
        return rat_str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, (tuple, list)):
        return [encode_value(v) for v in x]
    if isinstance(x, dict):
        return {k: encode_value(v) for k, v in x.items()}
    return x


class Report(_Frozen):
    """Outcome of one inequality or identity check."""

    __slots__ = ("name", "passed", "lhs", "rhs", "witnesses", "_memo")
    _shown = ("name", "passed", "lhs", "rhs", "witnesses")

    def __init__(self, name: str, passed: bool, lhs, rhs, witnesses: dict):
        self._set(name=name, passed=passed, lhs=lhs, rhs=rhs, witnesses=witnesses, _memo={})

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "pass": self.passed,
            "lhs": encode_value(self.lhs),
            "rhs": encode_value(self.rhs),
            "witnesses": encode_value(self.witnesses),
        }
