"""Check reports: a pass flag, both sides of the inequality, witnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rational import Rational, rat_str


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


@dataclass(frozen=True)
class Report:
    """Outcome of one inequality or identity check."""

    name: str
    passed: bool
    lhs: object
    rhs: object
    witnesses: dict

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "pass": self.passed,
            "lhs": encode_value(self.lhs),
            "rhs": encode_value(self.rhs),
            "witnesses": encode_value(self.witnesses),
        }
