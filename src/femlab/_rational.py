"""Exact rational arithmetic backend.

Every quantity in this package except relative entropy is an exact rational.
The backend is gmpy2's GMP-backed ``mpq`` when importable, else
``fractions.Fraction``; set ``FEMLAB_PURE_RATIONAL=1`` to force the pure
Python fallback.  Both types normalize to lowest terms with positive
denominator, hash consistently and interoperate with ints, so the rest of
the package never needs to know which one it got.
"""

from __future__ import annotations

import os
from fractions import Fraction

_mpq = None
if os.environ.get("FEMLAB_PURE_RATIONAL", "") in ("", "0"):
    try:
        from gmpy2 import mpq as _mpq
    except ImportError:
        _mpq = None

if _mpq is not None:
    BACKEND = "gmpy2"
    _make = _mpq
else:
    BACKEND = "fractions"
    _make = Fraction

Rational = type(_make(0))

ZERO = _make(0)
ONE = _make(1)
HALF = _make(1, 2)


def rat(a, b=None):
    """Build a backend rational from ints, "p/q" strings, or rationals.

    Floats and booleans are rejected: they are never exact inputs in this
    model (a JSON ``true`` is not the rational 1).
    """
    if b is None and type(a) is Rational:
        if type(a.numerator) is int and type(a.denominator) is int:
            return a  # the backend keeps its values in lowest terms
    if isinstance(a, (float, bool)) or isinstance(b, (float, bool)):
        raise TypeError(
            "refusing float or bool input to exact rational constructor: %r"
            % (a if b is None else (a, b),)
        )
    if b is not None:
        return _make(a, b)
    if isinstance(a, str):
        a = Fraction(a)
    if isinstance(a, Fraction):
        # Fractions built from foreign rational types can carry non-int
        # internals that gmpy2's fast path rejects; rebuild from parts.
        return _make(int(a.numerator), int(a.denominator))
    return _make(a)


def rat_str(x) -> str:
    """Canonical "p/q" form, lowest terms, q > 0.  Written even when q == 1."""
    q = rat(x)
    return "%d/%d" % (q.numerator, q.denominator)

