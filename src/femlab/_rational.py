"""Exact rational arithmetic backend.

Every quantity in this package except relative entropy is an exact rational.
The backend is gmpy2's GMP-backed ``mpq`` when it is installed, else
``fractions.Fraction``; the choice is made once, at import.  Both types
normalize to lowest terms with positive denominator, hash consistently and
interoperate with ints, so the rest of the package never needs to know
which one it got.

The exact objects keep their numbers as a ``Lattice``: Python ints over one
shared denominator, so checks and kernels run on int arithmetic and backend
rationals are built only at the boundary, by ``rat`` and on first read.
They share one object model, ``_Frozen``: immutable, compared and hashed by
a canonical key, printed from their public fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

try:
    from gmpy2 import mpq as _make

    BACKEND = "gmpy2"
except ImportError:
    _make = Fraction
    BACKEND = "fractions"

Rational = type(_make(0))

ZERO = _make(0)
ONE = _make(1)


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


def at_most(x, tolerance) -> bool:
    """x <= tolerance for an exact x, against the exact value of the float tolerance.

    ``float(x) <= tolerance`` would round x first: a value just above the
    tolerance can round onto it, and a tiny positive one underflows to 0.0.
    An infinite tolerance has no exact value: inf admits every x, -inf none.
    """
    if abs(tolerance) == math.inf:
        return tolerance > 0
    return rat(x) <= _make(*tolerance.as_integer_ratio())


class Lattice(NamedTuple):
    """The rationals nums[i] / den: ints over one positive denominator."""

    nums: tuple
    den: int


def lattice(xs) -> Lattice:
    """Exact inputs, or a Lattice, as ints over their least common denominator.

    The result is canonical: equal rationals always give equal lattices.
    """
    if type(xs) is Lattice:
        nums, den = xs
        g = math.gcd(den, *nums)
        return xs if g == 1 else Lattice(tuple([n // g for n in nums]), den // g)
    qs = [rat(x) for x in xs]
    den = math.lcm(*(q.denominator for q in qs))
    return Lattice(tuple(q.numerator * (den // q.denominator) for q in qs), den)


class _Frozen:
    """An immutable exact value.

    A subclass sets its slots once, through ``_set``.  ``_shown`` names the
    public fields the repr prints, and ``_key()`` (by default those fields
    as a tuple) decides the rest: two values are equal when they have the
    same type and equal keys, and the hash is the key's.  ``_memo`` (a slot
    of each subclass) holds the hash and every backend rational or derived
    value, built on first read.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _set(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple([getattr(self, name) for name in self._shown])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        memo = self._memo
        if "hash" not in memo:
            memo["hash"] = hash(self._key())
        return memo["hash"]

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._shown)
        return "%s(%s)" % (type(self).__name__, fields)

    def _rationals(self, key, lat: Lattice) -> tuple:
        """The backend rationals of a lattice, built once and kept under key."""
        memo = self._memo
        if key not in memo:
            nums, den = lat
            memo[key] = tuple(_make(n, den) for n in nums)
        return memo[key]
