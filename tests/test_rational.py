"""Rational backend: construction, canonical form, backend choice."""

from __future__ import annotations

import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import femlab
from femlab import BACKEND, Rational, rat, rat_str
from femlab._rational import at_most


def test_constructors_agree():
    assert rat(3) == 3
    assert rat(6, 4) == rat(3, 2)
    assert rat("3/2") == rat(3, 2)
    assert rat("-7") == -7
    assert rat(Fraction(5, 10)) == rat(1, 2)


def test_backend_rationals_come_back_as_they_are():
    q = rat(3, 7)
    assert rat(q) is q
    assert type(rat(q)) is Rational
    assert rat("2/4") == rat(1, 2)
    assert rat(2, 4) == rat(1, 2)
    assert type(rat("2/4")) is Rational


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(1, 2.0)


def test_booleans_are_rejected():
    with pytest.raises(TypeError, match="bool"):
        rat(True)
    with pytest.raises(TypeError, match="bool"):
        rat(False)
    with pytest.raises(TypeError, match="bool"):
        rat(1, True)


def test_canonical_form_always_carries_denominator():
    assert rat_str(rat(0)) == "0/1"
    assert rat_str(rat(4, 2)) == "2/1"
    assert rat_str(rat(-6, 8)) == "-3/4"


@given(n=st.integers(-10**12, 10**12), d=st.integers(1, 10**6))
def test_rat_str_round_trips(n, d):
    q = rat(n, d)
    assert rat(rat_str(q)) == q
    assert q.denominator > 0


@given(
    a=st.fractions(max_denominator=100),
    b=st.fractions(max_denominator=100),
)
def test_arithmetic_matches_fraction_semantics(a, b):
    qa, qb = rat(a), rat(b)
    assert qa + qb == rat(a + b)
    assert qa * qb == rat(a * b)
    assert (qa < qb) == (a < b)
    if b != 0:
        assert qa / qb == rat(a / b)


def test_rational_type_is_closed_under_arithmetic():
    x = rat(1, 3) + rat(1, 6)
    assert isinstance(x, Rational)
    assert x == rat(1, 2)


def test_the_installed_backend_is_taken_and_gives_the_same_bytes(tmp_path):
    src = os.path.dirname(os.path.dirname(femlab.__file__))

    def stdout(path, *args):  # a child python that imports from path, then femlab's source
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([*path, src]))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True).stdout

    (tmp_path / "gmpy2").mkdir()
    (tmp_path / "gmpy2" / "__init__.py").write_text("from fractions import Fraction as mpq\n")
    stub = [str(tmp_path)]
    probe = ("-c", "from femlab import BACKEND; print(BACKEND)")
    assert stdout(stub, *probe).strip() == b"gmpy2"
    if importlib.util.find_spec("gmpy2") is None:
        assert stdout([], *probe).strip() == b"fractions"
    suite = ("-m", "femlab.cli", "suite", "metric_axioms", "--seed", "2026", "--count", "2")
    assert stdout(stub, *suite) == stdout([], *suite)


def test_default_backend_is_reported():
    assert BACKEND in ("gmpy2", "fractions")


def test_at_most_compares_with_the_exact_value_of_the_float():
    # float() of either value rounds it onto the tolerance, so a float compare passes both
    assert not at_most(Fraction(1e-9) + Fraction(1, 10**40), 1e-9)
    assert not at_most(rat(1, 2**1100), 0.0)
    assert at_most(Fraction(1e-9), 1e-9) and at_most(0, 0.0)


def test_at_most_decides_infinite_tolerances_and_refuses_nan():
    assert at_most(rat(10**400), math.inf) and not at_most(rat(-(10**400)), -math.inf)
    with pytest.raises(ValueError):
        at_most(0, math.nan)
