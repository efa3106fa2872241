"""Energy functional: frozen values and exact identities."""

from __future__ import annotations

import pytest
from hypothesis import given

import oracles
import strategies as own
from femlab import (
    Grid,
    affine_combine,
    energy,
    energy_diff_report,
    is_leq,
    legendre,
    make_pl,
    model_from_interval,
    monge_ampere,
    pointwise_max,
    rat,
    split_caps,
)
from femlab.errors import SingularityMismatch
from femlab.sampling import nondegenerate_reference

GRID5 = Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1))
REF5 = nondegenerate_reference(GRID5)
ECTX5 = model_from_interval(GRID5, GRID5.polytope, REF5)


def test_energy_frozen_values(ctx3, tent3, ref3):
    assert energy(ctx3, tent3) == rat(-1, 4)
    assert energy(ctx3, ref3) == 0


def test_energy_of_the_envelope_itself_is_zero():
    assert energy(ECTX5, ECTX5.potential) == 0


@given(u=own.potentials_on(GRID5))
def test_energy_matches_path_integration_oracle(u):
    assert energy(ECTX5, u) == oracles.energy_by_path_integration(ECTX5, u)


@given(u=own.potentials_on(GRID5))
def test_memoized_values_equal_those_of_a_fresh_equal_copy(u):
    first = (legendre(u), monge_ampere(u), energy(ECTX5, u), split_caps(u, REF5))
    again = (legendre(u), monge_ampere(u), energy(ECTX5, u), split_caps(u, REF5))
    copy = make_pl(u.grid, u.values, u.slope_left, u.slope_right)
    fresh = (legendre(copy), monge_ampere(copy), energy(ECTX5, copy), split_caps(copy, REF5))
    assert again == first == fresh
    assert first[2] == oracles.energy_by_path_integration(ECTX5, u)


HALF_Q = (0, rat(1, 2))
CTX_HALF = model_from_interval(GRID5, HALF_Q, REF5)
CTX_HALF_RAISED = model_from_interval(GRID5, HALF_Q, REF5.shift(1))


@given(u=own.sector_potentials(GRID5, HALF_Q))
def test_one_potential_keeps_one_energy_per_context(u):
    # same sector, references one apart: psi rises by 1, so E drops by the mass
    e = energy(CTX_HALF, u)
    e_raised = energy(CTX_HALF_RAISED, u)
    assert e == oracles.energy_by_path_integration(CTX_HALF, u)
    assert e_raised == oracles.energy_by_path_integration(CTX_HALF_RAISED, u)
    assert e - e_raised == CTX_HALF.mass
    assert energy(CTX_HALF, u) == e


@given(u=own.potentials_on(GRID5), c=own.rationals(-3, 3))
def test_energy_translation_rule(u, c):
    assert energy(ECTX5, u.shift(c)) == energy(ECTX5, u) + c * ECTX5.mass


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_energy_is_monotone(u, v):
    if is_leq(u, v):
        assert energy(ECTX5, u) <= energy(ECTX5, v)
    assert energy(ECTX5, pointwise_max(u, v)) >= energy(ECTX5, u)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5), t=own.rationals(0, 1))
def test_energy_is_concave_along_affine_paths(u, v, t):
    mid = affine_combine(t, u, v)
    assert energy(ECTX5, mid) >= t * energy(ECTX5, u) + (1 - t) * energy(ECTX5, v)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_difference_identity_and_sandwich(u, v):
    report = energy_diff_report(ECTX5, u, v)
    assert report.passed
    a = report.witnesses["int_against_ma_u"]
    b = report.witnesses["int_against_ma_v"]
    gap = energy(ECTX5, u) - energy(ECTX5, v)
    assert 2 * gap == a + b
    assert a <= gap <= b


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_refined_upper_bound_on_ordered_pairs(u, v):
    hi = pointwise_max(u, v)
    report = energy_diff_report(ECTX5, u, hi)
    assert report.passed
    gap = energy(ECTX5, u) - energy(ECTX5, hi)
    assert gap <= report.witnesses["int_against_ma_u"] / 2


def test_energy_rejects_potentials_from_another_sector():
    half = model_from_interval(GRID5, (0, rat(1, 2)), REF5)
    with pytest.raises(SingularityMismatch) as err:
        energy(half, ECTX5.potential)
    assert str(err.value) == "potential spans [0/1, 1/1], sector needs [0/1, 1/2]"
