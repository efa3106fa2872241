"""Masses, integration, entropy, and the three measure inequalities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import strategies as own
from femlab import (
    Grid,
    entropy,
    is_nondegenerate_reference,
    make_pl,
    model_from_interval,
    monge_ampere,
    normalize,
    pointwise_max,
    rat,
    rho,
    rooftop,
)
from femlab import grid_convex, measures
from femlab.errors import GridMismatch, NotNormalized, PreconditionViolated, SingularityMismatch
from femlab.grid_convex import align
from femlab.measures import (
    AtomicMeasure,
    abs_diff_pairing,
    check_comparison_principle,
    check_model_mass_bound,
    check_rooftop_mass_bound,
)
from femlab.sampling import nondegenerate_reference

GRID5 = Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1))
REF5 = nondegenerate_reference(GRID5)


def test_atomic_measure_rejects_negative_mass():
    with pytest.raises(ValueError):
        AtomicMeasure(GRID5, (1, -1, 0, 0, 0))


def test_negative_mass_message_names_the_first_negative_mass():
    with pytest.raises(ValueError) as caught:
        AtomicMeasure(GRID5, (1, 0, rat(-1, 3), -2, 0))
    assert str(caught.value) == "negative mass -1/3"


def test_rho_of_an_ordered_pair_on_two_grids_refines_nothing(monkeypatch):
    lo = make_pl(GRID5, (0, 0, 0, rat(1, 2), rat(3, 2)), 0, 1)
    hi = make_pl(Grid(nodes=(-2, rat(1, 2), 2), polytope=(0, 1)), (1, 1, rat(5, 2)), 0, 1)
    calls = []
    refine = grid_convex.refine_to
    monkeypatch.setattr(grid_convex, "refine_to", lambda u, grid: calls.append(grid) or refine(u, grid))
    assert rho(hi, lo) == rho(lo, hi) == oracles.rho_by_sampling(hi, lo)
    assert calls == []


@given(u=own.potentials_on(GRID5))
def test_monge_ampere_matches_sampling_oracle(u):
    assert tuple(monge_ampere(u).masses) == oracles.ma_atoms_by_sampling(u)


@given(a=own.grids(), b=own.grids(), data=st.data())
def test_rho_matches_the_sampling_oracle_on_two_grids(a, b, data):
    u, w = data.draw(own.potentials_on(a)), data.draw(own.potentials_on(b))
    for hi, lo in ((pointwise_max(u, w), u), (u, rooftop(u, w))):
        assert rho(hi, lo) == rho(lo, hi) == oracles.rho_by_sampling(hi, lo)


@given(a=own.grids(), b=own.grids(), data=st.data())
def test_abs_diff_pairing_matches_the_sampling_oracle_on_two_grids(a, b, data):
    u, v = data.draw(own.potentials_on(a)), data.draw(own.potentials_on(b))
    assert abs_diff_pairing(u, v) == abs_diff_pairing(v, u) == oracles.abs_diff_pairing_by_sampling(u, v)


@given(a=own.grids(), b=own.grids(), data=st.data())
def test_abs_diff_pairing_reads_each_measures_own_nodes(a, b, data):
    """Each term reads the pair with ``_pair_on`` on its measure's grid, never through ``_union_reads``."""
    u, v = data.draw(own.potentials_on(a)), data.draw(own.potentials_on(b))

    def refuse(u, v):
        raise AssertionError("abs_diff_pairing read its pair through _union_reads")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_union_reads", refuse, raising=False)
        patch.setattr(grid_convex, "_union_reads", refuse)
        got = abs_diff_pairing(u, v), abs_diff_pairing(v, u)
    assert got[0] == got[1] == oracles.abs_diff_pairing_by_sampling(u, v)


def test_documented_refusals_raise_their_class_and_message():
    """Each refusal the measures docstrings promise, with its error class and message."""
    g3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
    point = AtomicMeasure(g3, (1, 0, 0))
    steep = make_pl(GRID5, (0, rat(1, 2), 1, rat(3, 2), 2), rat(1, 2), 1)  # dual domain [1/2, 1] inside REF5's
    cases = [
        (ValueError, AtomicMeasure, (GRID5, (0, 0, 0, 1)), "4 masses for 5 nodes"),
        (GridMismatch, entropy, (point, AtomicMeasure(GRID5, (1, 0, 0, 0, 0))), "entropy needs measures on one grid"),
        (
            NotNormalized,
            entropy,
            (AtomicMeasure(g3, (1, 1, 0)), point),
            "entropy needs probability measures, got totals 2/1 and 1/1",
        ),
        (
            PreconditionViolated,
            check_comparison_principle,
            (REF5, steep),
            "comparison principle needs u at least as singular as v",
        ),
    ]
    for error, f, args, text in cases:
        with pytest.raises(error) as caught:
            f(*args)
        assert str(caught.value) == text, f.__name__


@given(data=st.data())
def test_total_mass_is_dual_domain_length(data):
    q = data.draw(own.subintervals())
    u = data.draw(own.sector_potentials(GRID5, q))
    assert monge_ampere(u).total == q[1] - q[0]


def test_reference_measure_is_the_documented_one():
    assert tuple(monge_ampere(REF5).masses) == (
        rat(1, 8),
        rat(1, 4),
        rat(1, 4),
        rat(1, 4),
        rat(1, 8),
    )
    assert is_nondegenerate_reference(REF5)


def test_degenerate_reference_is_detected():
    g3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
    flat_middle = make_pl(g3, (0, rat(1, 2), 1), 0, 1)
    assert not is_nondegenerate_reference(flat_middle)
    assert is_nondegenerate_reference(make_pl(g3, (0, rat(1, 4), 1), 0, 1))
    # charges every node, but its slopes span [0, 1], not the polytope [0, 2]
    wide = Grid(nodes=(-1, 0, 1), polytope=(0, 2))
    narrow = make_pl(wide, (0, rat(1, 4), 1), 0, 1)
    assert all(m > 0 for m in monge_ampere(narrow).masses)
    assert not is_nondegenerate_reference(narrow)
    assert is_nondegenerate_reference(make_pl(wide, (0, rat(1, 4), 1), 0, 2))


def test_normalize_rejects_zero_mass():
    with pytest.raises(NotNormalized):
        normalize(AtomicMeasure(GRID5, (0, 0, 0, 0, 0)))


def test_entropy_frozen_value():
    """Documented three-node instance: H((3/4,0,1/4) || (1/2,0,1/2))."""
    g3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
    nu = AtomicMeasure(g3, (rat(3, 4), 0, rat(1, 4)))
    mu = AtomicMeasure(g3, (rat(1, 2), 0, rat(1, 2)))
    value = entropy(nu, mu)
    assert value == pytest.approx(0.13081203594113697, abs=1e-15)
    assert value == pytest.approx(
        0.75 * math.log(1.5) + 0.25 * math.log(0.5), abs=1e-15
    )


def test_entropy_takes_the_log_of_ratios_beyond_the_float_range():
    g3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
    tiny = rat(1, 2 * 10**400)
    half = AtomicMeasure(g3, (rat(1, 2), 0, rat(1, 2)))
    skewed = AtomicMeasure(g3, (tiny, 0, 1 - tiny))
    # ratio 10^400 at the first node; the other ratio rounds to 1/2
    assert entropy(half, skewed) == pytest.approx(200 * math.log(10) + 0.5 * math.log(0.5), rel=1e-12)
    # ratio 10^-400 at the first node, whose weight rounds to 0; the other ratio rounds to 2
    assert entropy(skewed, half) == pytest.approx(math.log(2), rel=1e-12)


def test_entropy_requires_matching_support():
    g3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
    nu = AtomicMeasure(g3, (rat(1, 2), rat(1, 2), 0))
    mu = AtomicMeasure(g3, (1, 0, 0))
    assert entropy(nu, mu) == float("inf")


@given(data=st.data())
def test_entropy_is_nonnegative_and_zero_only_at_equality(data):
    u = data.draw(own.potentials_on(GRID5))
    v = data.draw(own.potentials_on(GRID5))
    nu, mu = normalize(monge_ampere(u)), normalize(monge_ampere(v))
    value = entropy(nu, mu)
    assert value >= 0.0
    if nu.masses == mu.masses:
        assert value == 0.0


def test_entropy_terms_expose_exact_mass_pairs():
    g3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
    nu = AtomicMeasure(g3, (rat(3, 4), 0, rat(1, 4)))
    mu = AtomicMeasure(g3, (rat(1, 2), 0, rat(1, 2)))
    recomputed = sum(
        float(n) * math.log(float(n / m)) for n, m in zip(nu.masses, mu.masses) if n != 0
    )
    assert recomputed == pytest.approx(entropy(nu, mu), abs=1e-15)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_comparison_principle_on_ordered_pairs(u, v):
    hi = pointwise_max(u, v)
    report = check_comparison_principle(u, hi)
    assert report.passed


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_rooftop_mass_bound(u, v):
    assert check_rooftop_mass_bound(u, v).passed


@given(data=st.data())
def test_model_mass_bound(data):
    q = data.draw(own.subintervals())
    psi = model_from_interval(GRID5, q, REF5)
    u = data.draw(own.potentials_on(GRID5))
    assert check_model_mass_bound(psi, u).passed


@given(a=own.grids(), b=own.grids(), data=st.data())
def test_the_checks_read_each_aligned_pair_on_the_union_grid(a, b, data):
    """Each check reads its pairs with ``_pair_on`` on the union grid, never through ``_union_reads``."""
    u, w = data.draw(own.potentials_on(a)), data.draw(own.potentials_on(b))
    psi = model_from_interval(b, data.draw(own.subintervals()), nondegenerate_reference(b))
    hi = pointwise_max(u, w)
    # model_project(psi, u) lives on u's grid, so that check's inputs are aligned as given
    expected = (
        check_comparison_principle(*align(u, hi)),
        check_rooftop_mass_bound(*align(u, w)),
        check_model_mass_bound(psi, u),
    )

    def refuse(u, v):
        raise AssertionError("a check read its pair through _union_reads")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_union_reads", refuse, raising=False)  # measures imports it no more
        got = (
            check_comparison_principle(u, hi),
            check_rooftop_mass_bound(u, w),
            check_model_mass_bound(psi, u),
        )
    assert got == expected


def test_check_witnesses_on_the_documented_instance(grid3, ref3, tent3):
    comp = check_comparison_principle(ref3, tent3)
    assert comp.witnesses == {"charged_nodes": [1]}
    assert (comp.lhs, comp.rhs) == (0, 1)
    roof = check_rooftop_mass_bound(tent3, ref3)
    assert roof.witnesses == {"violating_nodes": [], "contact": [[0, 1, 2], [0, 2]]}
    assert (roof.lhs, roof.rhs) == (1, 2)
    model = check_model_mass_bound(model_from_interval(grid3, (0, rat(1, 2)), ref3), tent3)
    assert model.witnesses == {"violating_nodes": [], "contact": [[0, 1]]}
    assert (model.lhs, model.rhs) == (rat(1, 2), 1)
