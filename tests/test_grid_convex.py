"""Potentials, duality, envelopes, projections: exact structural laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies as own
from femlab import (
    Grid,
    affine_combine,
    biconjugate,
    check_reference,
    is_leq,
    legendre,
    make_pl,
    model_from_interval,
    model_project,
    monge_ampere,
    pl_equal,
    pointwise_max,
    rat,
    rooftop,
    sup_diff,
)
from femlab.errors import (
    BadReference,
    ConvexityViolation,
    EmptyRooftop,
    IntervalOutOfPolytope,
    SlopeOutOfPolytope,
)
from femlab._rational import Lattice
from femlab.grid_convex import DualPL, align, refine_to
from femlab.sampling import nondegenerate_reference

GRID5 = Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1))
REF5 = nondegenerate_reference(GRID5)


def test_grid_validates_nodes_and_polytope():
    with pytest.raises(ValueError):
        Grid(nodes=(1, 0), polytope=(0, 1))
    with pytest.raises(ValueError):
        Grid(nodes=(0, 0, 1), polytope=(0, 1))
    with pytest.raises(ValueError):
        Grid(nodes=(0, 1), polytope=(1, 0))


def message(error, build, *args):
    with pytest.raises(error) as err:
        build(*args)
    return str(err.value)


def test_non_convex_values_are_rejected():
    assert message(ConvexityViolation, make_pl, GRID5, (0, 1, 0, 1, 2), 0, 1) == (
        "slope sequence decreases at position 1: 1/1 > -1/1"
    )
    assert message(ConvexityViolation, make_pl, GRID5, (0, rat(1, 3), rat(2, 3), 1, 2), rat(1, 2), 1) == (
        "slope sequence decreases at position 0: 1/2 > 1/3"
    )


def test_end_slopes_must_stay_in_polytope():
    assert message(SlopeOutOfPolytope, make_pl, GRID5, (0, 0, 0, 0, 0), rat(-1, 2), 0) == (
        "end slopes [-1/2, 0/1] leave polytope [0/1, 1/1]"
    )
    # slopes inside the polytope but below the last chord
    assert message(ConvexityViolation, make_pl, GRID5, (0, 1, 2, 3, 4), 0, 0) == (
        "slope sequence decreases at position 4: 1/1 > 0/1"
    )


def test_interval_messages_print_both_ends():
    assert message(ValueError, Grid, (0, 1), (1, 0)) == "polytope must be nondegenerate: [1/1, 0/1]"
    half = make_pl(GRID5, (0, 0, 0, 0, 0), 0, rat(1, 2))
    assert message(BadReference, check_reference, GRID5, half) == (
        "reference slope range [0/1, 1/2] must equal the polytope"
    )
    assert message(IntervalOutOfPolytope, model_from_interval, GRID5, (0, 2), REF5) == (
        "[0/1, 2/1] leaves polytope [0/1, 1/1]"
    )
    assert message(IntervalOutOfPolytope, model_from_interval, GRID5, (rat(1, 2), rat(1, 4)), REF5) == (
        "interval endpoints out of order"
    )
    flat = make_pl(GRID5, (0, 0, 0, 0, 0), 0, rat(1, 4))
    steep = make_pl(GRID5, (0, rat(1, 2), 1, rat(3, 2), 2), rat(1, 2), 1)
    assert message(EmptyRooftop, rooftop, flat, steep) == "slope ranges [0/1, 1/4], [1/2, 1/1] are disjoint"


def test_dual_data_must_increase_and_be_convex():
    assert message(ValueError, DualPL, Lattice((0, 0), 1), Lattice((0, 1), 1)) == (
        "dual breakpoints must increase strictly"
    )
    assert message(ConvexityViolation, DualPL, Lattice((0, 1, 2), 1), Lattice((0, 1, 0), 1)) == (
        "dual breakpoint data is not convex"
    )


def test_equal_potentials_share_one_representation():
    """However the input is written or computed, equal data compares and hashes equal.

    An unreduced common denominator would not change any single value, but
    would break == and every cache keyed by a potential.
    """
    half = make_pl(GRID5, ("2/4", 1, "3/2", 2, "5/2"), rat(1, 2), 1)
    pairs = [
        (half, make_pl(GRID5, ("1/2", rat(1), rat(3, 2), rat(2), rat(5, 2)), "1/2", "1/1")),
        (make_pl(GRID5, (0, 0, 1, 2, 3), 0, 1), make_pl(GRID5, (rat(0, 1), rat(0), rat(1, 1), "2", "6/2"), 0, 1)),
    ]
    finer = GRID5.with_nodes(sorted(set(GRID5.nodes) | {rat(-5, 3), rat(1, 7), rat(3, 2)}))
    coarse = REF5.shift(rat(1, 6))
    fine = make_pl(finer, [coarse.evaluate(x) for x in finer.nodes], coarse.slope_left, coarse.slope_right)
    pairs.append((fine, refine_to(coarse, finer)))
    pairs.append((fine, align(coarse, fine)[0]))
    for u, v in pairs:
        assert u == v and hash(u) == hash(v)
        assert u.values == v.values
        assert legendre(u) == legendre(v) and legendre(u).points == legendre(v).points
        assert monge_ampere(u) == monge_ampere(v) and monge_ampere(u).masses == monge_ampere(v).masses


@given(u=own.potentials_on(GRID5), p=own.rationals(0, 1))
def test_conjugate_matches_enumeration_oracle(u, p):
    assert legendre(u).evaluate(p) == oracles.conjugate_by_enumeration(u, p)


@given(u=own.potentials_on(GRID5))
def test_biconjugate_is_the_identity_on_convex_data(u):
    assert pl_equal(biconjugate(legendre(u), u.grid), u)


@given(data=st.data())
def test_rooftop_matches_minimax_oracle(data):
    iv1 = data.draw(own.subintervals())
    iv2 = data.draw(own.subintervals())
    u = data.draw(own.sector_potentials(GRID5, iv1))
    v = data.draw(own.sector_potentials(GRID5, iv2))
    expected = oracles.rooftop_by_minimax(u, v)
    if expected is None:
        with pytest.raises(EmptyRooftop):
            rooftop(u, v)
        return
    assert tuple(rooftop(u, v).values) == expected


def test_rooftop_on_detached_plateau_case():
    """Envelope must detach from both inputs: frozen adversarial instance."""
    g3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
    u = make_pl(g3, (0, rat(1, 2), 1), rat(1, 2), 1)
    v = make_pl(g3, (rat(1, 2), rat(1, 2), rat(1, 2)), 0, rat(1, 2))
    r = rooftop(u, v)
    assert r.values == (rat(-1, 2), rat(0), rat(1, 2))
    assert r.dual_domain() == (rat(1, 2), rat(1, 2))


@given(data=st.data())
def test_rooftop_is_a_lower_bound_and_max_among_minorants(data):
    u = data.draw(own.potentials_on(GRID5))
    v = data.draw(own.potentials_on(GRID5))
    w = data.draw(own.potentials_on(GRID5))
    r = rooftop(u, v)
    assert is_leq(r, u) and is_leq(r, v)
    if is_leq(w, u) and is_leq(w, v):
        assert is_leq(w, r)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_pointwise_max_is_least_upper_bound(u, v):
    m = pointwise_max(u, v)
    assert is_leq(u, m) and is_leq(v, m)
    for i, x in enumerate(m.grid.nodes):
        assert m.evaluate(x) == max(u.evaluate(x), v.evaluate(x))


@settings(max_examples=100)
@given(data=st.data())
def test_pointwise_max_is_exact_between_nodes_and_on_both_rays(data):
    # independent sectors give unequal end slopes, so u - v can change sign on a ray
    u = data.draw(own.sector_potentials(GRID5, data.draw(own.subintervals())))
    v = data.draw(own.sector_potentials(GRID5, data.draw(own.subintervals())))
    m = pointwise_max(u, v)
    xs = m.grid.nodes
    probes = [*xs, *((a + b) / 2 for a, b in zip(xs, xs[1:])), xs[0] - 1, xs[-1] + 1]
    for x in probes:
        assert m.evaluate(x) == max(u.evaluate(x), v.evaluate(x))


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5), t=own.rationals(0, 1))
def test_affine_combine_interpolates_node_values(u, v, t):
    w = affine_combine(t, u, v)
    for x in GRID5.nodes:
        assert w.evaluate(x) == t * u.evaluate(x) + (1 - t) * v.evaluate(x)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_sup_diff_bounds_the_difference(u, v):
    s = sup_diff(u, v)
    for x in GRID5.nodes:
        assert u.evaluate(x) - v.evaluate(x) <= s
    assert any(u.evaluate(x) - v.evaluate(x) == s for x in GRID5.nodes) or s in (
        u.slope_left - v.slope_left,
        u.slope_right - v.slope_right,
    )


@given(u=own.potentials_on(GRID5))
def test_refinement_preserves_the_function(u):
    finer = GRID5.with_nodes(tuple(sorted(set(GRID5.nodes) | {rat(1, 2), rat(-3, 2)})))
    r = refine_to(u, finer)
    for x in finer.nodes:
        assert r.evaluate(x) == u.evaluate(x)
    assert r.dual_domain() == u.dual_domain()


@given(data=st.data())
def test_model_projection_matches_minimax_oracle(data):
    q = data.draw(own.subintervals())
    psi = model_from_interval(GRID5, q, REF5)
    u = data.draw(own.potentials_on(GRID5))
    assert tuple(model_project(psi, u).values) == oracles.project_by_minimax(psi, u)


@given(data=st.data())
def test_model_projection_is_idempotent_and_dominated(data):
    q = data.draw(own.subintervals())
    psi = model_from_interval(GRID5, q, REF5)
    u = data.draw(own.potentials_on(GRID5))
    p = model_project(psi, u)
    assert is_leq(p, u)
    assert pl_equal(model_project(psi, p), p)


@given(data=st.data())
def test_model_projection_fixes_sector_potentials(data):
    q = data.draw(own.subintervals())
    psi = model_from_interval(GRID5, q, REF5)
    u = data.draw(own.sector_potentials(GRID5, q))
    assert pl_equal(model_project(psi, u), u)


@given(data=st.data())
def test_deeper_projection_wins_compositions(data):
    q1 = data.draw(own.subintervals())
    q2 = data.draw(own.subintervals(q1))
    psi1 = model_from_interval(GRID5, q1, REF5)
    psi2 = model_from_interval(GRID5, q2, REF5)
    u = data.draw(own.potentials_on(GRID5))
    assert pl_equal(
        model_project(psi2, model_project(psi1, u)), model_project(psi2, u)
    )


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_projection_is_monotone(u, v):
    q = (rat(1, 4), rat(3, 4))
    psi = model_from_interval(GRID5, q, REF5)
    if is_leq(u, v):
        assert is_leq(model_project(psi, u), model_project(psi, v))


def test_model_from_interval_rejects_escaping_intervals():
    with pytest.raises(IntervalOutOfPolytope):
        model_from_interval(GRID5, (0, 2), REF5)
    with pytest.raises(IntervalOutOfPolytope):
        model_from_interval(GRID5, (rat(1, 2), rat(1, 4)), REF5)


def test_model_envelopes_are_model_type():
    for q in ((0, 1), (0, rat(1, 2)), (rat(1, 4), rat(3, 4)), (rat(1, 2), rat(1, 2))):
        psi = model_from_interval(GRID5, q, REF5)
        assert psi.potential.dual_domain() == (rat(q[0]), rat(q[1]))
        again = model_from_interval(GRID5, psi.potential.dual_domain(), REF5)
        assert pl_equal(again.potential, psi.potential)


def test_reprs_print_the_public_fields_as_backend_rationals():
    g = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
    u = make_pl(g, (0, 0, rat(1, 2)), 0, 1)
    zero, half, one = repr(rat(0)), repr(rat(1, 2)), repr(rat(1))
    grid = "Grid(nodes=(%s, %s, %s), polytope=(%s, %s))" % (repr(rat(-1)), zero, one, zero, one)
    assert repr(g) == grid
    pl = "GridPLConvex(grid=%s, values=(%s, %s, %s), slope_left=%s, slope_right=%s)" % (
        grid, zero, zero, half, zero, one
    )
    assert repr(u) == pl
    psi, again = model_from_interval(g, g.polytope, u), model_from_interval(g, g.polytope, u)
    assert repr(psi) == "ModelEnvelope(potential=%s, reference=%s)" % (pl, pl)
    assert psi is not again and psi == again and hash(psi) == hash(again)
    assert psi != model_from_interval(g, g.polytope, u.shift(1))
    with pytest.raises(AttributeError):
        psi.potential = u
    assert repr(legendre(u)) == "DualPL(points=((%s, %s), (%s, %s), (%s, %s)))" % (zero, zero, half, zero, one, half)
    assert repr(monge_ampere(u)) == "AtomicMeasure(grid=%s, masses=(%s, %s, %s))" % (grid, zero, half, half)
