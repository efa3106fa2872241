"""Potentials, duality, envelopes, projections: exact structural laws."""

from __future__ import annotations

import math
import random
from functools import reduce

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies as own
from femlab import grid_convex
from femlab import (
    AtomicMeasure,
    Grid,
    GridPLConvex,
    affine_combine,
    biconjugate,
    check_reference,
    dist,
    energy,
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
    GridMismatch,
    IntervalOutOfPolytope,
    SlopeOutOfPolytope,
)
from femlab._rational import Lattice
from femlab.grid_convex import DualPL, align, max_dual, refine_to, restrict_dual
from femlab.measures import abs_diff_pairing, pairings, rho
from femlab.sampling import nondegenerate_reference, random_sector_potential

GRID3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
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
    finer = Grid(tuple(sorted(set(GRID5.nodes) | {rat(-5, 3), rat(1, 7), rat(3, 2)})), GRID5.polytope)
    coarse = REF5.shift(rat(1, 6))
    fine = make_pl(finer, [oracles.ray_value(coarse, x) for x in finer.nodes], coarse.slope_left, coarse.slope_right)
    pairs.append((fine, refine_to(coarse, finer)))
    pairs.append((fine, align(coarse, fine)[0]))
    for u, v in pairs:
        assert u == v and hash(u) == hash(v)
        assert u.values == v.values
        assert legendre(u) == legendre(v) and legendre(u).points == legendre(v).points
        assert monge_ampere(u) == monge_ampere(v) and monge_ampere(u).masses == monge_ampere(v).masses


@given(u=own.potentials_on(GRID5), p=own.rationals(0, 1))
def test_conjugate_matches_enumeration_oracle(u, p):
    assert oracles.dual_value(legendre(u).points, p) == oracles.conjugate_by_enumeration(u, p)


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


GRID17 = Grid(nodes=tuple(range(-8, 9)), polytope=(0, 1))
GRID65 = Grid(nodes=tuple(rat(k, 8) for k in range(-32, 33)), polytope=(0, 1))
# (grid, largest slope denominator, examples): the minimax oracle takes about a
# second per call on 65 nodes, so those draws are few; 17 and 65 nodes run
# under marker scale
ORDER_GRIDS = [
    pytest.param(GRID5, 8, 30, id="5"),
    pytest.param(GRID17, 64, 8, id="17", marks=pytest.mark.scale),
    pytest.param(GRID65, 64, 2, id="65", marks=pytest.mark.scale),
]


def run_examples(examples, check):
    """Run check(data) as a hypothesis test with the given example count.

    No shrinking: on these grids it takes minutes to report a failure.
    """
    no_shrink = (Phase.explicit, Phase.reuse, Phase.generate)
    settings(max_examples=examples, phases=no_shrink)(given(data=st.data())(check))()


def minimax_rooftop(*potentials):
    """The rooftop as a full object from the minimax oracle, on the inputs' common grid."""
    us = align(*potentials)
    s_lo, s_hi = max(u.slope_left for u in us), min(u.slope_right for u in us)
    mins = tuple(map(min, *(u.values for u in us)))
    nodes = us[0].grid.nodes
    return make_pl(us[0].grid, oracles.envelope_values_by_minimax(nodes, mins, s_lo, s_hi), s_lo, s_hi)


def conjugated_rooftop(*potentials):
    """The rooftop by the conjugation kernels alone: restrict, max of duals, conjugate back."""
    us = align(*potentials)
    lo, hi = max(u.slope_left for u in us), min(u.slope_right for u in us)
    return biconjugate(reduce(max_dual, (restrict_dual(legendre(u), lo, hi) for u in us)), us[0].grid)


def ordered_pair(data, grid, q, den, kind):
    """(u, v) with u <= v, both with dual domain q.

    "max": v = max(u, w), whose grid gains the crossings; "coarse": the
    same with u on every other node, so v's grid strictly refines u's;
    "shift": v = u + c with c >= 0; "equal": an equal copy of u.
    """

    def draw(g):
        return data.draw(own.sector_potentials(g, q, max_denominator=den))

    if kind == "coarse":
        u = draw(Grid(grid.nodes[::2], grid.polytope))
        v = pointwise_max(u, draw(grid))
        assert len(v.grid.nodes) > len(u.grid.nodes)
        return u, v
    u = draw(grid)
    if kind == "max":
        return u, pointwise_max(u, draw(grid))
    if kind == "shift":
        return u, u.shift(data.draw(own.rationals(0, 2, den)))
    return u, u.shift(0)


@pytest.mark.parametrize("kind", ["max", "coarse", "shift", "equal"])
@pytest.mark.parametrize("grid, den, examples", ORDER_GRIDS)
def test_rooftop_of_an_ordered_pair_is_its_lower_member(grid, den, examples, kind, monkeypatch):
    def no_rooftop(*potentials):
        raise AssertionError("dist of an ordered pair made a rooftop")

    def check(data):
        q = data.draw(own.subintervals(max_denominator=den))
        u, v = ordered_pair(data, grid, q, den, kind)
        assert is_leq(u, v)
        r = rooftop(u, v)
        assert r == rooftop(v, u) == align(u, v)[0]
        assert r == minimax_rooftop(u, v) and r.dual_domain() == u.dual_domain()
        assert r == conjugated_rooftop(u, v)
        psi = model_from_interval(grid, q, nondegenerate_reference(grid))
        with monkeypatch.context() as m:  # on one grid or, for "coarse", on two
            m.setattr("femlab.metric.rooftop", no_rooftop)
            assert dist(psi, u, v) == energy(psi, v) - energy(psi, u) == dist(psi, v, u)

    run_examples(examples, check)


@pytest.mark.parametrize("kind", ["max", "coarse", "shift", "equal"])
@pytest.mark.parametrize("grid, den, examples", ORDER_GRIDS)
def test_pointwise_max_of_an_ordered_pair_is_its_upper_member(grid, den, examples, kind):
    """The max of u <= v is v itself: in every kind v's grid holds u's nodes, so aligning keeps v."""

    def check(data):
        q = data.draw(own.subintervals(max_denominator=den))
        u, v = ordered_pair(data, grid, q, den, kind)
        top = pointwise_max(u, v)
        assert top is v and top == align(u, v)[1]
        back = pointwise_max(v, u)  # an equal pair gives back its second member, aligned
        assert back == v and (back is v or pl_equal(u, v))
        xs = sorted(set(u.grid.nodes) | set(v.grid.nodes))
        mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for x in [xs[0] - 1, *xs, *mids, xs[-1] + 1]:
            assert oracles.ray_value(top, x) == max(oracles.ray_value(u, x), oracles.ray_value(v, x))

    run_examples(examples, check)


@pytest.mark.parametrize("grid, den, examples", ORDER_GRIDS)
def test_rooftop_of_three_returns_the_lowest_member_in_the_middle(grid, den, examples):
    def check(data):
        q = data.draw(own.subintervals(max_denominator=den))
        u, above = ordered_pair(data, grid, q, den, "max")
        shifted = u.shift(data.draw(own.rationals(0, 2, den)))
        r = rooftop(above, u, shifted)
        assert r == align(above, u, shifted)[1]
        assert r == minimax_rooftop(above, u, shifted) == conjugated_rooftop(above, u, shifted)
        # the last member may sit below the middle one somewhere
        other = data.draw(own.sector_potentials(grid, q, den))
        r = rooftop(above, u, other)
        assert r == minimax_rooftop(above, u, other) == conjugated_rooftop(above, u, other)

    run_examples(examples, check)


@pytest.mark.parametrize("grid, den, examples", ORDER_GRIDS[:2])
def test_rooftop_of_an_unordered_pair_matches_the_minimax_oracle(grid, den, examples):
    def check(data):
        u, v = (
            data.draw(own.sector_potentials(grid, data.draw(own.subintervals(max_denominator=den)), den))
            for _ in range(2)
        )
        assume(not (is_leq(u, v) or is_leq(v, u)))
        if max(u.slope_left, v.slope_left) > min(u.slope_right, v.slope_right):
            with pytest.raises(EmptyRooftop):
                rooftop(u, v)
            return
        r = rooftop(u, v)
        assert r == rooftop(v, u) == minimax_rooftop(u, v) == conjugated_rooftop(u, v)

    run_examples(examples, check)


def test_an_unordered_two_grid_rooftop_conjugates_its_inputs_as_given(monkeypatch):
    """rooftop takes the memoized dual of each input itself, never of a copy refined onto the union grid."""
    args, real = [], grid_convex.legendre
    monkeypatch.setattr(grid_convex, "legendre", lambda u: args.append(u) or real(u))

    def check(data):
        q = data.draw(own.subintervals())
        u, v = (data.draw(own.sector_potentials(data.draw(own.grids()), q)) for _ in range(2))
        assume(u.grid != v.grid and not (is_leq(u, v) or is_leq(v, u)))
        args.clear()
        r = rooftop(u, v)
        assert args and all(x is u or x is v for x in args)
        assert r == minimax_rooftop(u, v)

    run_examples(50, check)


@pytest.mark.scale
def test_rooftop_of_a_frozen_unordered_pair_on_65_nodes():
    rng = random.Random(3)
    u = random_sector_potential(rng, GRID65, (rat(1, 8), rat(7, 8)))
    v = random_sector_potential(rng, GRID65, (rat(1, 8), rat(7, 8)))
    v = v.shift((sup_diff(u, v) - sup_diff(v, u)) / 2)  # now each is above the other somewhere
    assert not (is_leq(u, v) or is_leq(v, u))
    r = rooftop(u, v)
    assert r == minimax_rooftop(u, v) == conjugated_rooftop(u, v)
    assert r != align(u, v)[0] and r != align(u, v)[1]


@given(data=st.data())
def test_is_leq_is_the_sign_of_sup_diff(data):
    u = data.draw(own.sector_potentials(GRID5, data.draw(own.subintervals())))
    w = data.draw(own.sector_potentials(GRID5, data.draw(own.subintervals())))
    for v in (w, pointwise_max(u, w), u.shift(data.draw(own.rationals(-1, 1)))):
        assert is_leq(u, v) == (sup_diff(u, v) <= 0)
        assert is_leq(v, u) == (sup_diff(v, u) <= 0)


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
        assert oracles.ray_value(m, x) == max(oracles.ray_value(u, x), oracles.ray_value(v, x))


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
        assert oracles.ray_value(m, x) == max(oracles.ray_value(u, x), oracles.ray_value(v, x))
    # every added node is a strict crossing: u - v vanishes there and changes sign across it
    old = set(align(u, v)[0].grid.nodes)
    for i, x in enumerate(xs):
        if x not in old:
            left, right = xs[i - 1] if i else x - 1, xs[i + 1] if i + 1 < len(xs) else x + 1
            gaps = [oracles.ray_value(u, y) - oracles.ray_value(v, y) for y in (left, x, right)]
            assert gaps[1] == 0 and gaps[0] * gaps[2] < 0


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5), t=own.rationals(0, 1))
def test_affine_combine_interpolates_node_values(u, v, t):
    w = affine_combine(t, u, v)
    for x in GRID5.nodes:
        assert oracles.ray_value(w, x) == t * oracles.ray_value(u, x) + (1 - t) * oracles.ray_value(v, x)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_sup_diff_bounds_the_difference(u, v):
    s = sup_diff(u, v)
    for x in GRID5.nodes:
        assert oracles.ray_value(u, x) - oracles.ray_value(v, x) <= s
    assert any(oracles.ray_value(u, x) - oracles.ray_value(v, x) == s for x in GRID5.nodes) or s in (
        u.slope_left - v.slope_left,
        u.slope_right - v.slope_right,
    )


@given(u=own.potentials_on(GRID5))
def test_refinement_preserves_the_function(u):
    # midpoints, nodes off the midpoints and nodes beyond both ends: the chord
    # rule, not the average of its two ends, and each ray with its own slope
    new = {rat(1, 2), rat(-3, 2), rat(1, 3), rat(-7, 4), rat(-3), rat(5, 2)}
    finer = Grid(tuple(sorted(set(GRID5.nodes) | new)), GRID5.polytope)
    r = refine_to(u, finer)
    for x in finer.nodes:
        assert oracles.ray_value(r, x) == oracles.ray_value(u, x)
    assert r.dual_domain() == u.dual_domain()


def test_a_potential_on_the_target_grid_is_not_copied():
    coarse = REF5.shift(rat(1, 6))
    assert refine_to(coarse, coarse.grid) is coarse
    assert refine_to(coarse, Grid(GRID5.nodes, GRID5.polytope)) is coarse
    finer = Grid(tuple(sorted(set(GRID5.nodes) | {rat(-5, 3), rat(1, 7)})), GRID5.polytope)
    fine = refine_to(coarse, finer)
    aligned = align(coarse, fine)
    assert aligned[1] is fine and aligned[0] == fine


def test_a_grid_that_holds_the_union_is_the_union(monkeypatch):
    finer = Grid(tuple(sorted(set(GRID5.nodes) | {rat(-5, 3), rat(1, 7)})), GRID5.polytope)
    fine = refine_to(REF5, finer)
    # crosses fine, so the rooftop below conjugates rather than picking a member
    coarse = make_pl(GRID5, (rat(1, 4), rat(1, 4), rat(1, 4), rat(3, 4), rat(5, 4)), 0, 1)
    assert not is_leq(coarse, fine) and not is_leq(fine, coarse)
    psi = model_from_interval(GRID5, (0, 1), REF5)
    built = []
    real = Grid.__init__
    monkeypatch.setattr(Grid, "__init__", lambda self, *a, **kw: built.append(a or kw) or real(self, *a, **kw))
    for pair in ((coarse, fine), (fine, coarse)):
        aligned = align(*pair)
        assert aligned[pair.index(fine)] is fine
        assert aligned[pair.index(coarse)].grid is finer
        assert aligned[pair.index(coarse)] == refine_to(coarse, finer)
    assert dist(psi, coarse, fine) == dist(psi, fine, coarse) > 0
    assert rooftop(coarse, fine).grid is finer
    assert built == []


def test_potentials_over_different_polytopes_are_refused(monkeypatch):
    """Comparing, pairing or combining across polytopes raises, whether or not the end slopes nest;
    rooftop refuses in its first ``is_leq``, wherever the foreign input sits, before building a grid."""
    wide = Grid((-2, 0, 2), (0, 2))
    wide_level = model_from_interval(wide, (0, 1), make_pl(wide, (0, 0, 4), 0, 2))
    u = make_pl(GRID5, (0, 0, 0, 1, 2), 0, 1)
    same_ends = make_pl(wide, (0, 0, 1), 0, 1)  # ends (0, 1) as u's
    wider_ends = make_pl(wide, (0, 0, 4), 0, 2)  # ends (0, 2) leave u's: is_leq(v, u) fails on them alone
    psi = model_from_interval(GRID5, (0, 1), REF5)
    calls = [
        (energy, wide_level, u),
        (dist, wide_level, u, u),
        (energy, psi, same_ends),
        (dist, psi, u, same_ends),
        (dist, psi, same_ends, u),
    ]
    w = REF5.shift(rat(-1, 3))  # crosses u, so no three-input rooftop below stops at an ordered pair
    assert not is_leq(u, w) and not is_leq(w, u)
    off_nodes = make_pl(Grid((-2, rat(1, 2), 2), (0, 2)), (0, 0, 3), 0, 2)  # a union with u's nodes is a new grid
    for v in (same_ends, wider_ends, off_nodes):
        for f in (is_leq, pairings, sup_diff, pl_equal, abs_diff_pairing, rooftop, pointwise_max, align):
            calls += [(f, u, v), (f, v, u)]
        calls += [(affine_combine, rat(1, 2), u, v), (affine_combine, rat(1, 2), v, u)]
        calls += [(rooftop, v, u, w), (rooftop, u, v, w), (rooftop, u, w, v), (rooftop, u, u.shift(1), v)]
    built = []
    real = Grid.__init__
    monkeypatch.setattr(Grid, "__init__", lambda self, *a, **kw: built.append(a or kw) or real(self, *a, **kw))
    for f, *args in calls:
        assert message(GridMismatch, f, *args) == "potentials live over different polytopes"
    assert built == []


def test_grid_on_gives_back_an_equal_grid_without_building_one(monkeypatch):
    built = []
    real = Grid.__init__
    twin = Grid(GRID5.nodes, GRID5.polytope)
    monkeypatch.setattr(Grid, "__init__", lambda self, *a, **kw: built.append(a or kw) or real(self, *a, **kw))
    assert grid_convex._grid_on([GRID5, GRID5]) is GRID5
    assert grid_convex._grid_on([GRID5, twin, GRID5]) is GRID5
    assert grid_convex._grid_on([twin]) is twin
    assert built == []
    assert grid_convex._grid_on([GRID5, GRID5], [(1, 2)]).nodes == (-2, -1, 0, rat(1, 2), 1, 2)


def test_rooftop_refines_only_the_member_it_returns(monkeypatch):
    """rooftop compares and conjugates its inputs as given: an unordered two-grid pair is refined
    nowhere, and of an ordered one only the lower member, which is the result."""
    refined, real = [], grid_convex.refine_to
    monkeypatch.setattr(grid_convex, "refine_to", lambda u, grid: refined.append(u) or real(u, grid))
    finer = Grid(tuple(sorted(set(GRID5.nodes) | {rat(-5, 3), rat(1, 7)})), GRID5.polytope)
    fine = real(REF5, finer)
    coarse = make_pl(GRID5, (rat(1, 4), rat(1, 4), rat(1, 4), rat(3, 4), rat(5, 4)), 0, 1)  # crosses fine
    for pair in ((coarse, fine), (fine, coarse)):
        refined.clear()
        r = rooftop(*pair)
        assert refined == [] and r.grid is finer and r == minimax_rooftop(*pair)

    def check(data):
        q = data.draw(own.subintervals())
        u, w = (data.draw(own.sector_potentials(data.draw(own.grids()), q)) for _ in range(2))
        assume(u.grid != w.grid)
        for v in (w, pointwise_max(u, w)):  # often unordered, then ordered
            lower = [x for x, y in ((u, v), (v, u)) if is_leq(x, y)][:1]
            refined.clear()
            r = rooftop(u, v)
            assert refined == lower and r == minimax_rooftop(u, v)
            if lower:
                assert r == align(u, v)[0 if lower[0] is u else 1]

    run_examples(50, check)


def test_documented_refusals_raise_their_class_and_message():
    """Each refusal the grid_convex docstrings promise, with its error class and message."""
    wide = Grid(GRID5.nodes, (0, 2))
    steep = make_pl(GRID5, (0, rat(1, 2), 1, rat(3, 2), 2), rat(1, 2), 1)  # dual domain [1/2, 1]
    low = model_from_interval(GRID5, (0, rat(1, 4)), REF5)
    cases = [
        (ValueError, Grid, ((0,), (0, 1)), "grid needs at least two nodes"),
        (ValueError, Grid, ((0, 1), (0, 1, 2)), "polytope must be a pair (p_min, p_max)"),
        (ValueError, DualPL, (Lattice((), 1), Lattice((), 1)), "dual needs at least one breakpoint"),
        (ValueError, DualPL, (Lattice((0, 1), 1), Lattice((0,), 1)), "1 values for 2 breakpoints"),
        (EmptyRooftop, model_project, (low, steep), "dual domains miss the interval [1/2, 1/4]"),
        (ValueError, max_dual, (legendre(REF5), legendre(steep)), "max_dual needs duals on a common domain"),
        (GridMismatch, refine_to, (REF5, wide), "refinement target has a different polytope"),
        (ValueError, affine_combine, (rat(3, 2), REF5, steep), "combination weight must lie in [0, 1]"),
        (ValueError, affine_combine, (-1, REF5, steep), "combination weight must lie in [0, 1]"),
        (ValueError, rooftop, (REF5,), "rooftop needs at least two potentials"),
    ]
    for error, f, args, text in cases:
        assert message(error, f, *args) == text, f.__name__


# (grid, a grid over its polytope that neither holds nor is held by it, with
# nodes beyond both of its ends, largest slope denominator, examples); the
# 65-node pair runs under marker scale
CROSS_GRIDS = [
    pytest.param(GRID5, Grid((-3, rat(-1, 2), rat(1, 3), 2, rat(7, 2)), (0, 1)), 8, 30, id="5"),
    pytest.param(
        GRID65,
        Grid(tuple(rat(9 * k - 288, 64) for k in range(65)), (0, 1)),
        64,
        4,
        id="65",
        marks=pytest.mark.scale,
    ),
]


@pytest.mark.parametrize("grid, other, den, examples", CROSS_GRIDS)
def test_reads_across_grids_agree_with_the_aligned_pair(grid, other, den, examples):
    """The reads of two potentials on two grids equal those of align(u, v).

    On the aligned pair every read is on one grid, and the level is the same
    function on the union grid, built from the reference refined there.
    """
    reference = nondegenerate_reference(grid)

    def check(data):
        q = data.draw(own.subintervals(max_denominator=den))
        u = data.draw(own.sector_potentials(grid, q, max_denominator=den))
        w = data.draw(own.sector_potentials(other, q, max_denominator=den))
        q2 = data.draw(own.subintervals(max_denominator=den))
        x = data.draw(own.sector_potentials(other, q2, max_denominator=den))
        c = sup_diff(u, w)
        psi = model_from_interval(grid, q, reference)
        # crossing, touching u from above, strictly above, u itself on the union grid, another sector
        for v in (w, w.shift(c), w.shift(c + rat(1, den)), align(u, w)[0], x):
            a, b = align(u, v)
            assert (is_leq(u, v), is_leq(v, u)) == (is_leq(a, b), is_leq(b, a))
            (iu, iv), d = pairings(u, v)
            (ju, jv), e = pairings(a, b)
            assert (rat(iu, d), rat(iv, d)) == (rat(ju, e), rat(jv, e))
            assert (sup_diff(u, v), sup_diff(v, u)) == (sup_diff(a, b), sup_diff(b, a))
            assert pl_equal(u, v) == pl_equal(v, u) == (a == b)
            assert abs_diff_pairing(u, v) == abs_diff_pairing(a, b)
            if v is not w and v is not x:  # the ordered pairs
                assert rho(u, v) == rho(a, b) == rho(v, u)
            if v is not x:
                level = model_from_interval(a.grid, q, refine_to(reference, a.grid))
                assert level.potential.grid == a.grid
                assert (energy(psi, u), energy(psi, v)) == (energy(level, a), energy(level, b))
                assert dist(psi, u, v) == dist(level, a, b) == dist(psi, v, u)
        assert is_leq(u, w.shift(c)) and not is_leq(w.shift(c + rat(1, den)), u)

    run_examples(examples, check)


def test_cross_grid_reads_build_no_potential(monkeypatch):
    """dist of an ordered pair, energy and a ray-crossing pointwise_max build only their results;
    sup_diff, pl_equal, rho, abs_diff_pairing and pointwise_max of an ordered pair build nothing."""
    u = make_pl(GRID5, (rat(1, 4), rat(1, 4), rat(1, 4), rat(3, 4), rat(5, 4)), 0, 1)
    v = pointwise_max(u, REF5)  # u <= v on a strict refinement of GRID5
    assert is_leq(u, v) and not is_leq(v, u) and set(GRID5.nodes) < set(v.grid.nodes)
    psi = model_from_interval(GRID5, (0, 1), REF5)
    flat = make_pl(GRID5, (0, 0, 0, 0, 0), 0, 1)
    line = make_pl(GRID5, (-1, rat(-1, 2), 0, rat(1, 2), 1), rat(1, 2), rat(1, 2))  # crosses flat at 4
    built = {Grid: [], GridPLConvex: [], AtomicMeasure: []}
    for cls, log in built.items():

        def counted(self, *args, _real=cls.__init__, _log=log, **kwargs):
            _log.append(self)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    def building(f, *args):
        for log in built.values():
            log.clear()
        result = f(*args)
        return result, {cls.__name__: list(log) for cls, log in built.items()}

    e_u, _ = building(energy, psi, u)
    e_v, made = building(energy, psi, v)
    assert made == {"Grid": [], "GridPLConvex": [], "AtomicMeasure": [monge_ampere(v)]}
    assert building(dist, psi, u, v) == (e_v - e_u, {"Grid": [], "GridPLConvex": [], "AtomicMeasure": []})
    assert building(dist, psi, v, u) == (e_v - e_u, {"Grid": [], "GridPLConvex": [], "AtomicMeasure": []})
    for f in (sup_diff, pl_equal, rho, abs_diff_pairing):
        for pair in ((u, v), (v, u)):
            assert building(f, *pair)[1] == {"Grid": [], "GridPLConvex": [], "AtomicMeasure": []}, f.__name__
    top, made = building(pointwise_max, flat, line)
    assert 4 in top.grid.nodes and made["GridPLConvex"] == [top]
    lift = u.shift(1)
    for pair in ((u, lift), (lift, u)):  # an ordered pair on one grid: its upper member
        top, made = building(pointwise_max, *pair)
        assert top is lift and made == {"Grid": [], "GridPLConvex": [], "AtomicMeasure": []}


def test_sup_diff_is_infinite_when_the_second_dual_domain_misses_the_first():
    full = make_pl(GRID3, (0, 0, 1), 0, 1)
    for part in (make_pl(GRID3, (0, 0, rat(1, 2)), 0, rat(1, 2)), make_pl(GRID3, (-1, 0, 1), 1, 1)):
        assert sup_diff(full, part) == math.inf
        assert sup_diff(part, full) != math.inf


def test_a_pair_that_fails_on_its_end_slopes_reads_no_node(monkeypatch):
    """is_leq, sup_diff and pl_equal decide such a two-grid pair from the end slopes alone."""
    full = make_pl(GRID5, (0, 0, 0, 1, 2), 0, 1)
    part = make_pl(GRID3, (0, 0, rat(1, 2)), 0, rat(1, 2))  # end slopes (0, 1/2) miss full's (0, 1)
    reads, real = [], grid_convex._values_on
    monkeypatch.setattr(grid_convex, "_values_on", lambda u, grid: reads.append(u) or real(u, grid))
    assert not is_leq(full, part) and sup_diff(full, part) == math.inf
    assert not pl_equal(full, part) and not pl_equal(part, full)
    assert reads == []
    assert is_leq(part, full) and reads  # a pair that passes them is read


@given(data=st.data())
def test_a_level_lives_on_its_references_grid(data):
    # the level's kinks are reference nodes: a grid with extra nodes gives
    # the function the reference refined onto that grid gives
    finer = Grid(tuple(sorted(set(GRID5.nodes) | {rat(1, 2), rat(-3, 2)})), GRID5.polytope)
    fine_ref = refine_to(REF5, finer)
    q = data.draw(own.subintervals())
    psi = model_from_interval(finer, q, REF5)
    refined = model_from_interval(finer, q, fine_ref)
    assert psi.grid == GRID5 and refined.grid == finer
    assert pl_equal(psi.potential, refined.potential)
    assert pl_equal(model_from_interval(GRID5, q, fine_ref).potential, psi.potential)
    u = data.draw(own.sector_potentials(finer, q))
    v = data.draw(own.sector_potentials(finer, q))
    assert energy(psi, u) == energy(refined, u)
    assert dist(psi, u, v) == dist(refined, u, v)


@given(data=st.data())
def test_model_projection_matches_minimax_oracle(data):
    q = data.draw(own.subintervals())
    psi = model_from_interval(GRID5, q, REF5)
    u = data.draw(own.potentials_on(GRID5))
    assert tuple(model_project(psi, u).values) == oracles.project_by_minimax(psi, u)


@pytest.mark.parametrize("grid, den, examples", ORDER_GRIDS)
def test_model_projection_keeps_the_legendre_of_a_fresh_copy(grid, den, examples):
    """The dual model_project hands its image is what legendre computes anew."""
    ref = nondegenerate_reference(grid)

    def check(data):
        psi = model_from_interval(grid, data.draw(own.subintervals()), ref)
        u = data.draw(own.potentials_on(grid, den))
        p = model_project(psi, u)
        fresh = make_pl(p.grid, p.values, p.slope_left, p.slope_right)
        assert legendre(p) == legendre(fresh) == restrict_dual(legendre(u), *psi.Q)

    run_examples(examples, check)


@pytest.mark.parametrize("grid, den, examples", ORDER_GRIDS)
def test_model_projection_gives_back_a_potential_inside_its_sector(grid, den, examples):
    """P_psi fixes its sector and every potential more singular: when Q covers u's dual domain, u itself."""
    ref = nondegenerate_reference(grid)

    def check(data):
        q = data.draw(own.subintervals(max_denominator=den))
        psi = model_from_interval(grid, q, ref)
        inner = data.draw(own.subintervals(q, max_denominator=den))
        for dual_domain in (q, inner):
            u = data.draw(own.sector_potentials(grid, dual_domain, max_denominator=den))
            assert model_project(psi, u) is u
        full = data.draw(own.potentials_on(grid, den))
        assert (model_project(psi, full) is full) == (q == grid.polytope)

    run_examples(examples, check)


@pytest.mark.parametrize("grid, den, examples", ORDER_GRIDS)
def test_conjugating_back_a_dual_inside_q_gives_the_potential(grid, den, examples):
    """biconjugate(restrict_dual(legendre(u), *Q), u.grid) == u whenever Q covers u's dual domain:
    the identity that lets model_project give such a u back, checked on the kernels themselves."""

    def check(data):
        q = data.draw(own.subintervals(max_denominator=den))
        inner = data.draw(own.subintervals(q, max_denominator=den))
        for dual_domain in (q, inner):
            u = data.draw(own.sector_potentials(grid, dual_domain, max_denominator=den))
            fresh = make_pl(u.grid, u.values, u.slope_left, u.slope_right)  # no memoized dual
            assert biconjugate(restrict_dual(legendre(fresh), *q), u.grid) == u

    run_examples(examples, check)


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


def test_a_level_potential_is_computed_once_per_reference_and_interval():
    ref = nondegenerate_reference(GRID5)
    psi = model_from_interval(GRID5, (0, rat(1, 2)), ref)
    again = model_from_interval(GRID5, ("0", "1/2"), ref)
    assert again is not psi and again == psi
    assert again.potential is psi.potential
    assert model_from_interval(GRID5, (0, 1), ref).potential is not psi.potential
    other = model_from_interval(GRID5, (0, rat(1, 2)), ref.shift(1))
    assert other.potential is not psi.potential and other != psi


def test_every_input_is_checked_after_a_cached_level():
    ref = nondegenerate_reference(GRID5)
    model_from_interval(GRID5, (0, 1), ref)
    model_from_interval(GRID5, (0, rat(1, 2)), ref)
    with pytest.raises(IntervalOutOfPolytope):
        model_from_interval(GRID5, (0, 2), ref)
    with pytest.raises(IntervalOutOfPolytope):
        model_from_interval(GRID5, (rat(1, 2), 0), ref)
    with pytest.raises(TypeError):
        model_from_interval(GRID5, (0, 0.5), ref)
    narrow = Grid(nodes=GRID5.nodes, polytope=(0, rat(1, 2)))
    with pytest.raises(IntervalOutOfPolytope):
        model_from_interval(narrow, (0, 1), ref)
    with pytest.raises(GridMismatch):
        model_from_interval(narrow, (0, rat(1, 2)), ref)
    half = make_pl(GRID5, (0, 0, 0, 0, 0), 0, rat(1, 2))
    with pytest.raises(BadReference):
        model_from_interval(GRID5, (0, rat(1, 2)), half)


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
