"""Conjugation kernels, energy and the distance against oracles beyond desk scale.

The merged walks in biconjugate, restrict_dual, max_dual and refine_to are
only exercised in earnest when a dual carries many breakpoints and when a
breakpoint pointer meets exact ties, so these properties run on 17- and
65-node grids with slopes on the 1/64 lattice.  The kernels keep each
object's numbers as ints over one denominator, so the conjugation and
refinement properties also run on a non-uniform 17-node grid whose nodes
have the denominators 3, 5, 7 and 8: a node scale above 1 with unequal
steps, as the grids ``pointwise_max`` creates.  Conjugating back on the
potential's own grid makes every kink an exact tie between a dual chord
slope and a node.  The energy, the distance and its metric laws are checked
on the same grids, since they pair the kernels' node values with masses.
Marked ``scale``; example counts are bounded so tier-1 time stays bounded.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies as own
from femlab import (
    Grid,
    biconjugate,
    dist,
    energy,
    legendre,
    make_pl,
    model_from_interval,
    model_project,
    rat,
    rooftop,
)
from femlab.errors import EmptyRooftop, GridMismatch
from femlab.grid_convex import max_dual, refine_to, restrict_dual
from femlab.sampling import nondegenerate_reference, random_sector_potential, random_subinterval

pytestmark = pytest.mark.scale

DEN = 64
GRID17 = Grid(nodes=tuple(range(-8, 9)), polytope=(0, 1))
GRID65 = Grid(nodes=tuple(rat(k, 8) for k in range(-32, 33)), polytope=(0, 1))
GRIDS = [pytest.param(GRID17, id="17"), pytest.param(GRID65, id="65")]
GRID17_MIXED = Grid(
    nodes=tuple(
        rat(x)
        for x in (
            "-4", "-10/3", "-13/5", "-15/7", "-11/8", "-2/3", "-1/5", "0", "1/7",
            "3/8", "4/5", "4/3", "12/7", "17/8", "13/5", "10/3", "4",
        )
    ),
    polytope=(0, 1),
)
KERNEL_GRIDS = GRIDS + [pytest.param(GRID17_MIXED, id="17mixed")]
GRID257 = Grid(nodes=tuple(rat(k, 32) for k in range(-128, 129)), polytope=(0, 1))
SMALL = settings(max_examples=8)


def potential(data, grid, interval=None):
    return data.draw(own.sector_potentials(grid, interval, max_denominator=DEN))


def interval(data):
    return data.draw(own.subintervals(max_denominator=DEN))


@pytest.mark.parametrize("grid", KERNEL_GRIDS)
@SMALL
@given(data=st.data())
def test_biconjugate_inverts_legendre(grid, data):
    u = potential(data, grid)
    assert biconjugate(legendre(u), grid) == u


@pytest.mark.parametrize("grid", KERNEL_GRIDS)
@SMALL
@given(data=st.data())
def test_biconjugate_matches_enumeration_oracle(grid, data):
    dual = restrict_dual(legendre(potential(data, grid)), *interval(data))
    for target in (grid, GRID17 if grid is GRID65 else GRID65):
        env = biconjugate(dual, target)
        assert env.values == oracles.biconjugate_by_enumeration(dual, target)
        assert env.dual_domain() == dual.domain


@pytest.mark.parametrize("grid", KERNEL_GRIDS)
@SMALL
@given(data=st.data())
def test_restrict_dual_matches_sampling_oracle(grid, data):
    dual = legendre(potential(data, grid, interval(data)))
    lo, hi = sorted((data.draw(own.rationals(-1, 2, DEN)), data.draw(own.rationals(-1, 2, DEN))))
    d_lo, d_hi = dual.domain
    lo, hi = max(lo, d_lo), min(hi, d_hi)
    if lo > hi:
        with pytest.raises(EmptyRooftop):
            restrict_dual(dual, lo, hi)
        return
    assert restrict_dual(dual, lo, hi).points == oracles.restrict_by_sampling(dual, lo, hi)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restrict_dual_to_a_covering_interval_is_the_dual(seed):
    rng = random.Random(seed)
    sector = random_sector_potential(rng, GRID257, random_subinterval(rng, GRID257.polytope))
    point = make_pl(GRID257, tuple(rat(seed, 3) * x for x in GRID257.nodes), rat(seed, 3), rat(seed, 3))
    for u in (sector, point, nondegenerate_reference(GRID257)):
        dual = legendre(u)
        lo, hi = dual.domain
        assert restrict_dual(dual, lo, hi) is dual
        assert restrict_dual(dual, lo - 1, hi + rat(1, 7)) is dual
        assert restrict_dual(dual, lo, hi).points == oracles.restrict_by_sampling(dual, lo, hi)
        mid = (lo + hi) / 2
        assert restrict_dual(dual, mid, hi + 1).points == oracles.restrict_by_sampling(dual, mid, hi)


@pytest.mark.parametrize("grid", KERNEL_GRIDS)
@SMALL
@given(data=st.data())
def test_max_dual_matches_sampling_oracle(grid, data):
    lo, hi = interval(data)
    d1 = restrict_dual(legendre(potential(data, grid)), lo, hi)
    d2 = restrict_dual(legendre(potential(data, grid)), lo, hi)
    m = max_dual(d1, d2)
    expected = oracles.max_dual_by_sampling(d1, d2)
    assert m.domain == (lo, hi)
    assert {p for p, _ in m.points} <= set(expected)
    for p, w in expected.items():
        assert m.evaluate(p) == w


@pytest.mark.parametrize("grid", KERNEL_GRIDS)
@SMALL
@given(data=st.data())
def test_rooftop_matches_minimax_oracle(grid, data):
    u = potential(data, grid, interval(data))
    v = potential(data, grid, interval(data))
    s_lo = max(u.slope_left, v.slope_left)
    s_hi = min(u.slope_right, v.slope_right)
    if s_lo > s_hi:
        with pytest.raises(EmptyRooftop):
            rooftop(u, v)
        return
    mins = tuple(min(a, b) for a, b in zip(u.values, v.values))
    assert rooftop(u, v).values == oracles.envelope_values_by_minimax(grid.nodes, mins, s_lo, s_hi)


@pytest.mark.parametrize("grid", KERNEL_GRIDS)
@SMALL
@given(data=st.data())
def test_model_projection_matches_minimax_oracle(grid, data):
    psi = model_from_interval(grid, interval(data), nondegenerate_reference(grid))
    u = potential(data, grid)
    s_lo = max(u.slope_left, psi.Q[0])
    s_hi = min(u.slope_right, psi.Q[1])
    expected = oracles.envelope_values_by_minimax(grid.nodes, u.values, s_lo, s_hi)
    assert model_project(psi, u).values == expected


def test_the_sweep_oracle_agrees_with_the_per_query_minimax():
    u = nondegenerate_reference(GRID17)
    for s_lo, s_hi in ((rat(0), rat(1)), (rat(1, 4), rat(3, 4)), (rat(1, 3), rat(1, 3))):
        sweep = oracles.envelope_values_by_minimax(GRID17.nodes, u.values, s_lo, s_hi)
        per_query = tuple(
            oracles.biconjugate_by_minimax(GRID17.nodes, u.values, s_lo, s_hi, x)
            for x in GRID17.nodes
        )
        assert sweep == per_query


@pytest.mark.parametrize("grid", KERNEL_GRIDS)
@SMALL
@given(data=st.data())
def test_refinement_matches_ray_evaluation(grid, data):
    u = potential(data, grid, interval(data))
    extra = data.draw(
        st.lists(own.rationals(-6, 6, DEN), min_size=1, max_size=2 * len(grid.nodes), unique=True)
    )
    finer = grid.with_nodes(sorted(set(grid.nodes) | set(extra)))
    r = refine_to(u, finer)
    assert r.values == tuple(oracles.ray_value(u, x) for x in finer.nodes)
    assert r.dual_domain() == u.dual_domain()
    dropped = grid.nodes[len(grid.nodes) // 2]
    with pytest.raises(GridMismatch):
        refine_to(u, finer.with_nodes(x for x in finer.nodes if x != dropped))


def sector(data, grid):
    """A level on a drawn interval Q, and Q."""
    q = interval(data)
    return model_from_interval(grid, q, nondegenerate_reference(grid)), q


def oracle_rooftop(u, v):
    """P(u, v) from the minimax oracle, independent of the conjugation kernels.

    On 65 nodes the per-query ``rooftop_by_minimax`` is too slow for tier-1,
    so there its one-sweep form computes the same values (the two forms are
    compared in ``test_the_sweep_oracle_agrees_with_the_per_query_minimax``).
    """
    s_lo, s_hi = max(u.slope_left, v.slope_left), min(u.slope_right, v.slope_right)
    if u.grid is GRID17:
        values = oracles.rooftop_by_minimax(u, v)
    else:
        mins = tuple(min(a, b) for a, b in zip(u.values, v.values))
        values = oracles.envelope_values_by_minimax(u.grid.nodes, mins, s_lo, s_hi)
    return make_pl(u.grid, values, s_lo, s_hi)


@pytest.mark.parametrize("grid", GRIDS)
@SMALL
@given(data=st.data())
def test_energy_matches_path_integration_oracle(grid, data):
    ctx, q = sector(data, grid)
    u = potential(data, grid, q)
    assert energy(ctx, u) == oracles.energy_by_path_integration(ctx, u)


@pytest.mark.parametrize("grid", GRIDS)
@SMALL
@given(data=st.data())
def test_dist_matches_oracle_energies_of_the_minimax_rooftop(grid, data):
    ctx, q = sector(data, grid)
    u, v = potential(data, grid, q), potential(data, grid, q)
    p = oracle_rooftop(u, v)
    e = [oracles.energy_by_path_integration(ctx, w) for w in (u, v, p)]
    assert dist(ctx, u, v) == e[0] + e[1] - 2 * e[2]


@pytest.mark.parametrize("grid", GRIDS)
@SMALL
@given(data=st.data())
def test_metric_laws_hold_exactly(grid, data):
    ctx, q = sector(data, grid)
    u, v, w = (potential(data, grid, q) for _ in range(3))
    duv = dist(ctx, u, v)
    assert duv == dist(ctx, v, u)
    assert dist(ctx, u, w) <= duv + dist(ctx, v, w)
    p = rooftop(u, v)
    assert duv == dist(ctx, u, p) + dist(ctx, v, p)
