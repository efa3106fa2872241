"""The distance d, the chain bound rho, and the quantitative estimates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies as own
from femlab import (
    Grid,
    chain_defect_report,
    chain_rho,
    darboux_limit,
    darboux_sum,
    dist,
    double_inequality_constant,
    double_inequality_report,
    energy,
    estimate_sup_bound_constants,
    make_pl,
    model_from_interval,
    pl_equal,
    pointwise_max,
    rat,
    rho,
    rooftop,
)
from femlab.errors import BadExponent, EmptyFamily, NotComparable, SingularityMismatch
from femlab import metric
from femlab.metric import abs_diff_pairing
from femlab.sampling import nondegenerate_reference

GRID5 = Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1))
REF5 = nondegenerate_reference(GRID5)
CTX5 = model_from_interval(GRID5, GRID5.polytope, REF5)


def test_frozen_three_node_distances(ctx3, ref3, tent3):
    assert dist(ctx3, ref3, tent3) == rat(1, 4)
    assert rho(ref3, tent3) == rat(1, 2)
    assert chain_rho(ctx3, ref3, tent3, 1) == rat(1, 2)
    assert chain_rho(ctx3, ref3, tent3, 2) == rat(3, 8)
    assert abs(chain_rho(ctx3, ref3, tent3, 64) - rat(1, 4)) <= rat(1, 64)


def test_chain_defect_report_on_the_canonical_pair(ctx3, ref3, tent3):
    rep = chain_defect_report(ctx3, ref3, tent3, (1, 2, 4, 8, 16))
    assert rep.passed
    assert rep.lhs == rat(1, 4)
    assert rep.rhs == rat(1, 2)
    assert [row["defect"] for row in rep.witnesses["rows"]] == [
        rat(1, 4),
        rat(1, 8),
        rat(1, 16),
        rat(1, 32),
        rat(1, 64),
    ]
    crossing = make_pl(ctx3.grid, (rat(1, 2), rat(1, 2), rat(1, 2)), 0, 1)
    with pytest.raises(NotComparable):
        chain_defect_report(ctx3, crossing, tent3, (1,))


def test_chain_defect_report_refuses_an_empty_step_list(ctx3, ref3, tent3):
    """With no N there is no row, and a report over no rows would pass vacuously."""
    for steps in ([], ()):
        with pytest.raises(ValueError, match="^no chain lengths given$"):
            chain_defect_report(ctx3, ref3, tent3, steps)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_symmetry_and_identity(u, v):
    d = dist(CTX5, u, v)
    assert d == dist(CTX5, v, u)
    assert d >= 0
    assert dist(CTX5, u, u) == 0
    assert (d == 0) == pl_equal(u, v)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5), w=own.potentials_on(GRID5))
def test_triangle_inequality(u, v, w):
    assert dist(CTX5, u, w) <= dist(CTX5, u, v) + dist(CTX5, v, w)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_pythagorean_decomposition(u, v):
    p = rooftop(u, v)
    assert dist(CTX5, u, v) == dist(CTX5, u, p) + dist(CTX5, v, p)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5), w=own.potentials_on(GRID5))
def test_order_additivity(u, v, w):
    mid = pointwise_max(u, v)
    top = pointwise_max(mid, w)
    assert dist(CTX5, u, top) == dist(CTX5, u, mid) + dist(CTX5, mid, top)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5), w=own.potentials_on(GRID5))
def test_rooftop_is_one_lipschitz_per_slot(u, v, w):
    assert dist(CTX5, rooftop(u, w), rooftop(v, w)) <= dist(CTX5, u, v)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_max_rooftop_comparison(u, v):
    assert dist(CTX5, pointwise_max(u, v), u) >= dist(CTX5, v, rooftop(u, v))


@given(u=own.potentials_on(GRID5), c=own.rationals(0, 4))
def test_translation_distance_is_mass_times_shift(u, c):
    assert dist(CTX5, u, u.shift(-c)) == c * CTX5.mass


@given(data=st.data())
def test_zero_mass_sector_has_zero_distance(data):
    point = data.draw(own.rationals(0, 1))
    psi = model_from_interval(GRID5, (point, point), REF5)
    assert psi.mass == 0
    u = data.draw(own.sector_potentials(GRID5, (point, point)))
    v = data.draw(own.sector_potentials(GRID5, (point, point)))
    assert dist(psi, u, v) == 0


def test_dist_checks_the_sector_before_the_rooftop():
    # disjoint dual domains: a rooftop would raise EmptyRooftop
    ctx = model_from_interval(GRID5, (0, rat(1, 2)), REF5)
    inside = ctx.potential
    outside = model_from_interval(GRID5, (rat(3, 4), 1), REF5).potential
    for u, v in ((inside, outside), (outside, inside)):
        with pytest.raises(SingularityMismatch):
            dist(ctx, u, v)


def test_double_inequality_constant_dimension_one():
    assert double_inequality_constant(1) == rat(1, 48)
    assert double_inequality_constant(2) == rat(1, 144)
    with pytest.raises(BadExponent):
        double_inequality_constant(0)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_double_inequality(u, v):
    report = double_inequality_report(CTX5, u, v)
    assert report.passed
    pairing = abs_diff_pairing(u, v)
    d = dist(CTX5, u, v)
    assert rat(1, 48) * pairing <= d <= pairing


def test_double_inequality_witness_with_small_ratio(ctx3, ref3, tent3):
    """Documented pair whose ratio d/pairing is 1/4, well under 1/2."""
    shifted = ref3.shift(-rat(1, 4))
    d = dist(ctx3, tent3, shifted)
    pairing = abs_diff_pairing(tent3, shifted)
    assert d == rat(1, 8)
    assert pairing == rat(1, 2)
    assert d * 4 == pairing


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_rho_needs_an_order_and_dominates_d(u, v):
    hi = pointwise_max(u, v)
    r = rho(hi, u)
    assert r == rho(u, hi)
    assert dist(CTX5, hi, u) <= r
    if not (pl_equal(u, hi) or pl_equal(v, hi)):
        with pytest.raises(NotComparable):
            rho(u, v)


@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_chain_rho_decreases_along_doubling_to_d(u, v):
    hi, lo = pointwise_max(u, v), u
    d = dist(CTX5, hi, lo)
    assert chain_rho(CTX5, hi, lo, 1) == rho(hi, lo)
    prev = None
    for n in (1, 2, 4, 8, 16):
        value = chain_rho(CTX5, hi, lo, n)
        assert value >= d
        if prev is not None:
            assert value <= prev
        prev = value


def test_chain_defect_report_builds_one_link_per_distinct_t(monkeypatch, ctx3, ref3, tent3):
    built = []
    combine = metric.affine_combine
    monkeypatch.setattr(metric, "affine_combine", lambda t, u, v: built.append(t) or combine(t, u, v))
    assert chain_defect_report(ctx3, ref3, tent3, (1, 2, 4, 8)).passed
    assert sorted(built) == [rat(k, 8) for k in range(1, 8)]
    built.clear()
    assert chain_defect_report(ctx3, ref3, tent3, (1, 2, 4, 8, 16)).passed
    assert sorted(built) == [rat(k, 16) for k in range(1, 16)]
    built.clear()
    assert chain_rho(ctx3, ref3, tent3, 4) == rat(5, 16)
    assert sorted(built) == [rat(1, 4), rat(1, 2), rat(3, 4)]


def plain_chain_rho(hi, lo, big_n):
    """chain_rho by rational arithmetic on the public fields, every link built afresh."""
    nodes = sorted(set(hi.grid.nodes) | set(lo.grid.nodes))
    ends = (hi.slope_left, hi.slope_right)  # lo spans the same sector
    tops, bottoms = [oracles.ray_value(hi, x) for x in nodes], [oracles.ray_value(lo, x) for x in nodes]

    def link(t):
        return [t * a + (1 - t) * b for a, b in zip(tops, bottoms)]

    def masses(values):
        chords = [(b - a) / (y - x) for a, b, x, y in zip(values, values[1:], nodes, nodes[1:])]
        slopes = [ends[0], *chords, ends[1]]
        return [s1 - s0 for s0, s1 in zip(slopes, slopes[1:])]

    total = rat(0)
    for j in range(big_n):
        lower, upper = link(rat(j, big_n)), link(rat(j + 1, big_n))
        total += sum((b - a) * m for a, b, m in zip(lower, upper, masses(lower)))
    return total


@settings(max_examples=20)
@given(u=own.potentials_on(GRID5), v=own.potentials_on(GRID5))
def test_chain_rho_is_the_plain_sum_of_rho_over_its_links(u, v):
    hi, lo = pointwise_max(u, v), u
    for big_n in range(1, 17):
        assert chain_rho(CTX5, hi, lo, big_n) == plain_chain_rho(hi, lo, big_n)


def test_darboux_frozen_examples():
    assert darboux_sum(2, 1, 2) == rat(1, 8)
    assert darboux_limit(2, 1) == rat(1, 6)
    for n in range(1, 7):
        assert darboux_limit(n, 0) == rat(1, n + 1)
        assert darboux_limit(n, n) == rat(1, n + 1)
    with pytest.raises(BadExponent):
        darboux_sum(0, 0, 4)
    with pytest.raises(BadExponent):
        darboux_limit(2, 3)


@pytest.mark.parametrize("flag", [True, False])
def test_integer_arguments_reject_bools(flag, ctx3, ref3, tent3):
    exponents = "need integers n >= 1 and 0 <= s <= n"
    with pytest.raises(BadExponent, match="^dimension must be a positive integer$"):
        double_inequality_constant(flag)
    for n, s in ((flag, 0), (1, flag)):
        with pytest.raises(BadExponent, match=exponents):
            darboux_sum(n, s, 4)
        with pytest.raises(BadExponent, match=exponents):
            darboux_limit(n, s)
    with pytest.raises(ValueError, match="^partition size must be a positive integer$"):
        darboux_sum(1, 0, flag)
    with pytest.raises(ValueError, match="^chain length must be a positive integer$"):
        chain_rho(ctx3, ref3, tent3, flag)
    with pytest.raises(ValueError, match="^chain length must be a positive integer$"):
        chain_defect_report(ctx3, ref3, tent3, [flag])


def test_darboux_sums_converge_with_explicit_rate():
    for n in range(1, 7):
        for s in range(n + 1):
            lim = darboux_limit(n, s)
            big_n = 2
            while big_n <= 1024:
                assert abs(darboux_sum(n, s, big_n) - lim) <= rat(n + 1, big_n)
                big_n *= 2


def test_darboux_endpoint_cases_are_monotone_under_doubling():
    for n in range(1, 7):
        for s in (0, n):
            lim = darboux_limit(n, s)
            gaps = [
                abs(darboux_sum(n, s, 2**k) - lim) for k in range(1, 11)
            ]
            assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_sup_bound_constants_on_documented_families(ctx3, ref3, tent3):
    for family in ([ref3], [tent3], [tent3.shift(-c) for c in (0, 1, 2)]):
        a, b, report = estimate_sup_bound_constants(ctx3, family)
        assert (a, b) == (1, 0)
        assert report.passed
    with pytest.raises(EmptyFamily):
        estimate_sup_bound_constants(ctx3, [])


@given(data=st.data())
def test_sup_bound_constants_verify_both_inequalities(data):
    from femlab.grid_convex import sup_diff

    members = [
        data.draw(own.potentials_on(GRID5))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    a, b, report = estimate_sup_bound_constants(CTX5, members)
    assert report.passed and a >= 1 and b >= 0
    psi = CTX5.potential
    for u in members:
        s = CTX5.mass * sup_diff(u, psi)
        d = dist(CTX5, u, psi)
        assert s <= a * d + b
        assert -d <= s
