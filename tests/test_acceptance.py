"""Acceptance gate: ten criteria, one printed verdict line each.

Every comparison is an exact rational equality or inequality unless a
criterion explicitly pins a float threshold; those thresholds are local
constants here, not knobs.  Desk scale: grids of 3 or 5 nodes, families
of at most 6 levels, explicit seeds everywhere.
"""

from __future__ import annotations

import math
import random

from femlab import (
    BigSpace,
    Grid,
    affine_combine,
    chain_rho,
    darboux_limit,
    darboux_sum,
    default_node_pools,
    dist,
    double_inequality_constant,
    double_inequality_report,
    direct_limit_check,
    entropy_cap_filter,
    family_from_intervals,
    level_restriction_check,
    make_pl,
    model_from_interval,
    model_project,
    nested_family_distortions,
    pl_equal,
    pointwise_max,
    rat,
    rooftop,
)
from femlab.metric import abs_diff_pairing
from femlab.sampling import (
    nondegenerate_reference,
    random_candidates,
    random_ordered_pair,
    random_sector_potential,
)
from femlab.measures import (
    check_comparison_principle,
    check_model_mass_bound,
    check_rooftop_mass_bound,
)

GRID3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
GRID5 = Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1))
REF3 = make_pl(GRID3, (0, rat(1, 2), 1), 0, 1)
REF3_ND = make_pl(GRID3, (0, rat(1, 4), 1), 0, 1)
REF5 = nondegenerate_reference(GRID5)
TENT3 = make_pl(GRID3, (0, 0, 1), 0, 1)

CONTEXT_INTERVALS = ((rat(0), rat(1)), (rat(0), rat(1, 2)), (rat(1, 4), rat(3, 4)))
PAIR_TRIALS = 200
MEASURE_TRIALS = 1000
CHAIN_PAIRS = 20
THEOREM_D_THRESHOLD = 0.02  # float tolerance applies to this threshold only


def _ctx5(interval):
    return model_from_interval(GRID5, interval, REF5)


def _verdict(number, slug, ok):
    print("CRITERION %02d %s: %s" % (number, slug, "PASS" if ok else "FAIL"))
    return ok


def test_criterion_01_exact_metric_axioms():
    ok = True
    rng = random.Random(101)
    for interval in CONTEXT_INTERVALS:
        ctx = _ctx5(interval)
        for _ in range(PAIR_TRIALS):
            u = random_sector_potential(rng, GRID5, interval)
            v = random_sector_potential(rng, GRID5, interval)
            w = random_sector_potential(rng, GRID5, interval)
            duv = dist(ctx, u, v)
            ok = ok and duv == dist(ctx, v, u)
            ok = ok and dist(ctx, u, u) == 0
            ok = ok and (duv == 0) == pl_equal(u, v)
            ok = ok and dist(ctx, u, w) <= duv + dist(ctx, v, w)
            p = rooftop(u, v)
            ok = ok and duv == dist(ctx, u, p) + dist(ctx, v, p)
            mid = pointwise_max(u, v)
            top = pointwise_max(mid, w)
            ok = ok and dist(ctx, u, top) == dist(ctx, u, mid) + dist(ctx, mid, top)
    assert _verdict(1, "exact-metric-axioms", ok)


def test_criterion_02_double_inequality():
    ok = double_inequality_constant(1) == rat(1, 48)
    ctx = _ctx5(GRID5.polytope)
    rng = random.Random(12)
    below_half = 0
    for _ in range(PAIR_TRIALS):
        u = random_sector_potential(rng, GRID5, GRID5.polytope)
        v = random_sector_potential(rng, GRID5, GRID5.polytope)
        report = double_inequality_report(ctx, u, v)
        ok = ok and report.passed
        if report.rhs > 0 and report.lhs / report.rhs < rat(1, 2):
            below_half += 1
    ctx3 = model_from_interval(GRID3, GRID3.polytope, REF3)
    witness = REF3.shift(rat(-1, 4))
    ratio = dist(ctx3, TENT3, witness) / abs_diff_pairing(TENT3, witness)
    ok = ok and ratio == rat(1, 4)
    ok = ok and below_half > 0
    assert _verdict(2, "double-inequality-constant-1-48", ok)


def test_criterion_03_darboux_sums():
    ok = True
    for n in range(1, 7):
        for s in range(n + 1):
            limit = darboux_limit(n, s)
            ok = ok and limit == rat(1, math.comb(n, s) * (n + 1))
            big_n = 2
            while big_n <= 1024:
                value = darboux_sum(n, s, big_n)
                finite_sum = sum(
                    rat(j**s * (big_n - j) ** (n - s), big_n ** (n + 1))
                    for j in range(big_n)
                )
                ok = ok and value == finite_sum
                ok = ok and abs(value - limit) <= rat(n + 1, big_n)
                big_n *= 2
    assert _verdict(3, "darboux-sum-convergence", ok)


def test_criterion_04_contraction():
    ok = True
    rng = random.Random(13)
    outer = GRID5.polytope
    ctx1 = _ctx5(outer)
    for inner in CONTEXT_INTERVALS[1:]:
        psi2 = model_from_interval(GRID5, inner, REF5)
        for _ in range(PAIR_TRIALS):
            u = random_sector_potential(rng, GRID5, outer)
            v = random_sector_potential(rng, GRID5, outer)
            ok = ok and dist(
                psi2, model_project(psi2, u), model_project(psi2, v)
            ) <= dist(ctx1, u, v)
        for _ in range(PAIR_TRIALS // 4):
            a = random_sector_potential(rng, GRID5, inner)
            b = random_sector_potential(rng, GRID5, inner)
            pa, pb = model_project(psi2, a), model_project(psi2, b)
            ok = ok and pl_equal(pa, a) and pl_equal(pb, b)
            ok = ok and dist(psi2, pa, pb) == dist(psi2, a, b)
    assert _verdict(4, "projection-contraction", ok)


def test_criterion_05_chain_convergence():
    ctx3 = model_from_interval(GRID3, GRID3.polytope, REF3)
    d = dist(ctx3, REF3, TENT3)
    ok = d == rat(1, 4)
    ok = ok and chain_rho(ctx3, REF3, TENT3, 1) == rat(1, 2)
    ok = ok and chain_rho(ctx3, REF3, TENT3, 2) == rat(3, 8)
    ok = ok and abs(chain_rho(ctx3, REF3, TENT3, 64) - d) <= rat(1, 64)
    ctx = _ctx5(GRID5.polytope)
    rng = random.Random(3)
    for _ in range(CHAIN_PAIRS):
        hi, lo = random_ordered_pair(rng, GRID5, GRID5.polytope)
        d = dist(ctx, hi, lo)
        values = {n: chain_rho(ctx, hi, lo, n) for n in (1, 2, 4, 1024)}
        ok = ok and all(value >= d for value in values.values())
        ok = ok and values[1024] - d <= 4 * (values[2] - d) / 1024
    assert _verdict(5, "rho-chain-convergence", ok)


def test_criterion_06_measure_inequalities():
    ok = True
    rng = random.Random(2)
    psi_half = model_from_interval(GRID5, (rat(0), rat(1, 2)), REF5)
    for _ in range(MEASURE_TRIALS):
        u, v, w = (random_sector_potential(rng, GRID5, GRID5.polytope) for _ in range(3))
        ok = ok and check_comparison_principle(u, v).passed
        ok = ok and check_rooftop_mass_bound(u, v).passed
        ok = ok and check_model_mass_bound(psi_half, w).passed
    assert _verdict(6, "measure-inequalities", ok)


def _acceptance_space():
    family = family_from_intervals(
        GRID3,
        ((0, 1), (0, rat(3, 4)), (0, rat(5, 8)), (0, rat(9, 16))),
        (0, rat(1, 2)),
        REF3_ND,
    )
    rng = random.Random(7)
    generator = entropy_cap_filter(
        random_candidates(rng, GRID3, REF3_ND, 14), 4.0, rat(3), REF3_ND
    )
    return BigSpace(family, generator)


def test_criterion_07_cross_level_consistency():
    space = _acceptance_space()
    ok = True
    # 5 members -> 10 unordered pairs x 5 adversarial pools = 50 checks/level
    for level in (0, space.limit_level):
        report = level_restriction_check(space, level, range(5))
        ok = ok and report.passed and report.lhs == 0
        ok = ok and report.witnesses["checked"] == 50
    rng = random.Random(15)
    union_pool = default_node_pools(space, 0)[-1]
    members = len(space.generator.members)
    for _ in range(50):
        la, lb = rng.sample(range(space.level_count), 2)
        a = space.point_from_member(la, rng.randrange(members))
        b = space.point_from_member(lb, rng.randrange(members))
        floor = space.volume_gap(a, b)
        nodes = [pt for pt in union_pool if pt.level not in (la, lb)]
        ok = ok and floor > 0
        ok = ok and space.chain(a, b, nodes).value >= floor
    assert _verdict(7, "chained-distance-consistency", ok)


def _theorem_d_family():
    schedule = tuple((0, rat(1, 2) + rat(1, 2 ** (k + 1))) for k in range(1, 7))
    return family_from_intervals(GRID3, schedule, (0, rat(1, 2)), REF3_ND)


def test_criterion_08_nested_distortion_convergence():
    family = _theorem_d_family()
    rng = random.Random(2026)
    candidates = random_candidates(rng, GRID3, REF3_ND, 16)
    rows, report = nested_family_distortions(
        family, candidates, [1.0, 2.0], THEOREM_D_THRESHOLD
    )
    ok = report.passed and report.witnesses["monotone"]
    for cap in (1.0, 2.0):
        values = [row["distortion"] for row in rows if row["cap"] == cap]
        ok = ok and len(values) == 6
        ok = ok and all(a >= b for a, b in zip(values, values[1:]))
        ok = ok and float(values[-1]) < THEOREM_D_THRESHOLD
    assert _verdict(8, "nested-distortion-convergence", ok)


def test_criterion_09_direct_limit_laws():
    family = _theorem_d_family()
    rng = random.Random(2026)
    generator = entropy_cap_filter(
        random_candidates(rng, GRID3, REF3_ND, 12), 2.0, rat(2), REF3_ND
    )
    report = direct_limit_check(family, generator)
    w = report.witnesses
    ok = report.passed and w["lipschitz"] and w["composition"] and w["density"]
    for gaps in w["density_rows"]:
        ok = ok and gaps[-1] == 0
        ok = ok and all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert _verdict(9, "direct-limit-laws", ok)


def test_criterion_10_cauchy_envelope_bound():
    ctx = model_from_interval(GRID3, GRID3.polytope, REF3_ND)
    sequence = []
    for j in range(1, 11):
        if j % 2 == 0:
            sequence.append(REF3_ND)
        else:
            sequence.append(affine_combine(rat(1, 2**j), TENT3, REF3_ND))
    ok = all(
        dist(ctx, sequence[i], sequence[i + 1]) <= rat(1, 2 ** (i + 1))
        for i in range(len(sequence) - 1)
    )
    nonzero = 0
    for j in range(len(sequence)):
        for k in range(j, len(sequence)):
            v = sequence[j] if k == j else rooftop(*sequence[j : k + 1])
            gap = dist(ctx, sequence[j], v)
            ok = ok and gap <= rat(1, 2**j)
            if gap > 0:
                nonzero += 1
    ok = ok and nonzero >= 10  # the bound is doing real work, not vacuous
    assert _verdict(10, "cauchy-envelope-bound", ok)
