"""Cross-level quasi-distance, chained distance, level restriction."""

from __future__ import annotations

import math
import random

import pytest

import oracles
from femlab import (
    BigSpace,
    Grid,
    SampledFamily,
    default_node_pools,
    dist,
    entropy_cap_filter,
    family_from_intervals,
    level_restriction_check,
    make_pl,
    member_cap,
    model_project,
    pl_equal,
    rat,
)
from femlab.errors import PreconditionViolated, SingularityMismatch
from femlab.sampling import random_candidates

GRID3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
REF_ND = make_pl(GRID3, (0, rat(1, 4), 1), 0, 1)


def two_level_space():
    fam = family_from_intervals(
        GRID3, ((0, 1), (0, rat(1, 2))), (0, rat(1, 2)), REF_ND
    )
    gen = SampledFamily((fam.levels[0].potential,), 10.0, rat(10), REF_ND)
    return BigSpace(fam, gen)


def seeded_space(seed=7, count=14):
    fam = family_from_intervals(
        GRID3,
        ((0, 1), (0, rat(3, 4)), (0, rat(5, 8)), (0, rat(9, 16))),
        (0, rat(1, 2)),
        REF_ND,
    )
    rng = random.Random(seed)
    gen = entropy_cap_filter(random_candidates(rng, GRID3, REF_ND, count), 4.0, rat(3), REF_ND)
    return BigSpace(fam, gen)


def test_levels_include_the_limit():
    sp = seeded_space()
    assert sp.level_count == 5
    assert sp.limit_level == 4
    assert sp.envs[-1] is sp.family.limit


def test_quasi_between_envelope_bottoms_is_the_volume_gap():
    sp = two_level_space()
    p = sp.make_point(0, sp.envs[0].potential)
    q = sp.make_point(1, sp.envs[1].potential)
    first, sup_term, dv = sp.quasi_parts(p, q)
    assert (first, sup_term, dv) == (0, 0, rat(1, 2))
    assert sp.quasi(p, q) == rat(1, 2)
    assert sp.quasi(q, p) == rat(1, 2)


def test_quasi_first_term_vanishes_on_the_projection():
    sp = two_level_space()
    u = sp.envs[0].potential
    p = sp.make_point(0, u)
    q = sp.make_point(1, model_project(sp.envs[1], u))
    first, sup_term, dv = sp.quasi_parts(p, q)
    assert first == 0
    assert sp.quasi(p, q) >= dv


def test_make_point_requires_the_level_interval():
    sp = two_level_space()
    with pytest.raises(PreconditionViolated):
        sp.make_point(1, sp.envs[0].potential)


def test_make_point_scans_the_fiber_for_the_minimal_cap():
    fam = family_from_intervals(
        GRID3, ((0, 1), (0, rat(1, 2))), (0, rat(1, 2)), REF_ND
    )
    tent = make_pl(GRID3, (0, 0, 1), 0, 1)
    low = make_pl(GRID3, (0, 0, rat(1, 2)), 0, 1)
    assert member_cap(low, REF_ND) < member_cap(tent, REF_ND)
    sp = BigSpace(fam, SampledFamily((tent, low), 1.0, rat(2), REF_ND))
    # both members share one deep image; the cheaper one names the point
    assert pl_equal(sp.projection(1, 0), sp.projection(1, 1))
    pt = sp.make_point(1, sp.projection(1, 0))
    assert pt.rep_index == 1
    assert pt.cap == member_cap(low, REF_ND)


def test_make_point_off_every_projection_has_infinite_cap():
    sp = two_level_space()
    far = sp.envs[0].potential.shift(100)
    pt = sp.make_point(0, far)
    assert pt.rep_index is None
    assert math.isinf(pt.cap)


def test_quasi_restricts_to_dist_on_a_shared_level():
    sp = seeded_space()
    pts = [sp.point_from_member(0, i) for i in range(len(sp.generator))]
    for a in pts:
        for b in pts:
            d = dist(sp.envs[0], a.potential, b.potential)
            assert sp.quasi(a, b) == d
            if not pl_equal(a.potential, b.potential):
                assert sp.quasi(a, b) > 0


def test_quasi_first_term_matches_a_computation_without_the_space():
    sp = seeded_space(seed=3, count=6)
    envs = sp.family.levels + (sp.family.limit,)
    members = range(len(sp.generator.members))
    pts = [sp.point_from_member(k, i) for k in range(sp.level_count) for i in members]
    for p in pts:
        for q in pts:
            # decreasing schedule: the deeper level is the lower one; on a
            # shared level the second point is, as in BigSpace.quasi_parts
            lo, hi = (p, q) if p.level > q.level else (q, p)
            expected = dist(envs[lo.level], lo.potential, model_project(envs[lo.level], hi.potential))
            assert sp.quasi_parts(p, q)[0] == expected


def test_a_cached_level_distance_still_checks_the_other_levels_sector():
    sp = seeded_space(seed=3, count=6)
    u, v = sp.projection(sp.limit_level, 0), sp.projection(sp.limit_level, 1)
    d = sp.level_dist(sp.limit_level, u, v)
    assert sp.level_dist(sp.limit_level, v, u) == d == dist(sp.envs[-1], u, v)
    with pytest.raises(SingularityMismatch):
        sp.level_dist(0, u, v)


def test_quasi_dominates_the_volume_gap_across_levels():
    sp = seeded_space()
    upper = [sp.point_from_member(0, i) for i in range(len(sp.generator))]
    lower = [sp.point_from_member(2, i) for i in range(len(sp.generator))]
    for a in upper:
        for b in lower:
            gap = sp.volume_gap(a, b)
            assert gap == rat(3, 8)
            q = sp.quasi(a, b)
            assert q >= gap > 0
            assert sp.quasi(b, a) == q


def test_chain_with_no_nodes_is_the_single_edge():
    sp = two_level_space()
    p = sp.make_point(0, sp.envs[0].potential)
    q = sp.make_point(1, sp.envs[1].potential)
    res = sp.chain(p, q)
    assert res.value == sp.quasi(p, q)
    assert res.path == (0, 1)
    assert res.points == (p, q)
    assert len(res.edge_parts) == 1


def test_chain_never_exceeds_the_direct_edge_and_pools_only_help():
    sp = seeded_space()
    a = sp.point_from_member(0, 0)
    b = sp.point_from_member(2, 1)
    small = [sp.point_from_member(1, i) for i in range(2)]
    big = small + [sp.point_from_member(3, i) for i in range(3)]
    direct = sp.quasi(a, b)
    c_small = sp.chain(a, b, small).value
    c_big = sp.chain(a, b, big).value
    assert c_big <= c_small <= direct


def test_chain_triangle_through_an_explicit_node():
    sp = seeded_space()
    a = sp.point_from_member(0, 0)
    m = sp.point_from_member(2, 0)
    b = sp.point_from_member(4, 1)
    via = sp.chain(a, b, [m]).value
    assert via <= sp.quasi(a, m) + sp.quasi(m, b)


def test_chain_is_the_floyd_warshall_shortest_path_through_each_default_pool():
    sp = seeded_space()
    p, q = sp.point_from_member(0, 0), sp.point_from_member(sp.limit_level, 1)
    detours = 0
    for pool in default_node_pools(sp, 2):
        pts = [p, *pool, q]
        res = sp.chain(p, q, pool)
        matrix = [[sp.quasi(a, b) for b in pts] for a in pts]
        assert res.value == oracles.shortest_path_by_floyd_warshall(matrix)
        assert sum(sp.quasi(a, b) for a, b in zip(res.points, res.points[1:])) == res.value
        detours += len(res.path) > 2
    assert detours  # some pool undercuts the direct edge, so the search is exercised


def test_default_node_pools_cover_the_other_levels_and_their_union():
    sp = seeded_space()
    pools = default_node_pools(sp, 0)
    assert len(pools) == sp.level_count  # one per other level, plus the union
    per_level, union = pools[:-1], pools[-1]
    assert len(union) == sum(len(p) for p in per_level)
    assert all(pt.level != 0 for pool in per_level for pt in pool)


@pytest.mark.parametrize("level", [0, 2, 4])
def test_level_restriction_defect_is_exactly_zero(level):
    sp = seeded_space()
    report = level_restriction_check(sp, level, range(5))
    assert report.passed
    assert report.lhs == 0
    assert not report.witnesses["chain_exceeded"]
    assert report.witnesses["checked"] == 50


def test_level_restriction_singleton_is_trivial():
    sp = seeded_space()
    report = level_restriction_check(sp, 1, [0])
    assert report.passed
    assert report.witnesses["checked"] == 0
