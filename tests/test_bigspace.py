"""Cross-level quasi-distance, chained distance, level restriction."""

from __future__ import annotations

import math
import random

import pytest

import oracles
from femlab import bigspace
from femlab import (
    BigSpace,
    Grid,
    ModelFamily,
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
from femlab.bigspace import BigPoint, ChainResult
from femlab.errors import PreconditionViolated, SingularityMismatch
from femlab.grid_convex import refine_to
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


def test_a_generator_capped_against_another_reference_is_refused():
    """Member caps are read against the family's reference; a generator over
    another one would pool its members by caps it was never filtered by."""
    fam = family_from_intervals(GRID3, ((0, 1), (0, rat(1, 2))), (0, rat(1, 2)), REF_ND)
    other = make_pl(GRID3, (0, rat(1, 8), 1), 0, 1)
    gen = SampledFamily((other, REF_ND), 10.0, rat(10), other)
    assert [member_cap(u, other) for u in gen] != [member_cap(u, REF_ND) for u in gen]
    with pytest.raises(PreconditionViolated, match="reference"):
        BigSpace(fam, gen)


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


def first_term_without_the_space(family, p, q):
    """d_lo(lo, P_lo(hi)) from dist and model_project alone.

    The lower point is the one whose level's interval lies inside the
    other's; on a shared level it is the second point, as in
    BigSpace.quasi_parts.
    """
    envs = family.levels + (family.limit,)
    env_p, env_q = envs[p.level], envs[q.level]
    inside = env_q.Q[0] <= env_p.Q[0] and env_p.Q[1] <= env_q.Q[1]
    lo, hi = (p, q) if inside and env_p.Q != env_q.Q else (q, p)
    env_lo = envs[lo.level]
    return dist(env_lo, lo.potential, model_project(env_lo, hi.potential))


def assert_first_terms_match(sp, pts, others):
    """Check quasi_parts(p, q)[0] for every p in pts and q in others; the count checked."""
    for p in pts:
        for q in others:
            assert sp.quasi_parts(p, q)[0] == first_term_without_the_space(sp.family, p, q)
    return len(pts) * len(others)


def member_points(sp):
    members = range(len(sp.generator.members))
    return [sp.point_from_member(k, i) for k in range(sp.level_count) for i in members]


def test_quasi_first_term_matches_a_computation_without_the_space():
    sp = seeded_space(seed=3, count=6)
    pts = member_points(sp)
    assert assert_first_terms_match(sp, pts, pts) == len(pts) ** 2


def test_quasi_first_term_matches_on_an_increasing_family():
    fam = family_from_intervals(
        GRID3, ((0, rat(1, 2)), (0, rat(5, 8)), (0, rat(3, 4))), (0, 1), REF_ND
    )
    assert fam.direction == "increasing"
    gen = entropy_cap_filter(random_candidates(random.Random(5), GRID3, REF_ND, 8), 4.0, rat(3), REF_ND)
    sp = BigSpace(fam, gen)
    pts = member_points(sp)
    assert len(pts) == 32
    assert assert_first_terms_match(sp, pts, pts) == 1024


def test_quasi_first_term_of_points_that_are_not_member_projections():
    """Only a point whose potential is its member's projection is read by index.

    A potential off every projection has no member; a hand-built point may
    name a member whose projection is not its potential; and a member
    projection refined onto a finer grid is equal to it as a function but
    not as a representation.  All three take the value path.
    """
    sp = seeded_space()
    pts = member_points(sp)
    level = 1
    u0, u1 = sp.projection(level, 0), sp.projection(level, 1)
    assert not pl_equal(u0, u1)
    off = sp.make_point(level, u0.shift(100))
    assert off.rep_index is None
    mislabeled = BigPoint(level, u1, 0, sp.caps[0])
    fine = Grid(nodes=(-1, rat(-1, 2), 0, rat(1, 2), 1), polytope=(0, 1))
    refined = sp.make_point(level, refine_to(u0, fine))
    assert refined.rep_index is not None and refined.potential != sp.projection(level, refined.rep_index)
    for odd in (off, mislabeled, refined):
        assert assert_first_terms_match(sp, [odd], pts) == assert_first_terms_match(sp, pts, [odd]) == len(pts)


def test_the_quasi_matrix_of_member_points_projects_nothing_beyond_the_member_projections(monkeypatch):
    sp = seeded_space()
    calls = []
    monkeypatch.setattr(bigspace, "model_project", lambda *args: calls.append(args) or model_project(*args))
    member_points(sp)
    projected = len(calls)
    assert 0 < projected <= sp.level_count * len(sp.generator.members)
    quasi_matrix(sp)
    assert len(calls) == projected


def test_a_cached_level_distance_still_checks_the_other_levels_sector():
    sp = seeded_space(seed=3, count=6)
    u, v = sp.projection(sp.limit_level, 0), sp.projection(sp.limit_level, 1)
    d = sp.level_dist(sp.limit_level, u, v)
    assert sp.level_dist(sp.limit_level, v, u) == d == dist(sp.envs[-1], u, v)
    with pytest.raises(SingularityMismatch):
        sp.level_dist(0, u, v)


def quasi_matrix(sp):
    """Every quasi-distance among the member points of every level."""
    pts = member_points(sp)
    return [[sp.quasi(p, q) for q in pts] for p in pts]


def test_spaces_over_one_generator_and_an_equal_family_share_one_cache():
    sp = seeded_space(seed=3, count=6)
    fam, gen = sp.family, sp.generator
    assert BigSpace(fam, gen)._cache is BigSpace(fam, gen)._cache is sp._cache
    twin = ModelFamily(fam.levels, fam.limit)
    assert twin == fam and twin is not fam
    assert BigSpace(twin, gen)._cache is sp._cache


def test_a_space_over_another_family_keeps_its_own_entries():
    sp = seeded_space(seed=3, count=6)
    quasi_matrix(sp)
    gen = sp.generator
    other = family_from_intervals(GRID3, ((0, 1), (0, rat(7, 8))), (0, rat(3, 4)), REF_ND)
    shared = BigSpace(other, gen)
    # level 1 is (0, 3/4) in the first family and (0, 7/8) in this one
    assert shared._cache is not sp._cache and not shared._cache
    fresh = BigSpace(other, SampledFamily(gen.members, gen.cap, gen.sup_bound, gen.reference))
    assert quasi_matrix(shared) == quasi_matrix(fresh)


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


def test_points_and_chain_results_are_frozen_values():
    sp = seeded_space()
    p, q = sp.point_from_member(0, 0), sp.point_from_member(2, 1)
    same = BigPoint(level=p.level, potential=p.potential, rep_index=p.rep_index, cap=p.cap)
    assert same is not p and same == p and hash(same) == hash(p)
    assert BigPoint(1, p.potential, p.rep_index, p.cap) != p
    res = sp.chain(p, q)
    again = ChainResult(value=res.value, path=res.path)
    assert again is not res and again == res and hash(again) == hash(res)
    assert ChainResult(res.value, (0,)) != res
    with pytest.raises(AttributeError):
        p.cap = 0
    with pytest.raises(AttributeError):
        res.value = 0


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
    detours = 0
    for seed in (1, 2, 3, 4, 5, 7):
        sp = seeded_space(seed)
        p, q = sp.point_from_member(0, 0), sp.point_from_member(sp.limit_level, 1)
        for pool in default_node_pools(sp, 2):
            pts = [p, *pool, q]
            res = sp.chain(p, q, pool)
            matrix = [[sp.quasi(a, b) for b in pts] for a in pts]
            assert res.value == oracles.shortest_path_by_floyd_warshall(matrix)
            assert (res.value, res.path) == oracles.chain_by_fraction_dijkstra(matrix)
            hops = [pts[i] for i in res.path]
            assert sum(sp.quasi(a, b) for a, b in zip(hops, hops[1:])) == res.value
            detours += len(res.path) > 2
    assert detours  # some pool undercuts the direct edge, so the search is exercised


# Hand-picked exact weights on points 0..5 (0 is p, 5 is q).  The first
# row's denominators divide 21; the edges read while relaxing bring in 2,
# 5, 11 and 13, so the search widens its denominator mid-way.  Points 1
# and 2 tie at 1/3, and 0-1-5, 0-2-5 and 0-4-5 all cost 23/15, under the
# direct edge's 2: the lower position settles first and keeps its path.
HAND_WEIGHTS = {
    (0, 1): rat(1, 3), (0, 2): rat(1, 3), (0, 3): rat(6, 7), (0, 4): rat(1), (0, 5): rat(2),
    (1, 2): rat(1, 2), (1, 3): rat(3, 7), (1, 4): rat(4, 3), (1, 5): rat(6, 5),
    (2, 3): rat(3, 11), (2, 4): rat(4, 5), (2, 5): rat(6, 5),
    (3, 4): rat(6, 13), (3, 5): rat(1),
    (4, 5): rat(8, 15),
}


def weight_table(weights, n):
    return [[rat(0) if a == b else weights[min(a, b), max(a, b)] for b in range(n)] for a in range(n)]


def chain_on_table(monkeypatch, table):
    """BigSpace.chain from point 0 to the last, with quasi read from the table."""
    monkeypatch.setattr(BigSpace, "quasi", lambda self, a, b: table[a][b])
    n = len(table)
    return two_level_space().chain(0, n - 1, range(1, n - 1))


def test_chain_widens_its_denominator_and_keeps_the_lowest_of_equal_paths(monkeypatch):
    table = weight_table(HAND_WEIGHTS, 6)
    res = chain_on_table(monkeypatch, table)
    assert res.value == rat(23, 15) == oracles.shortest_path_by_floyd_warshall(table)
    assert res.path == (0, 1, 5)
    assert (res.value, res.path) == oracles.chain_by_fraction_dijkstra(table)


@pytest.mark.parametrize("seed", range(1, 6))
def test_chain_on_coprime_weights_matches_the_fraction_search(monkeypatch, seed):
    rng = random.Random(seed)
    n = 9
    weights = {
        (a, b): rat(rng.randint(1, 12), rng.choice((1, 2, 3, 5, 7, 11, 13)))
        for a in range(n)
        for b in range(a + 1, n)
    }
    table = weight_table(weights, n)
    res = chain_on_table(monkeypatch, table)
    assert res.value == oracles.shortest_path_by_floyd_warshall(table)
    assert (res.value, res.path) == oracles.chain_by_fraction_dijkstra(table)


def test_default_node_pools_cover_the_other_levels_and_their_union():
    sp = seeded_space()
    pools = default_node_pools(sp, 0)
    assert len(pools) == sp.level_count  # one per other level, plus the union
    per_level, union = pools[:-1], pools[-1]
    assert len(union) == sum(len(p) for p in per_level)
    assert all(pt.level != 0 for pool in per_level for pt in pool)


def test_default_node_pools_of_one_level_and_its_limit_have_no_union():
    fam = family_from_intervals(GRID3, ((0, 1),), (0, rat(1, 2)), REF_ND)
    gen = entropy_cap_filter(random_candidates(random.Random(7), GRID3, REF_ND, 6), 4.0, rat(3), REF_ND)
    sp = BigSpace(fam, gen)
    assert sp.level_count == 2
    for level in (0, 1):
        (pool,) = default_node_pools(sp, level)
        assert [pt.level for pt in pool] == [1 - level] * len(gen)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pool_holds_the_members_the_cap_filter_keeps(seed):
    shifts = [REF_ND.shift(rat(k, 3)) for k in range(7)]
    candidates = shifts + random_candidates(random.Random(seed), GRID3, REF_ND, 10)
    random.Random(seed).shuffle(candidates)
    sp = BigSpace(seeded_space().family, entropy_cap_filter(candidates, math.inf, math.inf, REF_ND))
    members = sp.generator.members
    caps = [float(rat(k, 3)) for k in range(7)] + [rat(k, 3) for k in range(7)] + [0.5, 4.0, math.inf]
    for cap in caps:
        kept = entropy_cap_filter(members, cap, cap, REF_ND).members
        index = sp.pool(cap)
        assert len(index) == len(kept)
        assert all(members[i] is u for i, u in zip(index, kept))


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


def test_member_indices_out_of_range_are_refused():
    sp = seeded_space()
    members = len(sp.generator.members)
    for level, i in ((-1, 0), (sp.level_count, 0), (9, 0), (0, -1), (0, members), (0, 99)):
        with pytest.raises(PreconditionViolated, match="index"):
            sp.point_from_member(level, i)
        with pytest.raises(PreconditionViolated, match="index"):
            sp.projection(level, i)
        with pytest.raises(PreconditionViolated, match="index"):
            sp.pair_dist(level, i, 0)
    with pytest.raises(PreconditionViolated, match="index"):
        level_restriction_check(sp, 0, [0, 99])
    with pytest.raises(PreconditionViolated, match="index"):
        level_restriction_check(sp, -1, [0, 1])
    # the limit is named by its own index only
    assert sp.point_from_member(sp.limit_level, 0).level == sp.limit_level


def test_level_indices_out_of_range_are_refused_by_the_value_reads():
    sp = seeded_space()
    u = sp.generator.members[0]
    p = sp.point_from_member(0, 0)
    for level in (-1, sp.level_count, 9):
        with pytest.raises(PreconditionViolated, match="index"):
            sp.project(level, u)
        with pytest.raises(PreconditionViolated, match="index"):
            sp.level_dist(level, u, u)
        with pytest.raises(PreconditionViolated, match="index"):
            sp.sup_term(level, 0, 0.0)
        with pytest.raises(PreconditionViolated, match="index"):
            sp.sup_term(0, level, 0.0)
        with pytest.raises(PreconditionViolated, match="index"):
            default_node_pools(sp, level)
        q = BigPoint(level, sp.envs[sp.limit_level].potential, None, math.inf)
        for read in (sp.quasi, sp.chain, sp.volume_gap):
            with pytest.raises(PreconditionViolated, match="index"):
                read(p, q)
    limit = sp.limit_level
    assert sp.project(limit, u) == model_project(sp.envs[limit], u)
    assert sp.sup_term(limit, limit, 0.0) == 0


def test_pair_distances_are_one_entry_for_either_order_computed_once(monkeypatch):
    sp = seeded_space()
    members = range(len(sp.generator.members))
    calls = []
    monkeypatch.setattr(bigspace, "dist", lambda *args: calls.append(args) or dist(*args))
    for k in range(sp.level_count):
        for i in members:
            for j in members:
                assert sp.pair_dist(k, i, j) is sp.pair_dist(k, j, i)
                assert sp.pair_dist(k, i, j) == dist(sp.envs[k], sp.projection(k, i), sp.projection(k, j))
    computed = len(calls)
    assert 0 < computed
    for k in range(sp.level_count):
        for i in members:
            for j in members:
                sp.pair_dist(k, i, j)
    assert len(calls) == computed


def test_volume_gaps_and_quasi_distances_add_up():
    sp = seeded_space(seed=3, count=6)
    for k in range(sp.level_count):
        for m in range(sp.level_count):
            p, q = sp.point_from_member(k, 0), sp.point_from_member(m, 0)
            assert sp.volume_gap(p, q) == abs(sp.envs[k].mass - sp.envs[m].mass)
    members = range(len(sp.generator.members))
    pts = [sp.point_from_member(k, i) for k in range(sp.level_count) for i in members]
    for p in pts:
        for q in pts:
            assert sp.quasi(p, q) == sum(sp.quasi_parts(p, q))
