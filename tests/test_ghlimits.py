"""Finite metric spaces, correspondences, distortion tables, limit laws."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given

import oracles
import strategies as own
from femlab import (
    FiniteMetricSpace,
    Grid,
    GridPLConvex,
    SampledFamily,
    direct_limit_check,
    dist,
    distortion,
    entropy_cap_filter,
    family_from_intervals,
    gh_exact,
    gh_exact_witness,
    identity_correspondence,
    make_pl,
    model_from_interval,
    model_project,
    nested_family_distortions,
    pointwise_max,
    rat,
    space_from_potentials,
)
from femlab import bigspace, ghlimits
from femlab.bigspace import BigSpace
from femlab.errors import EmptyFamily, GridMismatch, NotTotal, ScheduleInvalid, TooLarge, ValidationError
from femlab.ghlimits import GH_EXACT_CAP, Correspondence
from femlab.sampling import nondegenerate_reference, random_candidates

GRID3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
REF_ND = make_pl(GRID3, (0, rat(1, 4), 1), 0, 1)
CTX = model_from_interval(GRID3, GRID3.polytope, REF_ND)


def seeded_space(seed, count):
    rng = random.Random(seed)
    return space_from_potentials(CTX, random_candidates(rng, GRID3, REF_ND, count))


def canonical_family():
    return family_from_intervals(
        GRID3,
        ((0, 1), (0, rat(3, 4)), (0, rat(5, 8)), (0, rat(9, 16))),
        (0, rat(1, 2)),
        REF_ND,
    )


def test_space_validation_names_the_offending_indices():
    with pytest.raises(ValidationError, match="shape"):
        FiniteMetricSpace(((0,), (0,)))
    with pytest.raises(ValidationError, match="diagonal at 1"):
        FiniteMetricSpace(((0, 1), (1, 2)))
    with pytest.raises(ValidationError, match=r"asymmetry at \(0, 1\)"):
        FiniteMetricSpace(((0, 1), (2, 0)))
    with pytest.raises(ValidationError, match="negative"):
        FiniteMetricSpace(((0, -1), (-1, 0)))
    with pytest.raises(ValidationError, match="triangle inequality fails"):
        FiniteMetricSpace(((0, 1, 5), (1, 0, 1), (5, 1, 0)))


def test_triangle_failure_names_a_third_point_past_the_pair():
    matrix = ((0, 5, 3, 1), (5, 0, 3, 1), (3, 3, 0, 2), (1, 1, 2, 0))
    assert oracles.first_triangle_failure(matrix) == (0, 1, 3)
    with pytest.raises(ValidationError) as caught:
        FiniteMetricSpace(matrix)
    assert str(caught.value) == "triangle inequality fails at (0, 1, 3)"


@given(matrix=own.distance_matrices())
def test_space_accepts_exactly_the_matrices_the_triangle_oracle_accepts(matrix):
    failure = oracles.first_triangle_failure(matrix)
    if failure is None:
        assert FiniteMetricSpace(matrix).matrix == matrix
        return
    with pytest.raises(ValidationError) as caught:
        FiniteMetricSpace(matrix)
    assert str(caught.value) == "triangle inequality fails at (%d, %d, %d)" % failure


def test_space_accessors():
    x = FiniteMetricSpace(((0, rat(1, 2)), (rat(1, 2), 0)))
    assert x.size == 2
    assert x.d(0, 1) == rat(1, 2)
    # distinct points at distance zero are legal: projections collapse
    FiniteMetricSpace(((0, 0), (0, 0)))


def test_spaces_and_correspondences_are_frozen_values():
    x = FiniteMetricSpace(matrix=((0, 1), (1, 0)))
    again = FiniteMetricSpace(((0, rat(1)), (rat(1), 0)))
    assert x is not again and x == again and hash(x) == hash(again)
    assert x != FiniteMetricSpace(((0, 2), (2, 0)))
    rel = Correspondence(x=x, y=again, pairs=((1, 1), (0, 0)))
    same = Correspondence(x, again, ((0, 0), (1, 1), (0, 0)))
    assert rel == same and hash(rel) == hash(same)
    assert rel != Correspondence(x, again, ((0, 0), (0, 1), (1, 0)))
    with pytest.raises(AttributeError):
        x.matrix = ((0,),)
    with pytest.raises(AttributeError):
        rel.pairs = ()


def test_space_from_potentials_matches_dist():
    x = seeded_space(9, 4)
    assert x.size == 4
    for i in range(4):
        assert x.d(i, i) == 0
        for j in range(4):
            assert x.d(i, j) == x.d(j, i)


def test_correspondence_must_cover_both_sides():
    x = FiniteMetricSpace(((0, 1), (1, 0)))
    y = FiniteMetricSpace(((0, 2), (2, 0)))
    with pytest.raises(NotTotal):
        Correspondence(x, y, ((0, 0), (0, 1)))
    with pytest.raises(ValidationError, match="out of range"):
        Correspondence(x, y, ((0, 0), (1, 5)))
    rel = Correspondence(x, y, ((0, 0), (1, 1), (1, 1)))
    assert rel.pairs == ((0, 0), (1, 1))


@pytest.mark.parametrize("pair", [(0.9, 0), (True, 1), (0, "1")])
def test_correspondence_pairs_must_be_ints(pair):
    x = FiniteMetricSpace(((0, 1), (1, 0)))
    y = FiniteMetricSpace(((0, 2), (2, 0)))
    with pytest.raises(ValidationError, match="must hold two ints"):
        Correspondence(x, y, ((0, 0), (1, 1), pair))


def test_identity_correspondence_needs_equal_sizes():
    x = FiniteMetricSpace(((0, 1), (1, 0)))
    y = FiniteMetricSpace(((0,),))
    with pytest.raises(NotTotal):
        identity_correspondence(x, y)


def test_distortion_hand_example():
    x = FiniteMetricSpace(((0, 1), (1, 0)))
    y = FiniteMetricSpace(((0, 3), (3, 0)))
    rel = identity_correspondence(x, y)
    assert distortion(rel) == 2
    assert distortion(rel) / 2 == 1
    assert gh_exact(x, y) == 1


@pytest.mark.parametrize("seed,na,nb", [(1, 3, 3), (2, 4, 3), (3, 4, 4), (4, 2, 5)])
def test_gh_exact_matches_the_enumeration_oracle(seed, na, nb):
    rng = random.Random(seed)
    x = space_from_potentials(CTX, random_candidates(rng, GRID3, REF_ND, na))
    y = space_from_potentials(CTX, random_candidates(rng, GRID3, REF_ND, nb))
    value, witness = gh_exact_witness(x, y)
    assert value == oracles.gh_by_enumeration(x, y)
    assert gh_exact(y, x) == value
    assert distortion(witness) / 2 == value


@given(
    xs=own.distance_matrices(dens=(3,), min_points=1, max_points=3, perturb=False),
    ys=own.distance_matrices(dens=(7,), min_points=1, max_points=3, perturb=False),
)
def test_gh_over_coprime_denominators_matches_the_enumeration_oracle(xs, ys):
    x, y = FiniteMetricSpace(xs), FiniteMetricSpace(ys)
    value, witness = gh_exact_witness(x, y)
    assert value == oracles.gh_by_enumeration(x, y)
    assert distortion(witness) / 2 == value
    if x.size == y.size:
        n = x.size
        gaps = [abs(xs[i][j] - ys[i][j]) for i in range(n) for j in range(n)]
        assert distortion(identity_correspondence(x, y)) == max(gaps)


@given(
    xs=own.distance_matrices(dens=(1, 2, 3), min_points=1, max_points=3, perturb=False),
    ys=own.distance_matrices(dens=(5, 7), min_points=1, max_points=3, perturb=False),
)
def test_the_int_enumeration_oracle_agrees_with_the_rational_one(xs, ys):
    x, y = FiniteMetricSpace(xs), FiniteMetricSpace(ys)
    value = oracles.gh_by_enumeration(x, y)
    assert value == oracles.gh_by_enumeration_fractions(x, y)
    assert value == oracles.gh_by_enumeration(y, x)


@pytest.mark.parametrize("seed,na,nb", [(1, 3, 3), (4, 2, 5)])
def test_the_int_enumeration_oracle_agrees_on_seeded_spaces(seed, na, nb):
    rng = random.Random(seed)
    x = space_from_potentials(CTX, random_candidates(rng, GRID3, REF_ND, na))
    y = space_from_potentials(CTX, random_candidates(rng, GRID3, REF_ND, nb))
    assert oracles.gh_by_enumeration(x, y) == oracles.gh_by_enumeration_fractions(x, y)


def test_gh_exact_needs_both_spaces_empty_or_both_nonempty():
    empty, point = FiniteMetricSpace(()), FiniteMetricSpace(((0,),))
    for x, y in ((empty, point), (point, empty)):
        with pytest.raises(NotTotal):
            gh_exact_witness(x, y)
    assert gh_exact(empty, empty) == 0


def test_gh_exact_of_a_space_with_itself_is_zero():
    x = seeded_space(6, 4)
    assert gh_exact(x, x) == 0


def test_gh_exact_is_capped():
    x = seeded_space(7, GH_EXACT_CAP + 1)
    with pytest.raises(TooLarge):
        gh_exact(x, x)


def test_nested_distortions_frozen_table():
    fam = canonical_family()
    rng = random.Random(5)
    cands = random_candidates(rng, GRID3, REF_ND, 10)
    rows, report = nested_family_distortions(fam, cands, [1.0, 2.0], 0.25)
    assert report.passed and report.witnesses["monotone"]
    assert len(rows) == 8
    assert report.witnesses["finals"] == [rat(13, 512), rat(25, 512)]
    by_cap = {}
    for row in rows:
        by_cap.setdefault(row["cap"], []).append(row["distortion"])
    assert by_cap[1.0] == [rat(9, 32), rat(1, 8), rat(7, 128), rat(13, 512)]
    assert by_cap[2.0] == [rat(15, 32), rat(7, 32), rat(13, 128), rat(25, 512)]
    assert {row["members"] for row in rows if row["cap"] == 1.0} == {10}
    assert {row["members"] for row in rows if row["cap"] == 2.0} == {11}
    # each cap row sequence never increases toward the limit
    for values in by_cap.values():
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_nested_distortions_pass_at_zero_tolerance_when_every_final_is_zero():
    # the pool is the reference alone, so every distortion is exactly 0
    rows, report = nested_family_distortions(canonical_family(), [], [1.0], 0.0)
    assert [row["distortion"] for row in rows] == [0, 0, 0, 0]
    assert report.passed and report.witnesses["finals"] == [0]
    cands = random_candidates(random.Random(5), GRID3, REF_ND, 10)
    assert not nested_family_distortions(canonical_family(), cands, [1.0], 0.0)[1].passed


def test_nested_distortions_decide_an_infinite_tolerance():
    cands = random_candidates(random.Random(5), GRID3, REF_ND, 10)
    assert nested_family_distortions(canonical_family(), cands, [1.0], math.inf)[1].passed
    assert not nested_family_distortions(canonical_family(), cands, [1.0], -math.inf)[1].passed


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("caps", [[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [0.5, 4.0]])
def test_nested_distortions_match_a_per_cap_recomputation(seed, caps):
    cands = random_candidates(random.Random(seed), GRID3, REF_ND, 8)
    cands.insert(5, cands[2])
    assert_matches_recomputation(canonical_family(), cands, caps)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("caps", [[1.0, 2.0], [2.0, 1.0], [0.5, 4.0]])
@pytest.mark.parametrize("nodes", [5, 17])
def test_two_sided_nested_distortions_match_a_per_cap_recomputation(nodes, caps, seed):
    # levels shrink at both ends, so each row's gaps come from both ends of the limit
    grid = Grid(tuple(rat(2 * i, nodes - 1) - 1 for i in range(nodes)), (0, 1))
    ref = nondegenerate_reference(grid)
    levels = ((0, 1), (rat(1, 16), rat(15, 16)), (rat(1, 8), rat(7, 8)), (rat(3, 16), rat(13, 16)))
    fam = family_from_intervals(grid, levels, (rat(1, 4), rat(3, 4)), ref)
    cands = random_candidates(random.Random(seed), grid, ref, 8)
    cands.insert(5, cands[2])
    assert_matches_recomputation(fam, cands, caps)


def assert_matches_recomputation(fam, cands, caps):
    rows, report = nested_family_distortions(fam, cands, caps, 0.1)
    want_rows, want_report = oracles.nested_distortions_by_recomputation(fam, cands, caps, 0.1)
    assert rows == want_rows
    assert report.as_dict() == want_report.as_dict()


def test_nested_distortions_filter_once_and_read_each_cap_from_the_pool(monkeypatch):
    # members whose sup part is exactly k/3 sit on either side of the float caps
    cands = [REF_ND.shift(rat(k, 3)) for k in (1, 2, 3)]
    cands += random_candidates(random.Random(4), GRID3, REF_ND, 6)
    caps = [float(rat(1, 3)), float(rat(2, 3)), 1.0, rat(2, 3)]
    calls = []
    real = ghlimits.entropy_cap_filter
    monkeypatch.setattr(ghlimits, "entropy_cap_filter", lambda *a: calls.append(a) or real(*a))
    rows, report = nested_family_distortions(canonical_family(), cands, caps, 0.1)
    assert len(calls) == 1
    want_rows, want_report = oracles.nested_distortions_by_recomputation(canonical_family(), cands, caps, 0.1)
    assert rows == want_rows
    assert report.as_dict() == want_report.as_dict()


def test_nested_distortions_validate_each_level_once_over_the_widest_pool(monkeypatch):
    cands = random_candidates(random.Random(5), GRID3, REF_ND, 10)
    sizes = []
    monkeypatch.setattr(
        ghlimits, "FiniteMetricSpace", lambda m: sizes.append(len(m)) or FiniteMetricSpace(m)
    )
    nested_family_distortions(canonical_family(), cands, [1.0, 2.0], 0.25)
    # four levels and the limit, each over the 11 members cap 2.0 keeps
    assert sizes == [11] * 5


def test_nested_distortions_raise_a_defect_before_reading_any_row(monkeypatch):
    cands = random_candidates(random.Random(5), GRID3, REF_ND, 10)
    real = BigSpace.pair_dist

    def skewed(space, k, i, j):
        # member 10 is kept by cap 2.0 only; one of its level-0 distances is off
        return real(space, k, i, j) + (1 if (k, i, j) == (0, 3, 10) else 0)

    reads = []
    monkeypatch.setattr(BigSpace, "pair_dist", skewed)
    monkeypatch.setattr(BigSpace, "sup_term", lambda *args: reads.append(args))
    with pytest.raises(ValidationError, match=r"asymmetry at \(3, 10\)"):
        nested_family_distortions(canonical_family(), cands, [1.0, 2.0], 0.25)
    assert reads == []


def test_nested_distortions_rejects_bad_schedules():
    up = family_from_intervals(
        GRID3, ((0, rat(1, 2)), (0, rat(3, 4))), (0, 1), REF_ND
    )
    with pytest.raises(ScheduleInvalid, match="decreasing"):
        nested_family_distortions(up, [], [1.0], 0.1)
    with pytest.raises(ScheduleInvalid, match="keeps no candidates"):
        nested_family_distortions(canonical_family(), [], [-1.0], 0.1)
    cands = random_candidates(random.Random(5), GRID3, REF_ND, 4)
    with pytest.raises(ScheduleInvalid, match="cap -1.0 keeps no candidates"):
        nested_family_distortions(canonical_family(), cands, [1.0, -1.0], 0.1)


def test_nested_distortions_reject_an_empty_cap_schedule():
    cands = random_candidates(random.Random(5), GRID3, REF_ND, 4)
    with pytest.raises(ScheduleInvalid, match="the cap schedule is empty"):
        nested_family_distortions(canonical_family(), cands, [], 0.1)


def test_direct_limit_laws_hold_on_a_seeded_generator():
    fam = canonical_family()
    rng = random.Random(5)
    gen = entropy_cap_filter(
        random_candidates(rng, GRID3, REF_ND, 10), 2.0, rat(2), REF_ND
    )
    report = direct_limit_check(fam, gen)
    assert report.passed
    w = report.witnesses
    assert w["lipschitz"] and w["composition"] and w["density"]
    assert w["members"] == len(gen) and w["levels"] == 5
    for gaps in w["density_rows"]:
        assert gaps[-1] == 0
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def filled_space(seed=5, count=10):
    """A BigSpace over the canonical family whose full quasi matrix is cached."""
    gen = entropy_cap_filter(
        random_candidates(random.Random(seed), GRID3, REF_ND, count), 2.0, rat(2), REF_ND
    )
    space = BigSpace(canonical_family(), gen)
    members = range(len(gen.members))
    pts = [space.point_from_member(k, i) for k in range(space.level_count) for i in members]
    for p in pts:
        for q in pts:
            space.quasi(p, q)
    return space


def test_direct_limit_projects_nothing_the_callers_space_already_holds(monkeypatch):
    space = filled_space()
    cached = {key for key in space._cache if key[0] == "project"}
    calls = []

    def counted(psi, u):
        calls.append(("project", space.envs.index(psi), u))
        return model_project(psi, u)

    monkeypatch.setattr(bigspace, "model_project", counted)
    assert direct_limit_check(space.family, space.generator).passed
    assert not cached.intersection(calls)


def test_direct_limit_reports_the_same_with_a_shared_or_a_fresh_generator():
    space = filled_space()
    gen = space.generator
    fresh = SampledFamily(gen.members, gen.cap, gen.sup_bound, gen.reference)
    shared = direct_limit_check(space.family, gen).as_dict()
    assert shared == direct_limit_check(canonical_family(), fresh).as_dict()


def test_direct_limit_builds_each_density_floor_once_per_reference(monkeypatch):
    reference = make_pl(GRID3, (0, rat(1, 4), 1), 0, 1)
    fam = family_from_intervals(
        GRID3, ((0, 1), (0, rat(3, 4)), (0, rat(5, 8)), (0, rat(9, 16))), (0, rat(1, 2)), reference
    )
    gen = entropy_cap_filter(random_candidates(random.Random(5), GRID3, reference, 10), 2.0, rat(2), reference)
    limit, schedule = fam.limit, ghlimits.DENSITY_SCHEDULE
    by_hand = [
        [dist(limit, u, model_project(limit, pointwise_max(u, reference.shift(-j)))) for j in schedule]
        for u in (model_project(limit, g) for g in gen.members)
    ]
    shifted = []
    shift = GridPLConvex.shift
    monkeypatch.setattr(GridPLConvex, "shift", lambda u, c: shifted.append((u, c)) or shift(u, c))
    report = direct_limit_check(fam, gen)
    assert report.passed and report.witnesses["density_rows"] == by_hand
    assert direct_limit_check(fam, gen).as_dict() == report.as_dict()
    assert shifted == [(reference, -rat(j)) for j in schedule]
    assert all(reference._memo["floor", rat(j)] == shift(reference, -j) for j in schedule)


def test_direct_limit_rejects_increasing_schedules():
    up = family_from_intervals(
        GRID3, ((0, rat(1, 2)), (0, rat(3, 4))), (0, 1), REF_ND
    )
    gen = entropy_cap_filter([REF_ND], 1.0, rat(1), REF_ND)
    with pytest.raises(ScheduleInvalid):
        direct_limit_check(up, gen)


def test_direct_limit_refuses_an_empty_generator():
    """No member means no pair, no projection and no density row: the laws would hold vacuously."""
    empty = entropy_cap_filter([], 1.0, rat(1), REF_ND)
    with pytest.raises(EmptyFamily, match="at least one generator member"):
        direct_limit_check(canonical_family(), empty)
    up = family_from_intervals(GRID3, ((0, rat(1, 2)), (0, rat(3, 4))), (0, 1), REF_ND)
    with pytest.raises(ScheduleInvalid):
        direct_limit_check(up, empty)


def test_direct_limit_rejects_a_generator_over_another_polytope():
    wide = Grid(nodes=(-1, 0, 1), polytope=(0, 2))
    ref = make_pl(wide, (0, rat(1, 2), 2), 0, 2)
    gen = entropy_cap_filter([ref], 1.0, rat(1), ref)
    with pytest.raises(GridMismatch):
        direct_limit_check(canonical_family(), gen)
