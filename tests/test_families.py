"""Nested level families: caps, filtering, projection, convergence."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies as own
from femlab import (
    Grid,
    ModelFamily,
    SampledFamily,
    density_approximant,
    dist,
    entropy_cap_filter,
    family_from_intervals,
    is_leq,
    make_pl,
    member_cap,
    model_from_interval,
    model_project,
    monotone_distance_convergence,
    pl_equal,
    project_family,
    rat,
    split_caps,
)
from femlab import families
from femlab.errors import (
    GridMismatch,
    PreconditionViolated,
    ScheduleInvalid,
    ValidationError,
)
from femlab.sampling import random_candidates

GRID3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
REF_ND = make_pl(GRID3, (0, rat(1, 4), 1), 0, 1)
SCHEDULE = ((0, 1), (0, rat(3, 4)), (0, rat(5, 8)), (0, rat(9, 16)))
LIMIT_Q = (0, rat(1, 2))


def canonical_family():
    return family_from_intervals(GRID3, SCHEDULE, LIMIT_Q, REF_ND)


def test_family_direction_and_lengths():
    fam = canonical_family()
    assert fam.direction == "decreasing"
    assert tuple(env.mass for env in fam.levels) == (1, rat(3, 4), rat(5, 8), rat(9, 16))
    assert fam.limit.mass == rat(1, 2)
    up = family_from_intervals(
        GRID3, ((0, rat(1, 2)), (0, rat(3, 4))), (0, 1), REF_ND
    )
    assert up.direction == "increasing"
    assert pl_equal(fam.reference, REF_ND)


def test_families_are_frozen_values():
    fam, again = canonical_family(), canonical_family()
    assert fam is not again and fam == again and hash(fam) == hash(again)
    assert ModelFamily(levels=list(fam.levels), limit=fam.limit) == fam
    assert fam != ModelFamily(fam.levels[:2], fam.limit)
    gen = SampledFamily(members=[REF_ND], cap=1.0, sup_bound=rat(2), reference=REF_ND)
    same = SampledFamily((REF_ND,), 1.0, rat(2), REF_ND)
    assert gen.members == (REF_ND,) and gen == same and hash(gen) == hash(same)
    assert gen != SampledFamily((REF_ND,), 2.0, rat(2), REF_ND)
    for value, name in ((fam, "levels"), (fam, "direction"), (gen, "cap")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_family_rejects_broken_schedules():
    with pytest.raises(ScheduleInvalid):
        ModelFamily((), model_from_interval(GRID3, LIMIT_Q, REF_ND))
    # repeated level: nesting must be strict
    with pytest.raises(ScheduleInvalid):
        family_from_intervals(
            GRID3, ((0, rat(3, 4)), (0, rat(3, 4))), LIMIT_Q, REF_ND
        )
    # limit escapes the deepest level
    with pytest.raises(ScheduleInvalid):
        family_from_intervals(
            GRID3, ((0, 1), (0, rat(3, 4))), (0, rat(7, 8)), REF_ND
        )
    # neither direction fits
    with pytest.raises(ScheduleInvalid):
        family_from_intervals(
            GRID3,
            ((0, rat(3, 4)), (rat(1, 4), 1)),
            LIMIT_Q,
            REF_ND,
        )


def test_family_rejects_levels_on_different_polytopes():
    wide = Grid(nodes=(-1, 0, 1), polytope=(0, 2))
    wide_ref = make_pl(wide, (0, rat(1, 2), 2), 0, 2)
    with pytest.raises(ScheduleInvalid, match="^levels live on different polytopes$"):
        ModelFamily(
            (model_from_interval(wide, (0, 1), wide_ref),),
            model_from_interval(GRID3, LIMIT_Q, REF_ND),
        )


def test_family_rejects_mixed_references():
    other_ref = make_pl(GRID3, (0, rat(1, 2), 1), 0, 1)
    with pytest.raises(ScheduleInvalid):
        ModelFamily(
            (model_from_interval(GRID3, (rat(0), rat(1)), REF_ND),),
            model_from_interval(GRID3, LIMIT_Q, other_ref),
        )


def test_split_caps_frozen_values():
    ref = make_pl(GRID3, (0, rat(1, 2), 1), 0, 1)
    u = make_pl(GRID3, (0, rat(3, 4), rat(3, 2)), 0, 1)
    sup_part, ent = split_caps(u, ref)
    assert sup_part == rat(1, 2)
    assert ent == pytest.approx(0.13081203594113697, abs=1e-15)
    assert member_cap(u, ref) == 0.5


def test_split_caps_infinite_off_the_reference_mass():
    ref = make_pl(GRID3, (0, rat(1, 2), 1), 0, 1)
    flat = make_pl(GRID3, (0, 0, 0), 0, 0)
    sup_part, ent = split_caps(flat, ref)
    assert sup_part == 0
    assert math.isinf(ent)
    assert math.isinf(member_cap(flat, ref))


def test_member_cap_of_the_reference_is_zero():
    assert member_cap(REF_ND, REF_ND) == 0.0


def test_member_cap_admits_exactly_what_the_cap_filter_keeps():
    # float(k/3) falls below k/3 for k = 1, 2, 4, so a rounded sup part would
    # admit u at cap float(k/3) where the exact filter drops it
    for k in range(1, 7):
        u = REF_ND.shift(rat(k, 3))
        cap = float(rat(k, 3))
        assert member_cap(u, REF_ND) == rat(k, 3)
        kept = entropy_cap_filter([u], cap, cap, REF_ND).members
        assert (member_cap(u, REF_ND) <= cap) == bool(kept)


def test_sampled_family_rejects_cap_violations():
    ref = make_pl(GRID3, (0, rat(1, 2), 1), 0, 1)
    u = make_pl(GRID3, (0, rat(3, 4), rat(3, 2)), 0, 1)
    with pytest.raises(ValidationError, match="entropy cap"):
        SampledFamily((u,), 0.05, rat(2), ref)
    with pytest.raises(ValidationError, match="sup bound"):
        SampledFamily((u,), 1.0, rat(1, 4), ref)


def test_entropy_cap_filter_keeps_qualifying_members_in_order():
    tent = make_pl(GRID3, (0, 0, 1), 0, 1)
    mild = make_pl(GRID3, (0, rat(3, 8), rat(9, 8)), 0, 1)
    flat = make_pl(GRID3, (0, 0, 0), 0, 0)
    fam = entropy_cap_filter((tent, flat, mild), 0.75, rat(2), REF_ND)
    assert len(fam) == 2
    kept = list(fam)
    assert pl_equal(kept[0], tent)
    assert pl_equal(kept[1], mild)
    assert fam.cap == 0.75 and fam.sup_bound == rat(2)


@given(cands=st.lists(own.potentials_on(GRID3), max_size=6))
def test_entropy_cap_filter_is_exactly_the_cap_predicate(cands):
    cap, bound = 1.5, rat(3, 2)
    fam = entropy_cap_filter(cands, cap, bound, REF_ND)
    picked = iter(fam.members)
    for u in cands:
        sup_part, ent = split_caps(u, REF_ND)
        if ent <= cap and sup_part <= bound:
            assert pl_equal(next(picked), u)
    assert next(picked, None) is None


def test_entropy_cap_filter_computes_each_candidates_caps_once(monkeypatch):
    calls = []
    real = families.sup_diff
    monkeypatch.setattr(families, "sup_diff", lambda u, v: calls.append(u) or real(u, v))
    candidates = random_candidates(random.Random(2026), GRID3, REF_ND, 12)
    kept = entropy_cap_filter(candidates, 4.0, 2.0, REF_ND)
    assert len(kept) == 12
    assert len(calls) == 12


def test_project_family_images_align_with_sources():
    psi = model_from_interval(GRID3, (rat(0), rat(3, 4)), REF_ND)
    tent = make_pl(GRID3, (0, 0, 1), 0, 1)
    fam = entropy_cap_filter((tent, REF_ND), 1.0, rat(2), REF_ND)
    pf = project_family(psi, fam)
    assert len(pf) == len(fam)
    for src, img in zip(fam.members, pf):
        assert pl_equal(img, model_project(psi, src))
        assert img.dual_domain() == psi.Q


def test_project_family_rejects_foreign_polytopes():
    psi = model_from_interval(GRID3, (rat(0), rat(3, 4)), REF_ND)
    narrow = Grid(nodes=(-1, 0, 1), polytope=(0, rat(1, 2)))
    ref_n = make_pl(narrow, (0, 0, rat(1, 2)), 0, rat(1, 2))
    fam = SampledFamily((ref_n,), 1.0, rat(2), ref_n)
    with pytest.raises(GridMismatch):
        project_family(psi, fam)


def test_density_approximant_rejects_bad_parameters():
    psi = model_from_interval(GRID3, (rat(0), rat(3, 4)), REF_ND)
    inside = make_pl(GRID3, (0, 0, rat(3, 4)), 0, rat(3, 4))
    with pytest.raises(ValueError):
        density_approximant(psi, inside, 0)
    tent = make_pl(GRID3, (0, 0, 1), 0, 1)
    with pytest.raises(PreconditionViolated):
        density_approximant(psi, tent, 1)


def test_density_approximant_descends_to_exact_equality():
    psi = model_from_interval(GRID3, (rat(0), rat(3, 4)), REF_ND)
    inside = make_pl(GRID3, (0, 0, rat(3, 4)), 0, rat(3, 4))
    assert pl_equal(model_project(psi, inside), inside)
    first = density_approximant(psi, inside, rat(1, 8))
    assert dist(psi, first, inside) == rat(5, 64)
    prev = first
    for j in (rat(1, 4), rat(1, 2), 1, 2):
        cur = density_approximant(psi, inside, j)
        assert is_leq(cur, prev)
        assert is_leq(inside, cur)
        assert dist(psi, cur, inside) <= dist(psi, prev, inside)
        prev = cur
    # stabilizes exactly once the clip falls below u
    assert pl_equal(density_approximant(psi, inside, rat(1, 4)), inside)
    assert dist(psi, prev, inside) == 0


def test_convergence_table_frozen_values():
    fam = canonical_family()
    tent = make_pl(GRID3, (0, 0, 1), 0, 1)
    ramp = make_pl(GRID3, (0, rat(1, 2), 1), 0, 1)
    seq_a = [model_project(env, tent) for env in fam.levels]
    seq_a.append(model_project(fam.limit, tent))
    seq_b = [model_project(env, ramp) for env in fam.levels]
    seq_b.append(model_project(fam.limit, ramp))
    report = monotone_distance_convergence(fam, seq_a, seq_b, 0.1)
    assert report.passed
    assert report.witnesses["distances"] == [
        rat(1, 4),
        rat(7, 32),
        rat(23, 128),
        rat(79, 512),
    ]
    assert report.rhs == rat(1, 8)
    assert report.witnesses["final_defect"] == pytest.approx(0.029296875)
    tight = monotone_distance_convergence(fam, seq_a, seq_b, 1e-9)
    assert not tight.passed


def test_convergence_compares_the_exact_defect_with_the_exact_tolerance():
    # the defect is 1/48, and float(1/48) lies just below it
    fam = canonical_family()
    tent = make_pl(GRID3, (0, 0, 1), 0, 1)
    ramp = make_pl(GRID3, (0, rat(1, 3), 1), 0, 1)
    seq_a = [model_project(env, tent) for env in (*fam.levels, fam.limit)]
    seq_b = [model_project(env, ramp) for env in (*fam.levels, fam.limit)]
    defect = rat(1, 48)
    assert abs(dist(fam.levels[-1], seq_a[-2], seq_b[-2]) - dist(fam.limit, seq_a[-1], seq_b[-1])) == defect
    assert float(defect) < defect
    report = monotone_distance_convergence(fam, seq_a, seq_b, float(defect))
    assert not report.passed and report.witnesses["final_defect"] == float(defect)
    assert monotone_distance_convergence(fam, seq_a, seq_b, math.nextafter(float(defect), 1)).passed


def test_convergence_decides_an_infinite_tolerance():
    fam = canonical_family()
    tent = make_pl(GRID3, (0, 0, 1), 0, 1)
    ramp = make_pl(GRID3, (0, rat(1, 2), 1), 0, 1)
    seq_a = [model_project(env, tent) for env in (*fam.levels, fam.limit)]
    seq_b = [model_project(env, ramp) for env in (*fam.levels, fam.limit)]
    assert monotone_distance_convergence(fam, seq_a, seq_b, math.inf).passed
    assert not monotone_distance_convergence(fam, seq_a, seq_b, -math.inf).passed


def test_convergence_requires_one_entry_per_level_plus_limit():
    fam = canonical_family()
    tent = make_pl(GRID3, (0, 0, 1), 0, 1)
    short = [model_project(env, tent) for env in fam.levels]
    with pytest.raises(PreconditionViolated):
        monotone_distance_convergence(fam, short, short, 0.1)
