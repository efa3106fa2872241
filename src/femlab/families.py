"""Nested envelope schedules and entropy-capped sampled families.

A ModelFamily is a finite strictly nested schedule of model envelopes with
a declared limit envelope; it stands in for a monotone sequence of
singularity levels.  A SampledFamily is a finite list of full-polytope
potentials obeying a relative-entropy cap and a sup bound against the
reference; projecting it to a level gives the finite stand-in for the
projected compact sets used by the convergence experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rational import rat
from .errors import GridMismatch, PreconditionViolated, ScheduleInvalid, ValidationError
from .grid_convex import (
    GridPLConvex,
    ModelEnvelope,
    _contains,
    model_from_interval,
    model_project,
    pointwise_max,
    sup_diff,
)
from .measures import entropy, monge_ampere, normalize
from .metric import dist
from .report import Report


@dataclass(frozen=True)
class ModelFamily:
    """Strictly nested envelope levels with a limit level.

    Direction is inferred: decreasing means each Q strictly shrinks and the
    limit interval sits inside every level; increasing is the mirror case.
    """

    levels: tuple
    limit: ModelEnvelope

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ScheduleInvalid("a family needs at least one level")
        for env in levels + (self.limit,):
            if env.grid._poly != levels[0].grid._poly:
                raise ScheduleInvalid("levels live on different polytopes")
            if env.reference != levels[0].reference:
                raise ScheduleInvalid("levels disagree on the reference")
        qs = [env.potential._ends for env in levels]
        limit = self.limit.potential._ends
        decreasing = all(
            _contains(a, b) and a != b for a, b in zip(qs, qs[1:])
        ) and all(_contains(q, limit) for q in qs)
        increasing = all(
            _contains(b, a) and a != b for a, b in zip(qs, qs[1:])
        ) and all(_contains(limit, q) for q in qs)
        if not (decreasing or increasing):
            raise ScheduleInvalid("levels are not strictly nested toward the limit")
        object.__setattr__(self, "direction", "decreasing" if decreasing else "increasing")

    @property
    def reference(self) -> GridPLConvex:
        return self.levels[0].reference


def family_from_intervals(grid, intervals, limit_interval, reference) -> ModelFamily:
    levels = tuple(model_from_interval(grid, q, reference) for q in intervals)
    return ModelFamily(levels, model_from_interval(grid, limit_interval, reference))


def split_caps(u: GridPLConvex, reference: GridPLConvex):
    """(|sup(u - reference)|, relative entropy of ma(u)/V0 against ma(reference)/V0).

    The entropy side is +inf when u does not carry the full reference mass,
    since the capped candidate sets live at minimal singularity.  Computed
    once per (u, reference) value.
    """
    key = ("split_caps", reference)
    if key not in u._memo:
        mu, nu = monge_ampere(u), monge_ampere(reference)
        ent = entropy(normalize(mu), normalize(nu)) if mu.total == nu.total else math.inf
        u._memo[key] = (abs(sup_diff(u, reference)), ent)
    return u._memo[key]


def member_cap(u: GridPLConvex, reference: GridPLConvex) -> float:
    """max(|sup(u - reference)|, entropy part): the least cap admitting u."""
    sup_part, ent = split_caps(u, reference)
    return max(float(sup_part), ent)


@dataclass(frozen=True)
class SampledFamily:
    """Finite capped family: every member obeys both declared bounds."""

    members: tuple
    cap: float
    sup_bound: object
    reference: GridPLConvex

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for i, u in enumerate(self.members):
            sup_part, ent = split_caps(u, self.reference)
            if not ent <= self.cap:
                raise ValidationError("member %d exceeds the entropy cap" % i)
            if not sup_part <= self.sup_bound:
                raise ValidationError("member %d exceeds the sup bound" % i)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def entropy_cap_filter(candidates, cap: float, sup_bound, reference: GridPLConvex) -> SampledFamily:
    """Keep exactly the candidates meeting both bounds, order preserved."""
    kept = []
    for u in candidates:
        sup_part, ent = split_caps(u, reference)
        if ent <= cap and sup_part <= sup_bound:
            kept.append(u)
    return SampledFamily(tuple(kept), cap, sup_bound, reference)


def project_family(psi: ModelEnvelope, family: SampledFamily) -> tuple:
    """The level-psi images of the members, image i of member i."""
    for u in family:
        if u.grid._poly != psi.grid._poly:
            raise GridMismatch("family and envelope live on different polytopes")
    return tuple(model_project(psi, u) for u in family)


def density_approximant(psi: ModelEnvelope, u: GridPLConvex, j) -> GridPLConvex:
    """Project max(u, reference - j) to the level: the bounded-from-below stand-in.

    Decreasing in j, above u, and equal to u once j dominates the gap to
    the reference; distances to u shrink to exact zero at finite j.
    """
    j = rat(j)
    if j <= 0:
        raise ValueError("approximation parameter must be positive")
    if not _contains(psi.potential._ends, u._ends):
        raise PreconditionViolated("approximant needs u at least as singular as the level")
    clipped = pointwise_max(u, psi.reference.shift(-j))
    return model_project(psi, clipped)


def monotone_distance_convergence(family: ModelFamily, u1_seq, u2_seq, tolerance: float) -> Report:
    """Tabulate level distances against the limit-level distance.

    Each sequence supplies one potential per level plus a final entry at
    the limit level; distances are exact, only the threshold is a float.
    """
    u1_seq, u2_seq = list(u1_seq), list(u2_seq)
    want = len(family.levels) + 1
    if len(u1_seq) != want or len(u2_seq) != want:
        raise PreconditionViolated("need one potential per level plus the limit entry")
    table = [dist(psi, a, b) for psi, a, b in zip(family.levels, u1_seq, u2_seq)]
    d_lim = dist(family.limit, u1_seq[-1], u2_seq[-1])
    final_defect = abs(float(table[-1] - d_lim))
    return Report(
        name="monotone_distance_convergence",
        passed=final_defect <= tolerance,
        lhs=table[-1],
        rhs=d_lim,
        witnesses={"distances": table, "final_defect": final_defect, "tolerance": tolerance},
    )
