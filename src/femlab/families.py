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

from ._rational import _Frozen, at_most, rat
from .errors import GridMismatch, PreconditionViolated, ScheduleInvalid, ValidationError
from .grid_convex import (
    GridPLConvex,
    ModelEnvelope,
    model_from_interval,
    model_project,
    more_singular,
    pointwise_max,
    sup_diff,
)
from .measures import entropy, monge_ampere, normalize
from .metric import dist
from .report import Report


class ModelFamily(_Frozen):
    """Strictly nested envelope levels with a limit level.

    Direction is inferred: decreasing means each Q strictly shrinks and the
    limit interval sits inside every level; increasing is the mirror case.
    """

    __slots__ = ("levels", "limit", "direction", "_memo")
    _shown = ("levels", "limit")

    def __init__(self, levels: tuple, limit: ModelEnvelope):
        levels = tuple(levels)
        if not levels:
            raise ScheduleInvalid("a family needs at least one level")
        for env in levels + (limit,):
            if env.grid.polytope != levels[0].grid.polytope:
                raise ScheduleInvalid("levels live on different polytopes")
            if env.reference != levels[0].reference:
                raise ScheduleInvalid("levels disagree on the reference")
        ps = [env.potential for env in levels]
        pl = limit.potential
        decreasing = all(
            more_singular(b, a) and a.dual_domain() != b.dual_domain() for a, b in zip(ps, ps[1:])
        ) and all(more_singular(pl, p) for p in ps)
        increasing = all(
            more_singular(a, b) and a.dual_domain() != b.dual_domain() for a, b in zip(ps, ps[1:])
        ) and all(more_singular(p, pl) for p in ps)
        if not (decreasing or increasing):
            raise ScheduleInvalid("levels are not strictly nested toward the limit")
        direction = "decreasing" if decreasing else "increasing"
        self._set(levels=levels, limit=limit, direction=direction, _memo={})

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


def member_cap(u: GridPLConvex, reference: GridPLConvex):
    """The least cap admitting u: max(|sup(u - reference)|, entropy part), unrounded.

    So member_cap(u, reference) <= c is entropy_cap_filter's test with both bounds c.
    """
    return max(split_caps(u, reference))


class SampledFamily(_Frozen):
    """Finite capped family: every member obeys both declared bounds."""

    __slots__ = ("members", "cap", "sup_bound", "reference", "_memo")
    _shown = ("members", "cap", "sup_bound", "reference")

    def __init__(self, members: tuple, cap: float, sup_bound, reference: GridPLConvex):
        members = tuple(members)
        for i, u in enumerate(members):
            sup_part, ent = split_caps(u, reference)
            if not ent <= cap:
                raise ValidationError("member %d exceeds the entropy cap" % i)
            if not sup_part <= sup_bound:
                raise ValidationError("member %d exceeds the sup bound" % i)
        self._set(members=members, cap=cap, sup_bound=sup_bound, reference=reference, _memo={})

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
        if u.grid.polytope != psi.grid.polytope:
            raise GridMismatch("family and envelope live on different polytopes")
    return tuple(model_project(psi, u) for u in family)


def density_approximant(psi: ModelEnvelope, u: GridPLConvex, j) -> GridPLConvex:
    """Project max(u, reference - j) to the level: the bounded-from-below stand-in.

    Decreasing in j, above u, and equal to u once j dominates the gap to
    the reference; distances to u shrink to exact zero at finite j.  The
    floor reference - j is built once, in the reference's memo as ("floor", j).
    """
    j = rat(j)
    if j <= 0:
        raise ValueError("approximation parameter must be positive")
    if not more_singular(u, psi.potential):
        raise PreconditionViolated("approximant needs u at least as singular as the level")
    memo = psi.reference._memo
    if ("floor", j) not in memo:
        memo["floor", j] = psi.reference.shift(-j)
    return model_project(psi, pointwise_max(u, memo["floor", j]))


def monotone_distance_convergence(family: ModelFamily, u1_seq, u2_seq, tolerance: float) -> Report:
    """Tabulate level distances against the limit-level distance.

    Each sequence supplies one potential per level plus a final entry at
    the limit level; distances are exact, only the threshold is a float,
    and the exact defect is compared with the float's exact value.
    """
    u1_seq, u2_seq = list(u1_seq), list(u2_seq)
    want = len(family.levels) + 1
    if len(u1_seq) != want or len(u2_seq) != want:
        raise PreconditionViolated("need one potential per level plus the limit entry")
    table = [dist(psi, a, b) for psi, a, b in zip(family.levels, u1_seq, u2_seq)]
    d_lim = dist(family.limit, u1_seq[-1], u2_seq[-1])
    defect = abs(table[-1] - d_lim)
    return Report(
        name="monotone_distance_convergence",
        passed=at_most(defect, tolerance),
        lhs=table[-1],
        rhs=d_lim,
        witnesses={"distances": table, "final_defect": float(defect), "tolerance": tolerance},
    )
