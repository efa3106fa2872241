"""Monge-Ampere masses of PL convex potentials and checks built on them.

In this one-dimensional model the Monge-Ampere measure of a potential is
purely atomic: the mass at a node is the slope jump there, counting the end
slopes as the slopes beyond the first and last node.  Total mass is the
length of the dual domain, so it never exceeds the polytope length for a
measure that arises from a potential.  Relative entropy is the single place
floats appear; it reads exact masses and converts only at the final log.

Every mass pairing goes through ``_charged_sum``; ``_pairings`` pairs u - v
with MA(u) and MA(v) for the energy.  The checks are the comparison
principle and one contact-mass law, MA(P) <= sum over w of 1_{P=w} MA(w),
for the rooftop P(u, v) and the model projection P[psi](u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rational import ZERO, rat, rat_str
from .errors import GridMismatch, NotNormalized, PreconditionViolated
from .grid_convex import (
    Grid,
    GridPLConvex,
    ModelEnvelope,
    _contains,
    align,
    model_project,
    rooftop,
)
from .report import Report


@dataclass(frozen=True)
class AtomicMeasure:
    """Non-negative masses sitting on the grid nodes.

    Measures coming out of ``monge_ampere`` always satisfy the volume bound
    total <= polytope length; normalized (probability) measures need not.
    """

    grid: Grid
    masses: tuple

    def __post_init__(self):
        masses = tuple(rat(m) for m in self.masses)
        if len(masses) != len(self.grid.nodes):
            raise ValueError("%d masses for %d nodes" % (len(masses), len(self.grid.nodes)))
        for m in masses:
            if m < 0:
                raise ValueError("negative mass %s" % rat_str(m))
        object.__setattr__(self, "masses", masses)

    @property
    def total(self):
        return sum(self.masses, ZERO)


def monge_ampere(u: GridPLConvex) -> AtomicMeasure:
    """Atomic measure of slope jumps; total equals the dual domain length.

    Computed once per potential.
    """
    memo = u._memo
    if "monge_ampere" in memo:
        return memo["monge_ampere"]
    jumps = tuple(b - a for a, b in zip(u._slopes, u._slopes[1:]))
    memo["monge_ampere"] = mu = AtomicMeasure(u.grid, jumps)
    return mu


def _charged_sum(values, masses):
    """Sum of value * mass over the charged nodes; values are trusted rationals."""
    acc = ZERO
    for d, m in zip(values, masses):
        if m != 0:
            acc += d * m
    return acc


def _pairings(u: GridPLConvex, v: GridPLConvex):
    """(integral (u - v) dMA(u), integral (u - v) dMA(v)), on the aligned grid."""
    u, v = align(u, v)
    diff = tuple(a - b for a, b in zip(u.values, v.values))
    return _charged_sum(diff, monge_ampere(u).masses), _charged_sum(diff, monge_ampere(v).masses)


def normalize(mu: AtomicMeasure) -> AtomicMeasure:
    t = mu.total
    if t == 0:
        raise NotNormalized("cannot normalize a zero measure")
    return AtomicMeasure(mu.grid, tuple(m / t for m in mu.masses))


def _check_probability_pair(nu: AtomicMeasure, mu: AtomicMeasure):
    if nu.grid != mu.grid:
        raise GridMismatch("entropy needs measures on one grid")
    if nu.total != 1 or mu.total != 1:
        raise NotNormalized(
            "entropy needs probability measures, got totals %s and %s"
            % (rat_str(nu.total), rat_str(mu.total))
        )


def entropy(nu: AtomicMeasure, mu: AtomicMeasure) -> float:
    """Relative entropy sum nu_i log(nu_i / mu_i); +inf off mu's support.

    The only float-valued quantity in the package: ratios stay exact
    rationals until the final log.
    """
    _check_probability_pair(nu, mu)
    acc = 0.0
    for n, m in zip(nu.masses, mu.masses):
        if n == 0:
            continue
        if m == 0:
            return math.inf
        acc += float(n) * math.log(float(n / m))
    return acc


def is_nondegenerate_reference(reference: GridPLConvex) -> bool:
    """Spans the polytope and charges every node, so entropies stay finite."""
    return reference.dual_domain() == reference.grid.polytope and all(
        m > 0 for m in monge_ampere(reference).masses
    )


# --- inequality checks ------------------------------------------------------


def check_comparison_principle(u: GridPLConvex, v: GridPLConvex) -> Report:
    """MA(u)({v < u}) <= MA(v)({v < u}) for u at least as singular as v."""
    if not _contains(v.dual_domain(), u.dual_domain()):
        raise PreconditionViolated("comparison principle needs u at least as singular as v")
    u, v = align(u, v)
    mu, mv = monge_ampere(u), monge_ampere(v)
    inside = [i for i, (a, b) in enumerate(zip(v.values, u.values)) if a < b]
    lhs = sum((mu.masses[i] for i in inside), ZERO)
    rhs = sum((mv.masses[i] for i in inside), ZERO)
    return Report(
        name="comparison_principle",
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        witnesses={"charged_nodes": inside},
    )


def _contact_mass_report(name: str, p: GridPLConvex, bounds) -> Report:
    """The contact-mass law MA(p) <= sum over w in bounds of 1_{p=w} MA(w), node by node.

    lhs is the mass of p, rhs the total mass of the bounds; the witnesses
    are the violating nodes and, per bound w, the contact nodes where p = w.
    """
    p, *ws = align(p, *bounds)
    mws = [monge_ampere(w) for w in ws]
    contact = [[i for i, (a, b) in enumerate(zip(p.values, w.values)) if a == b] for w in ws]
    bound = [ZERO] * len(p.values)
    for mw, nodes in zip(mws, contact):
        for i in nodes:
            bound[i] += mw.masses[i]
    mp = monge_ampere(p)
    bad = [i for i, (m, b) in enumerate(zip(mp.masses, bound)) if m > b]
    return Report(
        name=name,
        passed=not bad,
        lhs=mp.total,
        rhs=sum((mw.total for mw in mws), ZERO),
        witnesses={"violating_nodes": bad, "contact": contact},
    )


def check_rooftop_mass_bound(u: GridPLConvex, v: GridPLConvex) -> Report:
    """MA(P(u,v)) <= 1_{P=u} MA(u) + 1_{P=v} MA(v), node by node."""
    return _contact_mass_report("rooftop_mass_bound", rooftop(u, v), (u, v))


def check_model_mass_bound(psi: ModelEnvelope, u: GridPLConvex) -> Report:
    """MA(P[psi](u)) <= 1_{P[psi](u)=u} MA(u), node by node."""
    return _contact_mass_report("model_mass_bound", model_project(psi, u), (u,))
