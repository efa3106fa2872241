"""Monge-Ampere masses of PL convex potentials and checks built on them.

In this one-dimensional model the Monge-Ampere measure of a potential is
purely atomic: the mass at a node is the slope jump there, counting the end
slopes as the slopes beyond the first and last node.  Total mass is the
length of the dual domain, so it never exceeds the polytope length for a
measure that arises from a potential.  Relative entropy is the single place
floats appear; it reads exact masses and converts only at the final log.
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
    SingularityOrder,
    align,
    check_reference,
    compare_singularity,
    model_project,
    pointwise_max,
    refine_to,
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
    slopes = (u.slope_left,) + u.chord_slopes() + (u.slope_right,)
    jumps = tuple(slopes[i + 1] - slopes[i] for i in range(len(slopes) - 1))
    memo["monge_ampere"] = mu = AtomicMeasure(u.grid, jumps)
    return mu


def _charged_sum(values, masses):
    """Sum of value * mass over the charged nodes; values are trusted rationals."""
    acc = ZERO
    for d, m in zip(values, masses):
        if m != 0:
            acc += d * m
    return acc


def integrate(g, mu: AtomicMeasure):
    """Integral of g against mu: sum of node values times masses.

    g may be a potential (evaluated at mu's nodes) or a value sequence
    aligned with mu's nodes.  Zero-mass nodes are skipped, so only values at
    charged nodes matter.
    """
    if isinstance(g, GridPLConvex):
        vals = [g.evaluate(x) for x in mu.grid.nodes]
    else:
        vals = [rat(v) for v in g]
        if len(vals) != len(mu.grid.nodes):
            raise ValueError("value sequence does not match the measure's grid")
    return _charged_sum(vals, mu.masses)


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
    try:
        check_reference(reference.grid, reference)
    except Exception:
        return False
    return all(m > 0 for m in monge_ampere(reference).masses)


# --- inequality checks ------------------------------------------------------


def _negative_intervals(u: GridPLConvex, v: GridPLConvex):
    """Open intervals where u < v, endpoints exact (None encodes infinity)."""
    u, v = align(u, v)
    w = pointwise_max(u, v)  # its grid contains every crossing of u and v
    grid = w.grid
    uu = refine_to(u, grid)
    vv = refine_to(v, grid)
    xs = grid.nodes
    diffs = [a - b for a, b in zip(uu.values, vv.values)]
    # piece sign probes: left ray, each segment midpoint, right ray
    probes = [(None, xs[0])] + [(xs[i], xs[i + 1]) for i in range(len(xs) - 1)] + [(xs[-1], None)]
    signs = []
    for lo, hi in probes:
        if lo is None:
            x = xs[0] - 1
        elif hi is None:
            x = xs[-1] + 1
        else:
            x = (lo + hi) / 2
        signs.append(uu.evaluate(x) - vv.evaluate(x) < 0)
    intervals = []
    i = 0
    while i < len(probes):
        if not signs[i]:
            i += 1
            continue
        j = i
        # extend the run while the next piece is negative and the shared
        # node does not touch zero (a zero node splits the open set)
        while j + 1 < len(probes) and signs[j + 1] and diffs[j] < 0:
            j += 1
        intervals.append((probes[i][0], probes[j][1]))
        i = j + 1
    return intervals, grid, diffs


def check_comparison_principle(u: GridPLConvex, v: GridPLConvex) -> Report:
    """MA(u)({v < u}) <= MA(v)({v < u}) for u at least as singular as v."""
    order = compare_singularity(u, v)
    if order not in (SingularityOrder.MORE_SINGULAR, SingularityOrder.EQUIVALENT):
        raise PreconditionViolated("comparison principle needs u at least as singular as v")
    u, v = align(u, v)
    mu, mv = monge_ampere(u), monge_ampere(v)
    inside = [i for i, (a, b) in enumerate(zip(v.values, u.values)) if a < b]
    lhs = sum((mu.masses[i] for i in inside), ZERO)
    rhs = sum((mv.masses[i] for i in inside), ZERO)
    intervals, _, _ = _negative_intervals(v, u)
    witness_intervals = [
        ["-inf" if a is None else rat_str(a), "+inf" if b is None else rat_str(b)]
        for a, b in intervals
    ]
    return Report(
        name="comparison_principle",
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        witnesses={"set_v_below_u": witness_intervals, "charged_nodes": inside},
    )


def check_rooftop_mass_bound(u: GridPLConvex, v: GridPLConvex) -> Report:
    """MA(P(u,v)) <= 1_{P=u} MA(u) + 1_{P=v} MA(v), node by node."""
    p = rooftop(u, v)
    u2, v2, p2 = align(u, v, p)
    mp, mu, mv = monge_ampere(p2), monge_ampere(u2), monge_ampere(v2)
    bad = []
    for i in range(len(p2.values)):
        bound = ZERO
        if p2.values[i] == u2.values[i]:
            bound += mu.masses[i]
        if p2.values[i] == v2.values[i]:
            bound += mv.masses[i]
        if mp.masses[i] > bound:
            bad.append(i)
    return Report(
        name="rooftop_mass_bound",
        passed=not bad,
        lhs=mp.total,
        rhs=mu.total + mv.total,
        witnesses={
            "violating_nodes": bad,
            "contact_u": [i for i in range(len(p2.values)) if p2.values[i] == u2.values[i]],
            "contact_v": [i for i in range(len(p2.values)) if p2.values[i] == v2.values[i]],
        },
    )


def check_model_mass_bound(psi: ModelEnvelope, u: GridPLConvex) -> Report:
    """MA(P[psi](u)) <= 1_{P[psi](u)=u} MA(u), node by node."""
    p = model_project(psi, u)
    u2, p2 = align(u, p)
    mp, mu = monge_ampere(p2), monge_ampere(u2)
    bad = []
    contact = []
    for i in range(len(p2.values)):
        touching = p2.values[i] == u2.values[i]
        if touching:
            contact.append(i)
        bound = mu.masses[i] if touching else ZERO
        if mp.masses[i] > bound:
            bad.append(i)
    return Report(
        name="model_mass_bound",
        passed=not bad,
        lhs=mp.total,
        rhs=mu.total,
        witnesses={"violating_nodes": bad, "contact_nodes": contact},
    )
