"""Monge-Ampere masses of PL convex potentials and checks built on them.

In this one-dimensional model the Monge-Ampere measure of a potential is
purely atomic: the mass at a node is the slope jump there, counting the end
slopes as the slopes beyond the first and last node.  Total mass is the
length of the dual domain, so it never exceeds the polytope length for a
measure that arises from a potential.  Relative entropy is the single place
floats appear; it reads exact masses and converts only at the final log.

Masses are kept as ints over one reduced denominator, like potential
values.  Every Monge-Ampere pairing lives here and reads both potentials
in place, with ``_pair_on``, on the nodes of its measure: ``_pairing`` is
integral (u - v) dMA(w) as two int dot products; ``pairings`` takes it for
MA(u) and MA(v), for the energy, over one unreduced denominator, so the
energy, the difference identity and the chain gap each build one rational
from them; ``rho`` takes it once, against MA(lo), for an ordered pair; and
``abs_diff_pairing`` pairs |u - v| with MA(u) + MA(v), each on its own
nodes.  Only ``is_leq``, ``sup_diff`` and ``pl_equal`` read on ``_union_reads``' grids.
The checks are the comparison principle and one contact-mass law,
MA(P) <= sum over w of 1_{P=w} MA(w), for the rooftop P(u, v) and the
model projection P[psi](u); each reads its pairs with ``_pair_on`` on the
union grid, where its node-index witnesses live.
"""

from __future__ import annotations

import math
from operator import mul, sub

from ._rational import ZERO, Lattice, _Frozen, lattice, rat, rat_str
from .errors import GridMismatch, NotComparable, NotNormalized, PreconditionViolated
from .grid_convex import (
    Grid,
    GridPLConvex,
    ModelEnvelope,
    _pair_on,
    align,
    is_leq,
    model_project,
    more_singular,
    rooftop,
)
from .report import Report


class AtomicMeasure(_Frozen):
    """Non-negative masses sitting on the grid nodes.

    Masses are given as exact rationals or as a ``Lattice`` and kept as
    ints ``_num`` over one reduced denominator ``_den``; ``masses`` gives
    them as backend rationals.  Measures coming out of ``monge_ampere``
    always satisfy the volume bound total <= polytope length; normalized
    (probability) measures need not.
    """

    __slots__ = ("grid", "_num", "_den", "_memo")
    _shown = ("grid", "masses")

    def __init__(self, grid: Grid, masses):
        self.__post_init__(grid, masses)

    def __post_init__(self, grid, masses):
        nums, den = lattice(masses)
        if len(nums) != len(grid._xs):
            raise ValueError("%d masses for %d nodes" % (len(nums), len(grid._xs)))
        if min(nums) < 0:
            m = next(m for m in nums if m < 0)
            raise ValueError("negative mass %s" % rat_str(rat(m, den)))
        self._set(grid=grid, _num=nums, _den=den, _memo={})

    def _key(self):
        return (self.grid, self._den, self._num)

    @property
    def masses(self) -> tuple:
        return self._rationals("masses", (self._num, self._den))

    @property
    def total(self):
        return rat(sum(self._num), self._den)


def monge_ampere(u: GridPLConvex) -> AtomicMeasure:
    """Atomic measure of slope jumps; total equals the dual domain length.

    Computed once per potential.
    """
    memo = u._memo
    if "monge_ampere" in memo:
        return memo["monge_ampere"]
    slopes, den = u._slope_lattice
    jumps = tuple(map(sub, slopes[1:], slopes))
    memo["monge_ampere"] = mu = AtomicMeasure(u.grid, Lattice(jumps, den))
    return mu


def _pairing(u: GridPLConvex, v: GridPLConvex, w: GridPLConvex) -> tuple:
    """integral (u - v) dMA(w) over w's own nodes as (int, denominator), unreduced: two int dot products."""
    (a, ra), (b, rb), den = _pair_on(u, v, w.grid)
    mu = monge_ampere(w)
    return sum(map(mul, a, mu._num)) * ra - sum(map(mul, b, mu._num)) * rb, den * mu._den


def pairings(u: GridPLConvex, v: GridPLConvex) -> Lattice:
    """(integral (u - v) dMA(u), integral (u - v) dMA(v)) as ints over one unreduced denominator.

    Each is ``_pairing`` over the nodes of the measure that charges it; a
    caller builds the one rational it needs from the ints.
    """
    (pu, du), (pv, dv) = _pairing(u, v, u), _pairing(u, v, v)
    den = math.lcm(du, dv)
    return Lattice((pu * (den // du), pv * (den // dv)), den)


def rho(u: GridPLConvex, v: GridPLConvex):
    """integral (hi - lo) dMA(lo) for a comparable pair, symmetrized.

    Dominates d on a common sector and contracts under envelope projection.
    """
    if not is_leq(v, u):
        if not is_leq(u, v):
            raise NotComparable("rho needs a pointwise-ordered pair")
        u, v = v, u
    return rat(*_pairing(u, v, v))


def abs_diff_pairing(u: GridPLConvex, v: GridPLConvex):
    """integral |u - v| d(MA(u) + MA(v)); the two-sided comparison quantity."""
    total = ZERO
    for w in (u, v):
        (a, ra), (b, rb), den = _pair_on(u, v, w.grid)
        mu = monge_ampere(w)
        total += rat(sum(abs(x * ra - y * rb) * m for x, y, m in zip(a, b, mu._num)), den * mu._den)
    return total


def normalize(mu: AtomicMeasure) -> AtomicMeasure:
    total = sum(mu._num)
    if total == 0:
        raise NotNormalized("cannot normalize a zero measure")
    return AtomicMeasure(mu.grid, Lattice(mu._num, total))


def entropy(nu: AtomicMeasure, mu: AtomicMeasure) -> float:
    """Relative entropy sum nu_i log(nu_i / mu_i); +inf off mu's support.

    The only float-valued quantity in the package: ratios stay exact
    rationals until the final log.
    """
    if nu.grid != mu.grid:
        raise GridMismatch("entropy needs measures on one grid")
    if nu.total != 1 or mu.total != 1:
        raise NotNormalized(
            "entropy needs probability measures, got totals %s and %s"
            % (rat_str(nu.total), rat_str(mu.total))
        )
    acc = 0.0
    for n, m in zip(nu.masses, mu.masses):
        if n == 0:
            continue
        if m == 0:
            return math.inf
        q = n / m
        try:
            log = math.log(float(q))
        except (OverflowError, ValueError):  # q lies beyond the float range
            log = math.log(int(q.numerator)) - math.log(int(q.denominator))
        acc += float(n) * log
    return acc


def is_nondegenerate_reference(reference: GridPLConvex) -> bool:
    """Spans the polytope and charges every node, so entropies stay finite."""
    return reference._ends == reference.grid._poly and all(
        m > 0 for m in monge_ampere(reference)._num
    )


# --- inequality checks ------------------------------------------------------


def check_comparison_principle(u: GridPLConvex, v: GridPLConvex) -> Report:
    """MA(u)({v < u}) <= MA(v)({v < u}) for u at least as singular as v."""
    if not more_singular(u, v):
        raise PreconditionViolated("comparison principle needs u at least as singular as v")
    u, v = align(u, v)  # the witnesses are node indices on the union grid, now u's
    mu, mv = monge_ampere(u), monge_ampere(v)
    (a, ra), (b, rb), _ = _pair_on(u, v, u.grid)
    inside = [i for i, (x, y) in enumerate(zip(a, b)) if x * ra > y * rb]
    lhs = rat(sum(mu._num[i] for i in inside), mu._den)
    rhs = rat(sum(mv._num[i] for i in inside), mv._den)
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
    p, *ws = align(p, *bounds)  # the witnesses are node indices on the union grid, now p's
    mws = [monge_ampere(w) for w in ws]
    reads = [_pair_on(p, w, p.grid) for w in ws]
    contact = [[i for i, (x, y) in enumerate(zip(a, b)) if x * ra == y * rb] for (a, ra), (b, rb), _ in reads]
    den = math.lcm(*(mw._den for mw in mws))
    bound = [0] * len(p._num)  # over den
    for mw, nodes in zip(mws, contact):
        r = den // mw._den
        for i in nodes:
            bound[i] += mw._num[i] * r
    mp = monge_ampere(p)
    bad = [i for i, (m, b) in enumerate(zip(mp._num, bound)) if m * den > b * mp._den]
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
