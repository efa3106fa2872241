"""Monge-Ampere masses of PL convex potentials and checks built on them.

In this one-dimensional model the Monge-Ampere measure of a potential is
purely atomic: the mass at a node is the slope jump there, counting the end
slopes as the slopes beyond the first and last node.  Total mass is the
length of the dual domain, so it never exceeds the polytope length for a
measure that arises from a potential.  Relative entropy is the single place
floats appear; it reads exact masses and converts only at the final log.

Masses are kept as ints over one reduced denominator, like potential
values.  Every Monge-Ampere pairing lives here and is an int dot product:
``_charged_sum`` pairs node values with a measure; ``pairings`` pairs
u - v with MA(u) and MA(v), each on the nodes of its measure, for the
energy, and returns both as ints over one unreduced denominator, so the
energy, the difference identity and the chain gap each build one rational
from them; ``rho`` is the second of ``pairings(hi, lo)`` for an ordered
pair, and ``abs_diff_pairing`` pairs |u - v| with MA(u) + MA(v).
The checks are the comparison principle and one contact-mass law,
MA(P) <= sum over w of 1_{P=w} MA(w), for the rooftop P(u, v) and the
model projection P[psi](u).
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
    _difference,
    _values_on,
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


def _charged_sum(values: Lattice, mu: AtomicMeasure):
    """integral of the node values against mu, one int dot product."""
    nums, den = values
    return rat(sum(map(mul, nums, mu._num)), den * mu._den)


def pairings(u: GridPLConvex, v: GridPLConvex) -> Lattice:
    """(integral (u - v) dMA(u), integral (u - v) dMA(v)) as ints over one denominator.

    Each pairing is an int dot product over the nodes of the measure that
    charges it, where ``_values_on`` reads the other potential.  Both are
    brought to one denominator, which is not reduced: a caller builds the
    one rational it needs from the ints.
    """
    if u.grid._poly != v.grid._poly:
        raise GridMismatch("potentials live over different polytopes")

    def pairing(w):  # integral (u - v) dMA(w) as (int, denominator)
        (a, ad), (b, bd), m = _values_on(u, w.grid), _values_on(v, w.grid), monge_ampere(w)
        return sum(map(mul, a, m._num)) * bd - sum(map(mul, b, m._num)) * ad, ad * bd * m._den

    (pu, du), (pv, dv) = pairing(u), pairing(v)
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
    (_, lo_pairing), den = pairings(u, v)
    return rat(lo_pairing, den)


def abs_diff_pairing(u: GridPLConvex, v: GridPLConvex):
    """integral |u - v| d(MA(u) + MA(v)); the two-sided comparison quantity."""
    a, b = align(u, v)
    nums, den = _difference(a, b)
    diff = Lattice(tuple(map(abs, nums)), den)
    return _charged_sum(diff, monge_ampere(a)) + _charged_sum(diff, monge_ampere(b))


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
    u, v = align(u, v)  # the witnesses are node indices on the union grid
    mu, mv = monge_ampere(u), monge_ampere(v)
    inside = [i for i, d in enumerate(_difference(u, v).nums) if d > 0]
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
    p, *ws = align(p, *bounds)  # the witnesses are node indices on the union grid
    mws = [monge_ampere(w) for w in ws]
    contact = [[i for i, d in enumerate(_difference(p, w).nums) if d == 0] for w in ws]
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
