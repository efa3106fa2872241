"""The distance d, the comparison functional rho, and its chain sums.

d(u, v) = E(u) + E(v) - 2 E(rooftop(u, v)) on the sector of a level psi,
its context as for E.  Values are exact rationals, so the metric axioms,
the Pythagorean decomposition and the chain-sum rate are checked with ==.
"""

from __future__ import annotations

import math

from ._rational import ONE, ZERO, Lattice, rat
from .errors import BadExponent, EmptyFamily, NotComparable
from .energy import energy, energy_diff_report
from .grid_convex import (
    GridPLConvex,
    ModelEnvelope,
    _difference,
    affine_combine,
    align,
    is_leq,
    rooftop,
    sup_diff,
)
from .measures import _charged_sum, monge_ampere
from .report import Report


def double_inequality_constant(n: int):
    """1 / (3 * 2^(n+2) * (n+1)); equals 1/48 in the line model n=1."""
    if type(n) is not int or n < 1:
        raise BadExponent("dimension must be a positive integer")
    return rat(1, 3 * 2 ** (n + 2) * (n + 1))


_LINE_CONSTANT = double_inequality_constant(1)


def dist(psi: ModelEnvelope, u: GridPLConvex, v: GridPLConvex):
    """d(u, v), exact and non-negative; zero iff u == v when the mass is positive."""
    eu, ev = energy(psi, u), energy(psi, v)  # each checks the sector before the rooftop
    return eu + ev - 2 * energy(psi, rooftop(u, v))


def rho(u: GridPLConvex, v: GridPLConvex):
    """integral (hi - lo) dMA(lo) for a comparable pair, symmetrized.

    Dominates d on a common sector and contracts under envelope projection.
    """
    if is_leq(v, u):
        hi, lo = u, v
    elif is_leq(u, v):
        hi, lo = v, u
    else:
        raise NotComparable("rho needs a pointwise-ordered pair")
    a, b = align(hi, lo)
    return _charged_sum(_difference(a, b), monge_ampere(b))


def chain_rho(psi: ModelEnvelope, u: GridPLConvex, v: GridPLConvex, big_n: int):
    """Sum of rho along the affine chain w_j = (j/N) u + ((N-j)/N) v.

    Exact; always >= dist(psi, u, v) with defect O(1/N).
    """
    if type(big_n) is not int or big_n < 1:
        raise ValueError("chain length must be a positive integer")
    psi.require_in_sector(u)
    psi.require_in_sector(v)
    if not (is_leq(v, u) or is_leq(u, v)):
        raise NotComparable("chain_rho needs a pointwise-ordered pair")
    links = [affine_combine(rat(j, big_n), u, v) for j in range(big_n + 1)]
    acc = ZERO
    for w0, w1 in zip(links, links[1:]):
        acc += rho(w0, w1)
    return acc


def chain_defect_report(psi: ModelEnvelope, hi: GridPLConvex, lo: GridPLConvex, steps) -> Report:
    """The chain defect law: chain_rho(N) - d == gap / 2N for each N, exactly.

    gap = I(lo) - I(hi) with I(w) = integral (hi - lo) dMA(w), from the
    energy difference report.  lhs is d, rhs the gap; one row per N.
    """
    d = dist(psi, hi, lo)
    rep = energy_diff_report(psi, hi, lo)
    gap = rep.witnesses["int_against_ma_v"] - rep.witnesses["int_against_ma_u"]
    rows, passed = [], True
    for n in steps:
        value = chain_rho(psi, hi, lo, n)
        defect = value - d
        rows.append({"N": n, "chain": value, "defect": defect})
        passed = passed and defect >= 0 and defect * (2 * n) == gap
    return Report(name="chain_defect_law", passed=passed, lhs=d, rhs=gap, witnesses={"rows": rows})


def abs_diff_pairing(u: GridPLConvex, v: GridPLConvex):
    """integral |u - v| d(MA(u) + MA(v)); the two-sided comparison quantity."""
    a, b = align(u, v)
    nums, den = _difference(a, b)
    diff = Lattice(tuple(map(abs, nums)), den)
    return _charged_sum(diff, monge_ampere(a)) + _charged_sum(diff, monge_ampere(b))


def double_inequality_report(psi: ModelEnvelope, u: GridPLConvex, v: GridPLConvex) -> Report:
    """c_1 * integral |u-v| d(MA(u)+MA(v)) <= d(u,v) <= that integral, exactly."""
    d = dist(psi, u, v)
    pairing = abs_diff_pairing(u, v)
    lower = _LINE_CONSTANT * pairing
    return Report(
        name="double_inequality",
        passed=lower <= d <= pairing,
        lhs=d,
        rhs=pairing,
        witnesses={"lower": lower, "constant": _LINE_CONSTANT},
    )


def _check_exponents(n, s):
    if type(n) is not int or type(s) is not int or n < 1 or s < 0 or s > n:
        raise BadExponent("need integers n >= 1 and 0 <= s <= n")


def darboux_sum(n: int, s: int, big_n: int):
    """(1/N) * sum_{j<N} (j/N)^s ((N-j)/N)^(n-s), as one exact fraction."""
    _check_exponents(n, s)
    if type(big_n) is not int or big_n < 1:
        raise ValueError("partition size must be a positive integer")
    num = sum(j**s * (big_n - j) ** (n - s) for j in range(big_n))
    return rat(num, big_n ** (n + 1))


def darboux_limit(n: int, s: int):
    """The N -> infinity value 1 / (binom(n, s) * (n + 1))."""
    _check_exponents(n, s)
    return rat(1, math.comb(n, s) * (n + 1))


def estimate_sup_bound_constants(psi: ModelEnvelope, family):
    """Fit the smallest constants in V * sup(u - psi) <= A d(psi, u) + B.

    B is always 0: when V > 0, d(psi, u) = 0 forces u = psi, so V *
    sup(u - psi) = 0 there, and when V = 0 every term is 0.  A is the exact
    sweep maximum of V * sup(u - psi) / d(psi, u) over the members at
    positive distance (floored at 1).  This is an empirical fit over the
    given family, not a universal constant.  The bound is still checked on
    every member, those at distance zero included, together with the
    companion lower bound -d(psi, u) <= V * sup(u - psi).  Returns
    (A, B, report); the report names the binding member.
    """
    members = list(family)
    if not members:
        raise EmptyFamily("no potentials to fit constants against")
    psi_pot = psi.potential
    vol = psi.mass
    rows = []
    for i, u in enumerate(members):
        psi.require_in_sector(u)
        s = sup_diff(u, psi_pot)
        rows.append((i, vol * s, dist(psi, psi_pot, u)))
    a = ONE
    a_binding = None
    for i, vs, d in rows:
        if d > 0 and vs / d > a:
            a, a_binding = vs / d, i
    upper_ok = all(vs <= a * d for _, vs, d in rows)
    lower_ok = all(-d <= vs for _, vs, d in rows)
    report = Report(
        name="sup_bound_constants",
        passed=upper_ok and lower_ok,
        lhs=a,
        rhs=ZERO,
        witnesses={
            "binding_for_A": a_binding,
            "family_size": len(rows),
            "lower_bound_ok": lower_ok,
        },
    )
    return a, ZERO, report
