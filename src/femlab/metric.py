"""The distance d and the chain sums of the comparison functional rho.

d(u, v) = E(u) + E(v) - 2 E(rooftop(u, v)) on the sector of a level psi,
its context as for E.  Values are exact rationals, so the metric axioms,
the Pythagorean decomposition and the chain-sum rate are checked with ==.
rho and the other Monge-Ampere pairings are the kernel's (``measures``);
this layer reads potentials only through the kernel's public names.
"""

from __future__ import annotations

import math

from ._rational import ONE, ZERO, rat
from .errors import BadExponent, EmptyFamily, NotComparable
from .energy import energy
from .grid_convex import GridPLConvex, ModelEnvelope, affine_combine, align, is_leq, rooftop, sup_diff
from .measures import abs_diff_pairing, pairings, rho
from .report import Report


def double_inequality_constant(n: int):
    """1 / (3 * 2^(n+2) * (n+1)); equals 1/48 in the line model n=1."""
    if type(n) is not int or n < 1:
        raise BadExponent("dimension must be a positive integer")
    return rat(1, 3 * 2 ** (n + 2) * (n + 1))


_LINE_CONSTANT = double_inequality_constant(1)


def dist(psi: ModelEnvelope, u: GridPLConvex, v: GridPLConvex):
    """d(u, v), exact and non-negative; zero iff u == v when the mass is positive.

    For u <= v the rooftop is u itself, so d(u, v) = E(v) - E(u) (Darvas 2015):
    an ordered pair, on any grids, costs its two memoized energies.
    """
    eu, ev = energy(psi, u), energy(psi, v)  # each checks the sector before the rooftop
    if is_leq(u, v):
        return ev - eu
    if is_leq(v, u):
        return eu - ev
    return eu + ev - 2 * energy(psi, rooftop(u, v))


def _chain_sums(psi: ModelEnvelope, u: GridPLConvex, v: GridPLConvex, steps) -> list:
    """(N, chain_rho(psi, u, v, N)) for each N in steps, each link built once.

    The link at t = j/N is keyed by the reduced ints (j, N), so a t shared
    by several N is one potential, and t = 0 and t = 1 are the aligned
    inputs themselves.  The links live only for this call.
    """
    steps = tuple(steps)
    if not steps:
        raise ValueError("no chain lengths given")
    for big_n in steps:
        if type(big_n) is not int or big_n < 1:
            raise ValueError("chain length must be a positive integer")
    psi.require_in_sector(u)
    psi.require_in_sector(v)
    u, v = align(u, v)
    if not (is_leq(v, u) or is_leq(u, v)):
        raise NotComparable("chain_rho needs a pointwise-ordered pair")
    links = {(0, 1): v, (1, 1): u}
    rows = []
    for big_n in steps:
        chain = []
        for j in range(big_n + 1):
            g = math.gcd(j, big_n)
            key = (j // g, big_n // g)
            if key not in links:
                links[key] = affine_combine(rat(*key), u, v)
            chain.append(links[key])
        rows.append((big_n, sum(map(rho, chain, chain[1:]), ZERO)))
    return rows


def chain_rho(psi: ModelEnvelope, u: GridPLConvex, v: GridPLConvex, big_n: int):
    """Sum of rho along the affine chain w_j = (j/N) u + ((N-j)/N) v.

    Exact; always >= dist(psi, u, v) with defect O(1/N).  The links come
    from the helper that ``chain_defect_report`` shares, for this one N.
    """
    return _chain_sums(psi, u, v, (big_n,))[0][1]


def chain_defect_report(psi: ModelEnvelope, hi: GridPLConvex, lo: GridPLConvex, steps) -> Report:
    """The chain defect law: chain_rho(N) - d == gap / 2N for each N, exactly.

    gap = I(lo) - I(hi) with I(w) = integral (hi - lo) dMA(w), the two
    pairings of the energy difference.  lhs is d, rhs the gap; one row per
    N.  The chains of all N share their links: one per distinct t = j/N.
    """
    d = dist(psi, hi, lo)  # checks both sectors
    (i_hi, i_lo), den = pairings(hi, lo)
    gap = rat(i_lo - i_hi, den)
    rows, passed = [], True
    for n, value in _chain_sums(psi, hi, lo, steps):
        defect = value - d
        rows.append({"N": n, "chain": value, "defect": defect})
        passed = passed and defect >= 0 and defect * (2 * n) == gap
    return Report(name="chain_defect_law", passed=passed, lhs=d, rhs=gap, witnesses={"rows": rows})


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
