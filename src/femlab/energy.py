"""Monge-Ampere energy relative to a singularity level.

For a level psi (a ``ModelEnvelope``, the one context of E and of d) and
a potential u with the same dual domain,

    E(u) = 1/2 [ integral (u - psi) dMA(u) + integral (u - psi) dMA(psi) ]

which is the dimension-one trapezoid of the mixed-measure sum.  Everything
here is an exact rational; identities that the energy satisfies (difference
form, sandwich bounds) are emitted as reports with both sides included.
"""

from __future__ import annotations

from ._rational import HALF
from .grid_convex import GridPLConvex, ModelEnvelope, is_leq
from .measures import _pairings
from .report import Report


def energy(psi: ModelEnvelope, u: GridPLConvex):
    """E(u) relative to the level psi, exact, computed once per (psi, u).

    The potential must lie in the sector (same dual domain as psi); grids
    may differ by refinement and are aligned losslessly.  u's memo keys the
    energy by the level's value, so equal levels share it.
    """
    psi.require_in_sector(u)
    memo = u._memo
    if psi in memo:
        return memo[psi]
    iu, ipsi = _pairings(u, psi.potential)
    memo[psi] = e = HALF * (iu + ipsi)
    return e


def energy_diff_report(psi: ModelEnvelope, u: GridPLConvex, v: GridPLConvex) -> Report:
    """Difference identity plus the sandwich bounds, all exact.

    identity:  E(u) - E(v) == 1/2 [ I(u) + I(v) ]   with I(w) = int (u-v) dMA(w)
    sandwich:  I(u) <= E(u) - E(v) <= I(v)
    refined (only when u <= v):  E(u) - E(v) <= 1/2 I(u)
    """
    psi.require_in_sector(u)
    psi.require_in_sector(v)
    iu, iv = _pairings(u, v)
    lhs = energy(psi, u) - energy(psi, v)
    identity_ok = lhs == HALF * (iu + iv)
    sandwich_ok = iu <= lhs <= iv
    refined_applies = is_leq(u, v)
    refined_ok = (not refined_applies) or lhs <= HALF * iu
    return Report(
        name="energy_difference",
        passed=identity_ok and sandwich_ok and refined_ok,
        lhs=lhs,
        rhs=HALF * (iu + iv),
        witnesses={
            "int_against_ma_u": iu,
            "int_against_ma_v": iv,
            "identity": identity_ok,
            "sandwich": sandwich_ok,
            "refined_applies": refined_applies,
            "refined": refined_ok,
        },
    )
