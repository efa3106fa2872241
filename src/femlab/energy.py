"""Monge-Ampere energy relative to a singularity level.

For a level psi and a potential u with the same dual domain,

    E(u) = 1/2 [ integral (u - psi) dMA(u) + integral (u - psi) dMA(psi) ]

which is the dimension-one trapezoid of the mixed-measure sum.  Everything
here is an exact rational; identities that the energy satisfies (difference
form, sandwich bounds) are emitted as reports with both sides included.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import HALF
from .errors import SingularityMismatch
from .grid_convex import GridPLConvex, ModelEnvelope, _interval_str, is_leq
from .measures import _pairings
from .report import Report


@dataclass(frozen=True, eq=False)
class EnergyContext:
    """A level psi: the one context of E and of d.

    The sector is psi's dual domain; ``energy``, ``dist`` and every check
    built on them take this context.  Contexts compare by identity, so a
    potential's memo keeps one energy per context.  A degenerate sector
    (zero mass) is representable; on it the distance vanishes identically.
    """

    psi: ModelEnvelope

    @property
    def mass(self):
        return self.psi.mass

    @property
    def degenerate(self) -> bool:
        return self.psi.degenerate

    def require_in_sector(self, u: GridPLConvex):
        q = self.psi.potential._ends
        if u._ends != q:
            raise SingularityMismatch(
                "potential spans %s, sector needs %s" % (_interval_str(u._ends), _interval_str(q))
            )


def energy(ctx: EnergyContext, u: GridPLConvex):
    """E(u) relative to the context level, exact, computed once per (ctx, u).

    The potential must lie in the sector (same dual domain as psi); grids
    may differ by refinement and are aligned losslessly.
    """
    ctx.require_in_sector(u)
    memo = u._memo
    if ctx in memo:
        return memo[ctx]
    iu, ipsi = _pairings(u, ctx.psi.potential)
    memo[ctx] = e = HALF * (iu + ipsi)
    return e


def energy_diff_report(ctx: EnergyContext, u: GridPLConvex, v: GridPLConvex) -> Report:
    """Difference identity plus the sandwich bounds, all exact.

    identity:  E(u) - E(v) == 1/2 [ I(u) + I(v) ]   with I(w) = int (u-v) dMA(w)
    sandwich:  I(u) <= E(u) - E(v) <= I(v)
    refined (only when u <= v):  E(u) - E(v) <= 1/2 I(u)
    """
    ctx.require_in_sector(u)
    ctx.require_in_sector(v)
    iu, iv = _pairings(u, v)
    lhs = energy(ctx, u) - energy(ctx, v)
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
