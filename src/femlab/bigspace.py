"""Cross-level quasi-distance and its shortest-path metrization.

Points live on the disjoint union of the family's sectors (levels plus the
limit).  The quasi-distance between points at nested levels is

    first term   d(lower point, projection of the upper point)
    sup term     max over a capped pool of the contraction defect
                 d_hi(a, b) - d_lo(P a, P b)
    volume term  V_hi - V_lo

evaluated exactly; the sup term is a finite-sample lower bound of the
corresponding supremum over the full capped set, and pools are drawn from
one shared generator so projection composition is exact.  The chained
distance is the shortest path in the complete graph over the queried
points, found with a standard nonnegative-weights search.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from ._rational import ZERO
from .errors import PreconditionViolated
from .families import ModelFamily, SampledFamily, member_cap
from .grid_convex import GridPLConvex, _contains, model_project, pl_equal
from .metric import dist
from .report import Report


@dataclass(frozen=True)
class BigPoint:
    """A potential at one level, with its least admitting cap.

    rep_index points into the shared generator at the member realizing the
    cap; None with an infinite cap means no sampled member projects here.
    """

    level: int
    potential: GridPLConvex
    rep_index: object
    cap: float


@dataclass(frozen=True)
class ChainResult:
    value: object
    path: tuple
    points: tuple
    edge_parts: tuple


class BigSpace:
    """A family with a shared generator and the one cache its queries share.

    Level indices run over the family levels, with one extra index for the
    limit envelope.  ``_cache`` holds every cross-level value, keyed by
    (kind, ...) with the potentials and points compared by value:
    projections, level distances, sup terms, quasi-distances and the points
    of generator members.  It lives and dies with the space.
    """

    def __init__(self, family: ModelFamily, generator: SampledFamily):
        self.family = family
        self.generator = generator
        self.envs = tuple(family.levels) + (family.limit,)
        self.caps = tuple(member_cap(g, family.reference) for g in generator.members)
        self.level_count = len(self.envs)
        self.limit_level = len(self.envs) - 1
        self._cache = {}

    def project(self, level: int, u: GridPLConvex) -> GridPLConvex:
        """model_project of u to a level, computed once per (level, u) value."""
        key = ("project", level, u)
        if key not in self._cache:
            self._cache[key] = model_project(self.envs[level], u)
        return self._cache[key]

    def level_dist(self, level: int, u: GridPLConvex, v: GridPLConvex):
        """dist on one level, computed once per (level, u, v) value, either order."""
        key = ("dist", level, u, v)
        if key not in self._cache:
            self._cache[key] = self._cache[("dist", level, v, u)] = dist(self.envs[level], u, v)
        return self._cache[key]

    def projection(self, level: int, i: int) -> GridPLConvex:
        return self.project(level, self.generator.members[i])

    def make_point(self, level: int, potential: GridPLConvex) -> BigPoint:
        if potential._ends != self.envs[level].potential._ends:
            raise PreconditionViolated("potential does not span the level's interval")
        best_cap, best_i = math.inf, None
        for k in range(len(self.generator.members)):
            if self.caps[k] < best_cap and pl_equal(self.projection(level, k), potential):
                best_cap, best_i = self.caps[k], k
        return BigPoint(level, potential, best_i, best_cap)

    def point_from_member(self, level: int, i: int) -> BigPoint:
        key = ("point", level, i)
        if key not in self._cache:
            self._cache[key] = self.make_point(level, self.projection(level, i))
        return self._cache[key]

    def pair_dist(self, level: int, i: int, j: int):
        return self.level_dist(level, self.projection(level, i), self.projection(level, j))

    def _sup_term(self, hi_level: int, lo_level: int, cap_limit: float):
        key = ("sup", hi_level, lo_level, cap_limit)
        if key not in self._cache:
            pool = [k for k, c in enumerate(self.caps) if c <= cap_limit]
            gaps = (
                self.pair_dist(hi_level, i, j) - self.pair_dist(lo_level, i, j)
                for a, i in enumerate(pool)
                for j in pool[a + 1:]
            )
            self._cache[key] = max((ZERO, *gaps))
        return self._cache[key]

    def quasi_parts(self, p: BigPoint, q: BigPoint):
        # ModelFamily nests any two of its levels, limit included
        qp, qq = self.envs[p.level].potential._ends, self.envs[q.level].potential._ends
        hi, lo = (p, q) if _contains(qp, qq) else (q, p)
        first = self.level_dist(lo.level, lo.potential, self.project(lo.level, hi.potential))
        sup_term = self._sup_term(hi.level, lo.level, max(p.cap, q.cap))
        dv = self.envs[hi.level].mass - self.envs[lo.level].mass
        return first, sup_term, dv

    def quasi(self, p: BigPoint, q: BigPoint):
        """The quasi-distance, exact; equals plain dist on a shared level."""
        key = ("quasi", p, q)
        if key not in self._cache:
            self._cache[key] = self._cache[("quasi", q, p)] = sum(self.quasi_parts(p, q), ZERO)
        return self._cache[key]

    def volume_gap(self, p: BigPoint, q: BigPoint):
        return abs(self.envs[p.level].mass - self.envs[q.level].mass)

    def chain(self, p: BigPoint, q: BigPoint, nodes=()) -> ChainResult:
        """Cheapest chain through the node pool; single edge bounds it above."""
        pts = [p, *nodes, q]
        target = len(pts) - 1
        best = {0: ZERO}
        prev = {}
        heap = [(ZERO, 0)]
        done = set()
        while heap:
            d0, i = heapq.heappop(heap)
            if i in done:
                continue
            done.add(i)
            if i == target:
                break
            for j in range(len(pts)):
                if j in done or j == i:
                    continue
                nd = d0 + self.quasi(pts[i], pts[j])
                if j not in best or nd < best[j]:
                    best[j] = nd
                    prev[j] = i
                    heapq.heappush(heap, (nd, j))
        path = [target]
        while path[-1] != 0:
            path.append(prev[path[-1]])
        path.reverse()
        parts = tuple(
            self.quasi_parts(pts[a], pts[b]) for a, b in zip(path, path[1:])
        )
        return ChainResult(
            value=best[target],
            path=tuple(path),
            points=tuple(pts[i] for i in path),
            edge_parts=parts,
        )


def default_node_pools(space: BigSpace, level: int):
    """One pool per other level, plus their union: the adversarial menu."""
    members = range(len(space.generator.members))
    per_level = [
        [space.point_from_member(k, i) for i in members]
        for k in range(space.level_count)
        if k != level
    ]
    if len(per_level) > 1:
        union = [pt for pool in per_level for pt in pool]
        return per_level + [union]
    return per_level


def level_restriction_check(space: BigSpace, level: int, member_indices) -> Report:
    """Chained distance must reproduce the level distance exactly.

    The single-edge chain already equals it, so the defect measures whether
    any multi-level detour through the default node pools undercuts; it
    must be exactly zero.
    """
    pts = [space.point_from_member(level, i) for i in member_indices]
    pools = default_node_pools(space, level)
    worst = ZERO
    worst_case = None
    negative = False
    checked = 0
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            exact = space.level_dist(level, pts[a].potential, pts[b].potential)
            for pi, pool in enumerate(pools):
                res = space.chain(pts[a], pts[b], pool)
                defect = exact - res.value
                checked += 1
                if defect < 0:
                    negative = True
                if abs(defect) > worst:
                    worst = abs(defect)
                    worst_case = {"pair": (a, b), "pool": pi, "chain": res.path}
    return Report(
        name="level_restriction",
        passed=(worst == 0) and not negative,
        lhs=worst,
        rhs=ZERO,
        witnesses={"checked": checked, "worst_case": worst_case, "chain_exceeded": negative},
    )
