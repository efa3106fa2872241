"""Cross-level quasi-distance and its shortest-path metrization.

Points live on the disjoint union of the family's sectors (levels plus the
limit).  The quasi-distance between points at nested levels is

    first term   d(lower point, projection of the upper point)
    sup term     max over a capped pool of the contraction defect
                 d_hi(a, b) - d_lo(P a, P b)
    volume term  V_hi - V_lo

evaluated exactly; the sup term is a finite-sample lower bound of the
corresponding supremum over the full capped set, and pools are drawn from
one shared generator so projection composition is exact.  That law,
P_lo(P_hi(u)) = P_lo(u), also makes the first term of two member points
the level distance of their members, read by index from the cache.
Projections contract, so the sup term is also the distortion of the
identity correspondence between the two levels on the pool, and each row
of the gh table (``nested_family_distortions``) is read from it.  The chained
distance is the shortest path in the complete graph over the queried
points, found by Dijkstra's dense array form: every pair is an edge, so a
list of tentative values and a scan for the least one replace a heap.  The
values are ints over one denominator, widened by an lcm when an edge needs
it, so the search adds and compares ints and builds one rational.
"""

from __future__ import annotations

import math

from ._rational import ZERO, _Frozen, rat
from .errors import PreconditionViolated
from .families import ModelFamily, SampledFamily, member_cap
from .grid_convex import GridPLConvex, model_project, more_singular, pl_equal
from .metric import dist
from .report import Report


class BigPoint(_Frozen):
    """A potential at one level, with its least admitting cap.

    rep_index points into the shared generator at the first member realizing
    the cap, an exact member_cap; None with an infinite cap means no sampled
    member projects here.
    """

    __slots__ = ("level", "potential", "rep_index", "cap", "_memo")
    _shown = ("level", "potential", "rep_index", "cap")

    def __init__(self, level: int, potential: GridPLConvex, rep_index, cap):
        self._set(level=level, potential=potential, rep_index=rep_index, cap=cap, _memo={})


class ChainResult(_Frozen):
    __slots__ = ("value", "path", "_memo")
    _shown = ("value", "path")

    def __init__(self, value, path: tuple):
        self._set(value=value, path=path, _memo={})


class BigSpace:
    """A family with a shared generator and the one cache its queries share.

    Member caps are read against the family's reference, which must be the
    generator's: members over another polytope fail that read with
    GridMismatch, and a generator over another reference is refused.

    Level indices run over the family levels, with one extra index for the
    limit envelope; every read of one goes through ``_env``, which refuses
    an index outside 0..limit_level.  ``_cache`` holds every cross-level
    value.  Values of potentials and points are keyed by (kind, ...) and
    compared by value: projections, level distances, sup terms,
    quasi-distances, volume gaps and the points of generator members.
    Generator members are also keyed by index: the projection of member i
    to a level by (level, i), and the level distance of members i and j by
    (level, min(i, j), max(i, j)).  These index entries are filled through
    the value-keyed ones, so equal projections still share one distance,
    and a cache hit hashes no potential.  The cache belongs to the (family,
    generator) pair, not to the space: it is kept in the generator's memo
    under the family, so every space over that generator object and an
    equal family shares it, and it lives exactly as long as the generator.
    """

    def __init__(self, family: ModelFamily, generator: SampledFamily):
        self.caps = tuple(member_cap(g, family.reference) for g in generator.members)
        if generator.reference != family.reference:
            raise PreconditionViolated("generator and family have different references")
        self.family = family
        self.generator = generator
        self.envs = tuple(family.levels) + (family.limit,)
        self.level_count = len(self.envs)
        self.limit_level = len(self.envs) - 1
        self._cache = generator._memo.setdefault(("bigspace", family), {})

    def _env(self, level: int):
        """The envelope of a level: the one read of a level index, refused outside the space."""
        if 0 <= level <= self.limit_level:
            return self.envs[level]
        raise PreconditionViolated("level index %r is not in 0..%d" % (level, self.limit_level))

    def project(self, level: int, u: GridPLConvex) -> GridPLConvex:
        """model_project of u to a level, computed once per (level, u) value."""
        key = ("project", level, u)
        if key not in self._cache:
            self._cache[key] = model_project(self._env(level), u)
        return self._cache[key]

    def level_dist(self, level: int, u: GridPLConvex, v: GridPLConvex):
        """dist on one level, computed once per (level, u, v) value, either order."""
        key = ("dist", level, u, v)
        if key not in self._cache:
            self._cache[key] = self._cache[("dist", level, v, u)] = dist(self._env(level), u, v)
        return self._cache[key]

    def projection(self, level: int, i: int) -> GridPLConvex:
        """The projection of generator member i to a level; bad indices are refused."""
        key = (level, i)
        try:
            return self._cache[key]
        except KeyError:
            self._env(level)
            if i not in range(len(self.generator.members)):
                raise PreconditionViolated(
                    "member index %r is not in 0..%d" % (i, len(self.generator.members) - 1)
                ) from None
            u = self._cache[key] = self.project(level, self.generator.members[i])
            return u

    def make_point(self, level: int, potential: GridPLConvex) -> BigPoint:
        if potential.dual_domain() != self._env(level).Q:
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
        """The level distance of members i and j, one entry for either order."""
        key = (level, i, j) if i <= j else (level, j, i)
        try:
            return self._cache[key]
        except KeyError:
            d = self._cache[key] = self.level_dist(level, self.projection(level, i), self.projection(level, j))
            return d

    def pool(self, cap) -> list:
        """The one pool rule: indices of the members with member_cap <= cap, in order."""
        return [k for k, c in enumerate(self.caps) if c <= cap]

    def sup_term(self, hi_level: int, lo_level: int, cap_limit):
        """max(0, d_hi(a, b) - d_lo(P a, P b)) over pairs of pool(cap_limit), exact.

        Projections contract, so this is the identity correspondence's
        distortion between the two levels on that pool: a gh table row.
        """
        key = ("sup", hi_level, lo_level, cap_limit)
        if key not in self._cache:
            self._env(hi_level)
            self._env(lo_level)
            pool = self.pool(cap_limit)
            gaps = (
                self.pair_dist(hi_level, i, j) - self.pair_dist(lo_level, i, j)
                for a, i in enumerate(pool)
                for j in pool[a + 1:]
            )
            self._cache[key] = max((ZERO, *gaps))
        return self._cache[key]

    def _is_member(self, p: BigPoint) -> bool:
        """Whether p's potential is the projection of member p.rep_index to p's level."""
        i = p.rep_index
        return i in range(len(self.generator.members)) and p.potential == self.projection(p.level, i)

    def quasi_parts(self, p: BigPoint, q: BigPoint):
        """(first term, sup term, volume gap) of the quasi-distance, exact.

        The first term is d_lo(lo, P_lo(hi)).  A ModelFamily nests any two
        of its levels, limit included, so P_lo(P_hi(u)) = P_lo(u): when
        both points are member projections, the first term is the level
        distance of their members, read by index through ``pair_dist``.
        Any other point takes the value path.
        """
        pp, qq = self._env(p.level).potential, self._env(q.level).potential
        hi, lo = (p, q) if more_singular(qq, pp) else (q, p)
        if self._is_member(lo) and self._is_member(hi):
            first = self.pair_dist(lo.level, lo.rep_index, hi.rep_index)
        else:
            first = self.level_dist(lo.level, lo.potential, self.project(lo.level, hi.potential))
        return first, self.sup_term(hi.level, lo.level, max(p.cap, q.cap)), self.volume_gap(p, q)

    def quasi(self, p: BigPoint, q: BigPoint):
        """The quasi-distance, exact; equals plain dist on a shared level."""
        key = ("quasi", p, q)
        if key not in self._cache:
            first, sup, gap = self.quasi_parts(p, q)
            self._cache[key] = self._cache[("quasi", q, p)] = first + sup + gap
        return self._cache[key]

    def volume_gap(self, p: BigPoint, q: BigPoint):
        """|V_k - V_l| for the levels of p and q, computed once per level pair."""
        key = ("gap", p.level, q.level)
        if key not in self._cache:
            self._cache[key] = abs(self._env(p.level).mass - self._env(q.level).mass)
        return self._cache[key]

    def chain(self, p: BigPoint, q: BigPoint, nodes=()) -> ChainResult:
        """Cheapest chain through the node pool; single edge bounds it above.

        Positions index [p, *nodes, q].  Tentative values start at p's
        edges; each round settles the unsettled position with the least
        (value, position) and relaxes its edges, until q settles.  Among
        equal-cost paths the lower position settles first.
        """
        pts = [p, *nodes, q]
        target = len(pts) - 1
        best, prev, den = [0] * len(pts), [0] * len(pts), 1

        def edge(a, b):  # quasi(a, b) as an int over den, widening best first
            nonlocal den
            n, d = self.quasi(a, b).as_integer_ratio()
            if den % d:
                r = d // math.gcd(den, d)
                den *= r
                best[:] = [v * r for v in best]
            return n * (den // d)

        for k in range(1, len(pts)):
            best[k] = edge(p, pts[k])
        unsettled = list(range(1, len(pts)))
        while True:
            i = min(unsettled, key=best.__getitem__)
            if i == target:
                break
            unsettled.remove(i)
            for j in unsettled:
                nd = edge(pts[i], pts[j]) + best[i]  # the read first: it may widen best[i]
                if nd < best[j]:
                    best[j], prev[j] = nd, i
        path = [target]
        while path[-1] != 0:
            path.append(prev[path[-1]])
        return ChainResult(value=rat(best[target], den), path=tuple(reversed(path)))


def default_node_pools(space: BigSpace, level: int):
    """One pool per other level, plus their union: the adversarial menu.

    The level is read through ``_env``, so one outside the space is refused.
    """
    space._env(level)
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
