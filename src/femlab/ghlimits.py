"""Finite metric spaces, correspondences, and the two limit experiments.

Distances are exact rationals, so distortion tables, the nested-schedule
convergence rows, and the direct-limit identities are all computed and
compared without tolerances; the only float in sight is the convergence
threshold a caller may impose on the last row.
"""

from __future__ import annotations

from operator import add, ge

from ._rational import ZERO, _Frozen, at_most, lattice, rat
from .bigspace import BigSpace
from .errors import EmptyFamily, NotTotal, ScheduleInvalid, TooLarge, ValidationError
from .families import (
    ModelFamily,
    SampledFamily,
    density_approximant,
    entropy_cap_filter,
)
from .grid_convex import pl_equal
from .metric import dist
from .report import Report

GH_EXACT_CAP = 5
DENSITY_SCHEDULE = (1, 2, 4, 8, 16)


class FiniteMetricSpace(_Frozen):
    """Pseudometric space on the points 0..n-1, given by its exact distance matrix.

    Distinct points at distance zero are allowed (projections collapse);
    a square matrix, zero diagonal, symmetry, and the triangle inequality
    are enforced on ``_ints``: the matrix as ints, and their one denominator.
    """

    __slots__ = ("matrix", "_ints", "_memo")
    _shown = ("matrix",)

    def __init__(self, matrix: tuple):
        self.__post_init__(matrix)

    def __post_init__(self, matrix):
        matrix = tuple(tuple(rat(v) for v in row) for row in matrix)
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValidationError("distance matrix shape is not square")
        nums, den = lattice([v for row in matrix for v in row])
        m = tuple(nums[i * n:(i + 1) * n] for i in range(n))
        self._set(matrix=matrix, _ints=(m, den), _memo={})
        for i in range(n):
            if m[i][i] != 0:
                raise ValidationError("nonzero diagonal at %d" % i)
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise ValidationError("asymmetry at (%d, %d)" % (i, j))
                if m[i][j] < 0:
                    raise ValidationError("negative distance at (%d, %d)" % (i, j))
        # Symmetric and non-negative, so the first failing (i, j, k) has i < j.
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] > min(map(add, m[i], m[j])):
                    k = next(k for k in range(n) if m[i][j] > m[i][k] + m[j][k])
                    raise ValidationError("triangle inequality fails at (%d, %d, %d)" % (i, j, k))

    @property
    def size(self) -> int:
        return len(self.matrix)

    def d(self, i: int, j: int):
        return self.matrix[i][j]


def space_from_potentials(psi, potentials) -> FiniteMetricSpace:
    """The exact distance matrix of the potentials; point i is potential i."""
    pots = list(potentials)
    matrix = [[ZERO] * len(pots) for _ in pots]
    for i in range(len(pots)):
        for j in range(i + 1, len(pots)):
            matrix[i][j] = matrix[j][i] = dist(psi, pots[i], pots[j])
    return FiniteMetricSpace(tuple(tuple(r) for r in matrix))


class Correspondence(_Frozen):
    """Relation between two spaces, total on both sides."""

    __slots__ = ("x", "y", "pairs", "_memo")
    _shown = ("x", "y", "pairs")

    def __init__(self, x: FiniteMetricSpace, y: FiniteMetricSpace, pairs: tuple):
        for a, b in pairs:
            if type(a) is not int or type(b) is not int:
                raise ValidationError("relation pair (%r, %r) must hold two ints" % (a, b))
        pairs = tuple(sorted(set((a, b) for a, b in pairs)))
        for a, b in pairs:
            if not (0 <= a < x.size and 0 <= b < y.size):
                raise ValidationError("relation pair (%d, %d) out of range" % (a, b))
        left = {a for a, _ in pairs}
        right = {b for _, b in pairs}
        if len(left) != x.size or len(right) != y.size:
            raise NotTotal("relation must cover both spaces")
        self._set(x=x, y=y, pairs=pairs, _memo={})


def identity_correspondence(x: FiniteMetricSpace, y: FiniteMetricSpace) -> Correspondence:
    if x.size != y.size:
        raise NotTotal("pointwise matching needs equal sizes")
    return Correspondence(x, y, tuple((i, i) for i in range(x.size)))


def _int_distortion(x: FiniteMetricSpace, y: FiniteMetricSpace, pairs) -> int:
    """max |d_x * dy - d_y * dx| over pairs of the related pairs: the distortion times dx * dy."""
    (xm, dx), (ym, dy) = x._ints, y._ints
    worst = 0
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[a:]:
            gap = abs(xm[i][k] * dy - ym[j][l] * dx)
            if gap > worst:
                worst = gap
    return worst


def distortion(rel: Correspondence):
    """max |d_x - d_y| over related pairs of pairs, exact."""
    return rat(_int_distortion(rel.x, rel.y, rel.pairs), rel.x._ints[1] * rel.y._ints[1])


def gh_exact_witness(x: FiniteMetricSpace, y: FiniteMetricSpace):
    """Minimal distortion over all correspondences, by branch and bound.

    Minimal total relations are unions of a map each way, so the search
    assigns a partner to every point of both spaces, pruning on the
    running maximum defect on ints.  Exponential; capped at GH_EXACT_CAP points.
    """
    if x.size > GH_EXACT_CAP or y.size > GH_EXACT_CAP:
        raise TooLarge("exhaustive search is capped at %d points" % GH_EXACT_CAP)
    nx, ny = x.size, y.size
    if (nx == 0) != (ny == 0):
        raise NotTotal("no relation covers an empty space and a nonempty one")
    (xm, dx), (ym, dy) = x._ints, y._ints
    seed = tuple((i, min(i, ny - 1)) for i in range(nx)) + tuple(
        (min(j, nx - 1), j) for j in range(ny)
    )
    best_pairs = tuple(sorted(set(seed)))
    best = _int_distortion(x, y, best_pairs)
    assigned = []

    def grow(slot, cur):
        nonlocal best, best_pairs
        if cur >= best:
            return
        if slot == nx + ny:
            best, best_pairs = cur, tuple(sorted(set(assigned)))
            return
        options = (
            [(slot, j) for j in range(ny)]
            if slot < nx
            else [(i, slot - nx) for i in range(nx)]
        )
        for pair in options:
            new = cur
            feasible = True
            for other in assigned:
                gap = abs(xm[pair[0]][other[0]] * dy - ym[pair[1]][other[1]] * dx)
                if gap > new:
                    new = gap
                    if new >= best:
                        feasible = False
                        break
            if feasible:
                assigned.append(pair)
                grow(slot + 1, new)
                assigned.pop()

    grow(0, 0)
    return rat(best, 2 * dx * dy), Correspondence(x, y, best_pairs)


def gh_exact(x: FiniteMetricSpace, y: FiniteMetricSpace):
    return gh_exact_witness(x, y)[0]


def nested_family_distortions(family: ModelFamily, candidates, caps, tolerance: float):
    """Distortion table of the canonical correspondences along the schedule.

    The candidates are filtered once, at the widest cap, into one
    ``BigSpace``; each cap's members are ``space.pool(cap)``, which is what
    filtering at that cap keeps, in order.  Row (cap, k) is the sup term
    ``space.sup_term(k, limit, cap)``: projections contract, so the largest
    gap d_k - d_limit over the pool's pairs is the distortion of the
    match-by-index correspondence between level k and the limit.  Each
    level's matrix over the widest pool is validated once as a
    ``FiniteMetricSpace``; every cap's matrix is a principal submatrix of
    it, so it satisfies the same axioms.  Returns (rows, report);
    rows carry exact rationals.  The reference is always included, so each
    level's own envelope point is in every space the table compares.
    """
    if family.direction != "decreasing":
        raise ScheduleInvalid("the convergence experiment needs a decreasing schedule")
    caps = list(caps)
    if not caps:
        raise ScheduleInvalid("the cap schedule is empty")
    reference = family.reference
    widest = max(caps)
    space = BigSpace(family, entropy_cap_filter([reference, *candidates], widest, widest, reference))
    for cap in caps:
        if not space.pool(cap):
            raise ScheduleInvalid("cap %s keeps no candidates" % cap)
    index = space.pool(widest)
    for k in range(space.level_count):
        FiniteMetricSpace(
            tuple(tuple(ZERO if i == j else space.pair_dist(k, i, j) for j in index) for i in index)
        )
    rows, finals, monotone = [], [], True
    for cap in caps:
        members = len(space.pool(cap))
        values = [space.sup_term(k, space.limit_level, cap) for k in range(len(family.levels))]
        rows += [
            {"cap": cap, "level": k, "distortion": v, "members": members}
            for k, v in enumerate(values)
        ]
        monotone = monotone and all(map(ge, values, values[1:]))
        finals.append(values[-1])
    return rows, Report(
        name="nested_family_distortions",
        passed=monotone and all(at_most(v, tolerance) for v in finals),
        lhs=max(finals),
        rhs=rat(0),
        witnesses={"monotone": monotone, "finals": finals, "tolerance": tolerance, "rows": len(rows)},
    )


def direct_limit_check(family: ModelFamily, generator: SampledFamily) -> Report:
    """The three target laws of the limit construction, on one generator.

    (a) all connecting projections are 1-Lipschitz, exactly;
    (b) projecting to a deeper level then to the limit equals projecting
        straight to the limit, as PL data;
    (c) for each limit-level point, the clipped approximants at the j of
        DENSITY_SCHEDULE converge to it with exactly stabilizing distances.

    A generator with no member is refused with EmptyFamily, since each law
    would hold over nothing.

    Its ``BigSpace`` shares the cache of every other space over the same
    family and generator, so projections and level distances a caller's
    space already holds are read, not recomputed.  The density gaps are
    read by plain ``dist``: each approximant is fresh and read once.
    """
    if family.direction != "decreasing":
        raise ScheduleInvalid("the limit experiment needs a decreasing schedule")
    if not generator.members:
        raise EmptyFamily("the limit experiment needs at least one generator member")
    space = BigSpace(family, generator)
    n, levels, limit = len(generator.members), space.level_count, space.limit_level
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    lipschitz_ok = all(
        space.pair_dist(j, a, b) <= space.pair_dist(k, a, b)
        for k in range(levels)
        for j in range(k + 1, levels)
        for a, b in pairs
    )
    compose_ok = all(
        pl_equal(space.project(limit, space.projection(k, a)), space.projection(limit, a))
        for k in range(limit)
        for a in range(n)
    )
    density_rows = [
        [dist(family.limit, u, density_approximant(family.limit, u, j)) for j in DENSITY_SCHEDULE]
        for u in (space.projection(limit, a) for a in range(n))
    ]
    density_ok = all(gaps[-1] == 0 and all(map(ge, gaps, gaps[1:])) for gaps in density_rows)
    return Report(
        name="direct_limit",
        passed=lipschitz_ok and compose_ok and density_ok,
        lhs=ZERO,
        rhs=ZERO,
        witnesses={
            "lipschitz": lipschitz_ok,
            "composition": compose_ok,
            "density": density_ok,
            "density_rows": density_rows,
            "members": len(generator.members),
            "levels": levels,
        },
    )
