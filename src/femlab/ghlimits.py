"""Finite metric spaces, correspondences, and the two limit experiments.

Distances are exact rationals, so distortion tables, the nested-schedule
convergence rows, and the direct-limit identities are all computed and
compared without tolerances; the only float in sight is the convergence
threshold a caller may impose on the last row.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge

from ._rational import ZERO, lattice, rat
from .bigspace import BigSpace
from .errors import NotTotal, ScheduleInvalid, TooLarge, ValidationError
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


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Pseudometric space on the points 0..n-1, given by its exact distance matrix.

    Distinct points at distance zero are allowed (projections collapse);
    a square matrix, zero diagonal, symmetry, and the triangle inequality
    are enforced on ``_ints``: the matrix as ints, and their one denominator.
    """

    matrix: tuple

    def __post_init__(self):
        matrix = tuple(tuple(rat(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", matrix)
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValidationError("distance matrix shape is not square")
        nums, den = lattice([v for row in matrix for v in row])
        m = tuple(nums[i * n:(i + 1) * n] for i in range(n))
        object.__setattr__(self, "_ints", (m, den))
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
                for k in range(n):
                    if m[i][j] > m[i][k] + m[j][k]:
                        raise ValidationError(
                            "triangle inequality fails at (%d, %d, %d)" % (i, j, k)
                        )

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


@dataclass(frozen=True)
class Correspondence:
    """Relation between two spaces, total on both sides."""

    x: FiniteMetricSpace
    y: FiniteMetricSpace
    pairs: tuple

    def __post_init__(self):
        pairs = tuple(sorted(set((int(a), int(b)) for a, b in self.pairs)))
        object.__setattr__(self, "pairs", pairs)
        for a, b in pairs:
            if not (0 <= a < self.x.size and 0 <= b < self.y.size):
                raise ValidationError("relation pair (%d, %d) out of range" % (a, b))
        left = {a for a, _ in pairs}
        right = {b for _, b in pairs}
        if len(left) != self.x.size or len(right) != self.y.size:
            raise NotTotal("relation must cover both spaces")


def identity_correspondence(x: FiniteMetricSpace, y: FiniteMetricSpace) -> Correspondence:
    if x.size != y.size:
        raise NotTotal("pointwise matching needs equal sizes")
    return Correspondence(x, y, tuple((i, i) for i in range(x.size)))


def distortion(rel: Correspondence):
    """max |d_x - d_y| over related pairs of pairs, on ints over dx * dy."""
    (xm, dx), (ym, dy) = rel.x._ints, rel.y._ints
    worst = 0
    pairs = rel.pairs
    for a in range(len(pairs)):
        i, j = pairs[a]
        for k, l in pairs[a:]:
            gap = abs(xm[i][k] * dy - ym[j][l] * dx)
            if gap > worst:
                worst = gap
    return rat(worst, dx * dy)


def gh_upper(rel: Correspondence):
    return distortion(rel) / 2


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
    best = int(distortion(Correspondence(x, y, best_pairs)) * dx * dy)
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

    For each cap, filter the candidates, project the kept members to every
    level and to the limit, and record the distortion of the match-by-index
    correspondence.  Returns (rows, report); rows carry exact rationals.
    The reference is always included, so each level's own envelope point is
    a member of every space the table compares.  Each cap keeps a subset of
    the widest cap's members, in order, so one ``BigSpace`` serves all caps.
    """
    if family.direction != "decreasing":
        raise ScheduleInvalid("the convergence experiment needs a decreasing schedule")
    caps = list(caps)
    if not caps:
        raise ScheduleInvalid("the cap schedule is empty")
    reference = family.reference
    pool = [reference, *candidates]
    space = BigSpace(family, entropy_cap_filter(pool, max(caps), max(caps), reference))
    rows = []
    monotone = True
    finals = []
    for cap in caps:
        kept = entropy_cap_filter(pool, cap, cap, reference)
        if not kept.members:
            raise ScheduleInvalid("cap %s keeps no candidates" % cap)
        widest = iter(enumerate(space.generator.members))
        index = [next(i for i, w in widest if w is u) for u in kept.members]
        spaces = [
            FiniteMetricSpace(
                tuple(tuple(ZERO if i == j else space.pair_dist(k, i, j) for j in index) for i in index)
            )
            for k in range(space.level_count)
        ]
        previous = None
        for k in range(len(family.levels)):
            value = distortion(identity_correspondence(spaces[k], spaces[-1]))
            rows.append({"cap": cap, "level": k, "distortion": value, "members": len(kept)})
            if previous is not None and value > previous:
                monotone = False
            previous = value
        finals.append(previous)
    passed = monotone and all(float(v) < tolerance for v in finals)
    report = Report(
        name="nested_family_distortions",
        passed=passed,
        lhs=max(finals),
        rhs=rat(0),
        witnesses={
            "monotone": monotone,
            "finals": finals,
            "tolerance": tolerance,
            "rows": len(rows),
        },
    )
    return rows, report


def direct_limit_check(family: ModelFamily, generator: SampledFamily, schedule=(1, 2, 4, 8, 16)) -> Report:
    """The three target laws of the limit construction, on one generator.

    (a) all connecting projections are 1-Lipschitz, exactly;
    (b) projecting to a deeper level then to the limit equals projecting
        straight to the limit, as PL data;
    (c) for each limit-level point, the clipped approximants converge to
        it with exactly stabilizing distances.
    """
    if family.direction != "decreasing":
        raise ScheduleInvalid("the limit experiment needs a decreasing schedule")
    if not schedule:
        raise ScheduleInvalid("the density schedule is empty")
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
        [space.level_dist(limit, u, density_approximant(family.limit, u, j)) for j in schedule]
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
