"""Seeded generators of random PL convex potentials, all exact rationals.

Slopes are drawn as sorted lattice fractions k/8 of the target interval and
base heights as eighths in [-2, 2], so a generated potential has dual domain
exactly that interval and every derived quantity stays exact.  Generators
take a `random.Random` instance; identical seeds give identical output.
"""

from __future__ import annotations

from ._rational import rat
from .grid_convex import Grid, GridPLConvex, make_pl, pointwise_max, sup_diff

_DEN, _SHIFT = 8, 2  # lattice 1/_DEN for slopes and heights; heights in [-_SHIFT, _SHIFT]


def nondegenerate_reference(grid: Grid) -> GridPLConvex:
    """Reference with a strictly positive slope jump at every node.

    Chord slopes interpolate the polytope linearly in the piece midpoints,
    so entropy against this reference is finite for every full potential.
    """
    a, b = grid.polytope
    x0, xm = grid.nodes[0], grid.nodes[-1]
    values = [rat(0)]
    for lo, hi in zip(grid.nodes, grid.nodes[1:]):
        s = a + (b - a) * (lo + hi - 2 * x0) / (2 * (xm - x0))
        values.append(values[-1] + s * (hi - lo))
    return make_pl(grid, values, a, b)


def random_sector_potential(rng, grid: Grid, interval) -> GridPLConvex:
    """Random potential with dual domain exactly `interval`.

    Chord slopes are lo + span * k/_DEN with k drawn sorted, end slopes are
    the interval ends; values integrate the chords from a random base
    height in [-_SHIFT, _SHIFT].
    """
    lo, hi = rat(interval[0]), rat(interval[1])
    span = hi - lo
    pieces = len(grid.nodes) - 1
    ks = sorted(rng.randint(0, _DEN) for _ in range(pieces))
    chords = [lo + span * rat(k, _DEN) for k in ks]
    base = rat(rng.randint(-_SHIFT * _DEN, _SHIFT * _DEN), _DEN)
    values = [base]
    for s, x0, x1 in zip(chords, grid.nodes, grid.nodes[1:]):
        values.append(values[-1] + s * (x1 - x0))
    return make_pl(grid, values, lo, hi)


def random_full_potential(rng, grid: Grid) -> GridPLConvex:
    """Random potential spanning the whole moment polytope."""
    return random_sector_potential(rng, grid, grid.polytope)


def random_normalized_potential(rng, grid: Grid, reference: GridPLConvex) -> GridPLConvex:
    """Full-polytope potential shifted so sup(u - reference) == 0."""
    u = random_full_potential(rng, grid)
    return u.shift(-sup_diff(u, reference))


def random_ordered_pair(rng, grid: Grid, interval):
    """(hi, lo) with hi >= lo pointwise, both with dual domain `interval`."""
    lo_pot = random_sector_potential(rng, grid, interval)
    other = random_sector_potential(rng, grid, interval)
    return pointwise_max(lo_pot, other), lo_pot


def random_candidates(rng, grid: Grid, reference: GridPLConvex, count: int):
    """List of normalized full-polytope potentials, the raw family material."""
    return [random_normalized_potential(rng, grid, reference) for _ in range(count)]


def random_subinterval(rng, polytope):
    """Random non-degenerate rational subinterval of the polytope."""
    lo, hi = rat(polytope[0]), rat(polytope[1])
    span = hi - lo
    while True:
        a, b = sorted(rng.randint(0, _DEN) for _ in range(2))
        if a < b:
            return (lo + span * rat(a, _DEN), lo + span * rat(b, _DEN))
