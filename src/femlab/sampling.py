"""Seeded generators of random PL convex potentials, all exact rationals.

Slopes are drawn as sorted lattice fractions k/8 of the target interval and
base heights as eighths in [-2, 2], so a generated potential has dual domain
exactly that interval and every derived quantity stays exact.  Generators
take a `random.Random` instance; identical seeds give identical output.

The draws, `rng.randint` calls in a fixed order, are part of that
contract: a rational-arithmetic sampler with the same draws (the tests'
oracle) gives equal potentials.  From the draws each generator builds its
node values as ints over one denominator and hands them to `GridPLConvex`
as one `Lattice`, whose constructor reduces and checks them.
"""

from __future__ import annotations

from ._rational import Lattice, lattice, rat
from .grid_convex import Grid, GridPLConvex, pointwise_max, sup_diff

_DEN, _SHIFT = 8, 2  # lattice 1/_DEN for slopes and heights; heights in [-_SHIFT, _SHIFT]


def _integrate(grid: Grid, start, slopes) -> tuple:
    """Node values from start, rising by slopes[i] times step i; ints in the grid's node units."""
    xs = grid._xs
    values = [start]
    for s, x0, x1 in zip(slopes, xs, xs[1:]):
        values.append(values[-1] + s * (x1 - x0))
    return tuple(values)


def nondegenerate_reference(grid: Grid) -> GridPLConvex:
    """Reference with a strictly positive slope jump at every node.

    Chord slopes interpolate the polytope linearly in the piece midpoints,
    so entropy against this reference is finite for every full potential.
    """
    (a, b), pden = grid._poly
    xs = grid._xs
    x0, width = xs[0], 2 * (xs[-1] - xs[0])
    # chord i is (a * width + (b - a) * (xs[i] + xs[i + 1] - 2 x0)) / (pden * width)
    chords = [a * width + (b - a) * (lo + hi - 2 * x0) for lo, hi in zip(xs, xs[1:])]
    values = Lattice(_integrate(grid, 0, chords), pden * width * grid._scale)
    return GridPLConvex(grid, values, grid._poly)


def random_sector_potential(rng, grid: Grid, interval) -> GridPLConvex:
    """Random potential with dual domain exactly `interval`.

    Chord slopes are lo + span * k/_DEN with k drawn sorted, end slopes are
    the interval ends; values integrate the chords from a random base
    height in [-_SHIFT, _SHIFT].
    """
    ends = lattice(interval)
    (lo, hi), den = ends
    pieces = len(grid._xs) - 1
    ks = sorted(rng.randint(0, _DEN) for _ in range(pieces))
    base = rng.randint(-_SHIFT * _DEN, _SHIFT * _DEN)
    # over _DEN * den * scale: chord k is (_DEN * lo + (hi - lo) * k) / (_DEN * den)
    chords = [_DEN * lo + (hi - lo) * k for k in ks]
    values = Lattice(_integrate(grid, base * den * grid._scale, chords), _DEN * den * grid._scale)
    return GridPLConvex(grid, values, ends)


def random_ordered_pair(rng, grid: Grid, interval):
    """(hi, lo) with hi >= lo pointwise, both with dual domain `interval`."""
    lo_pot = random_sector_potential(rng, grid, interval)
    other = random_sector_potential(rng, grid, interval)
    return pointwise_max(lo_pot, other), lo_pot


def random_candidates(rng, grid: Grid, reference: GridPLConvex, count: int):
    """Full-polytope potentials, each shifted so sup(u - reference) == 0: the raw family material."""
    us = [random_sector_potential(rng, grid, grid._poly) for _ in range(count)]
    return [u.shift(-sup_diff(u, reference)) for u in us]


def random_subinterval(rng, polytope):
    """Random non-degenerate rational subinterval of the polytope."""
    (lo, hi), den = lattice(polytope)
    while True:
        a, b = sorted(rng.randint(0, _DEN) for _ in range(2))
        if a < b:
            return (rat(_DEN * lo + (hi - lo) * a, _DEN * den), rat(_DEN * lo + (hi - lo) * b, _DEN * den))
