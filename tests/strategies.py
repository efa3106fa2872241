"""Hypothesis strategies for grids, intervals, and convex potentials."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from femlab import Grid, make_pl, rat

DENS = (1, 2, 3, 4, 6, 8)


def rationals(lo=-4, hi=4, max_denominator=8):
    return st.fractions(
        min_value=Fraction(lo), max_value=Fraction(hi), max_denominator=max_denominator
    ).map(rat)


def grids(max_nodes=6):
    """Small grids with distinct sorted rational nodes and polytope [0, 1]."""

    def build(xs):
        nodes = tuple(sorted(set(xs)))
        return Grid(nodes=nodes, polytope=(rat(0), rat(1)))

    return st.lists(rationals(-4, 4), min_size=2, max_size=max_nodes, unique=True).map(
        build
    )


def subintervals(polytope=(0, 1), max_denominator=8):
    lo, hi = rat(polytope[0]), rat(polytope[1])

    def build(a, b):
        a, b = (a, b) if a <= b else (b, a)
        if a == b:
            return (lo, hi)
        return (a, b)

    pts = rationals(lo, hi, max_denominator)
    return st.tuples(pts, pts).map(lambda ab: build(*ab))


@st.composite
def sector_potentials(draw, grid, interval=None, max_denominator=8):
    """Convex potentials whose end slopes are exactly the interval ends."""
    if interval is None:
        interval = grid.polytope
    lo, hi = rat(interval[0]), rat(interval[1])
    m = len(grid.nodes) - 1
    chords = sorted(
        draw(
            st.lists(
                st.fractions(
                    min_value=Fraction(int(lo.numerator), int(lo.denominator)),
                    max_value=Fraction(int(hi.numerator), int(hi.denominator)),
                    max_denominator=max_denominator,
                ),
                min_size=m,
                max_size=m,
            )
        )
    )
    base = draw(rationals(-2, 2, max_denominator))
    values = [base]
    for s, a, b in zip(chords, grid.nodes, grid.nodes[1:]):
        values.append(values[-1] + rat(s) * (b - a))
    return make_pl(grid, values, lo, hi)


def potentials_on(grid, max_denominator=8):
    """Full-polytope potentials on a fixed grid."""
    return sector_potentials(grid, grid.polytope, max_denominator)


@st.composite
def distance_matrices(draw, dens=(1, 2, 3, 5, 7), min_points=3, max_points=8, perturb=True):
    """Symmetric non-negative rational matrices with a zero diagonal.

    Shortest paths over random edge weights with the given denominators
    give a pseudometric; when ``perturb`` is set, about half the draws then
    move one symmetric pair up or down (never below zero), which may break
    the triangle inequality.
    """
    n = draw(st.integers(min_points, max_points))
    weight = st.builds(rat, st.integers(0, 12), st.sampled_from(dens))
    d = [[rat(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(weight)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    if perturb and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        d[i][j] = d[j][i] = max(rat(0), d[i][j] + draw(weight) - draw(weight))
    return tuple(tuple(row) for row in d)
