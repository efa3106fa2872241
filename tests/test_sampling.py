"""The seeded generators against the rational-arithmetic reference sampler."""

from __future__ import annotations

import random

import pytest

import oracles
from femlab import Grid, rat
from femlab.sampling import nondegenerate_reference, random_sector_potential, random_subinterval

GRIDS = [
    pytest.param(Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1)), id="5"),
    pytest.param(
        Grid(nodes=(rat(-3, 2), rat(-1, 3), 0, rat(2, 7), rat(5, 4), 3), polytope=(rat(-1, 3), rat(5, 2))),
        id="6mixed",
    ),
    pytest.param(Grid(nodes=tuple(rat(k, 32) for k in range(-128, 129)), polytope=(0, 1)), id="257"),
]


@pytest.mark.parametrize("grid", GRIDS)
def test_reference_matches_the_rational_oracle(grid):
    ref = nondegenerate_reference(grid)
    expected = oracles.reference_by_fractions(grid)
    assert ref == expected and ref.values == expected.values


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("grid", GRIDS)
def test_generators_match_the_rational_oracle_draw_for_draw(grid, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    sub = random_subinterval(rng, grid.polytope)
    assert sub == oracles.subinterval_by_fractions(ref_rng, grid.polytope)
    assert all(type(q) is type(rat(0)) for q in sub)
    assert rng.getstate() == ref_rng.getstate()
    # the polytope, a random subinterval, a point, and ends whose denominators are coprime to 8
    for interval in (grid.polytope, sub, (sub[0], sub[0]), (rat(1, 3), rat(5, 7))):
        for _ in range(3):
            u = random_sector_potential(rng, grid, interval)
            expected = oracles.sector_potential_by_fractions(ref_rng, grid, interval)
            assert u == expected and u.values == expected.values
            assert u.dual_domain() == expected.dual_domain()
            assert rng.getstate() == ref_rng.getstate()
