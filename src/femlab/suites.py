"""Seeded property suites, one JSON-ready record per check.

Every suite draws its material from one fixed five-node harness with a
nondegenerate reference, built once per process at first use, runs
`count` independent trials, and reports each property as an exact
rational comparison; identical seeds give identical records.  A suite is
one trial function `(rng, grid, reference)` yielding `(property, passed,
witness)` per check; `run_suite` owns the rest.
"""

from __future__ import annotations

import random
from functools import cache

from ._rational import rat
from .energy import energy, energy_diff_report
from .errors import GridMismatch, UnknownSuite, ValidationError
from .grid_convex import (
    Grid,
    affine_combine,
    check_reference,
    model_from_interval,
    model_project,
    pl_equal,
    pointwise_max,
    rooftop,
)
from .measures import (
    check_comparison_principle,
    check_model_mass_bound,
    check_rooftop_mass_bound,
    is_nondegenerate_reference,
)
from .metric import chain_defect_report, dist, double_inequality_report, rho
from .ghlimits import (
    distortion,
    gh_exact,
    identity_correspondence,
    space_from_potentials,
)
from .report import encode_value
from .sampling import (
    nondegenerate_reference,
    random_ordered_pair,
    random_sector_potential,
    random_subinterval,
)


def _metric_axioms(rng, grid, ref):
    interval = random_subinterval(rng, grid.polytope)
    psi = model_from_interval(grid, interval, ref)
    u = random_sector_potential(rng, grid, interval)
    v = random_sector_potential(rng, grid, interval)
    w = random_sector_potential(rng, grid, interval)
    duv = dist(psi, u, v)
    yield "symmetry", duv == dist(psi, v, u), {"d": duv}
    yield "identity", dist(psi, u, u) == 0 and (duv == 0) == pl_equal(u, v), {"d": duv}
    duw = dist(psi, u, w)
    yield "triangle", duw <= duv + dist(psi, v, w), {"d_uw": duw}
    p = rooftop(u, v)
    yield "pythagoras", duv == dist(psi, u, p) + dist(psi, v, p), {"d": duv}
    mid = pointwise_max(u, v)
    top = pointwise_max(mid, w)
    d_low_high = dist(psi, u, top)
    split = dist(psi, u, mid) + dist(psi, mid, top)
    yield "order_additivity", d_low_high == split, {"d_low_high": d_low_high}
    yield "rooftop_lipschitz", dist(psi, rooftop(u, w), rooftop(v, w)) <= duv, {"d": duv}
    drep = double_inequality_report(psi, u, v)
    yield "double_inequality", drep.passed, {"d": drep.lhs, "pairing": drep.rhs}


def _energy_identities(rng, grid, ref):
    interval = random_subinterval(rng, grid.polytope)
    psi = model_from_interval(grid, interval, ref)
    u = random_sector_potential(rng, grid, interval)
    v = random_sector_potential(rng, grid, interval)
    rep = energy_diff_report(psi, u, v)
    yield "difference_identity", rep.passed, {"lhs": rep.lhs}
    e_mid = energy(psi, affine_combine(rat(1, 2), u, v))
    e_u = energy(psi, u)
    yield "concavity", 2 * e_mid >= e_u + energy(psi, v), {"mid": e_mid}
    c = rat(rng.randint(1, 8), 4)
    yield "translation", energy(psi, u.shift(-c)) == e_u - c * psi.mass, {"c": c}
    yield "monotone", energy(psi, pointwise_max(u, v)) >= e_u, {"e_u": e_u}


def _measure_bounds(rng, grid, ref):
    u = random_sector_potential(rng, grid, grid.polytope)
    v = random_sector_potential(rng, grid, grid.polytope)
    comp = check_comparison_principle(u, pointwise_max(u, v))
    yield "comparison_principle", comp.passed, {"lhs": comp.lhs, "rhs": comp.rhs}
    yield "rooftop_mass", check_rooftop_mass_bound(u, v).passed, {}
    psi = model_from_interval(grid, random_subinterval(rng, grid.polytope), ref)
    yield "model_mass", check_model_mass_bound(psi, u).passed, {"Q": list(psi.Q)}


def _contraction(rng, grid, ref):
    q1 = random_subinterval(rng, grid.polytope)
    q2 = random_subinterval(rng, q1)
    psi1 = model_from_interval(grid, q1, ref)
    psi2 = model_from_interval(grid, q2, ref)
    u = random_sector_potential(rng, grid, q1)
    v = random_sector_potential(rng, grid, q1)
    pu, pv = model_project(psi2, u), model_project(psi2, v)
    upper, lower = dist(psi1, u, v), dist(psi2, pu, pv)
    yield "lipschitz", lower <= upper, {"upper": upper, "lower": lower}
    again = dist(psi2, model_project(psi2, pu), model_project(psi2, pv))
    yield "idempotent_equality", again == lower, {}
    hi, lo = random_ordered_pair(rng, grid, q1)
    r = rho(hi, lo)
    yield "rho_contracts", rho(model_project(psi2, hi), model_project(psi2, lo)) <= r, {"rho": r}


def _chains(rng, grid, ref):
    interval = random_subinterval(rng, grid.polytope)
    psi = model_from_interval(grid, interval, ref)
    hi, lo = random_ordered_pair(rng, grid, interval)
    rep = chain_defect_report(psi, hi, lo, (1, 2, 4, 8))
    yield "chain_defect_law", rep.passed, {"d": rep.lhs, "gap": rep.rhs}


def _gh(rng, grid, ref):
    interval = random_subinterval(rng, grid.polytope)
    psi = model_from_interval(grid, interval, ref)
    xs = [random_sector_potential(rng, grid, interval) for _ in range(3)]
    ys = [random_sector_potential(rng, grid, interval) for _ in range(3)]
    space_x = space_from_potentials(psi, xs)
    space_y = space_from_potentials(psi, ys)
    dis = distortion(identity_correspondence(space_x, space_y))
    exact, upper = gh_exact(space_x, space_y), dis / 2
    yield "gh_upper_bound", exact <= upper, {"exact": exact, "upper": upper}
    yield "gh_self_zero", gh_exact(space_x, space_x) == 0, {}
    yield "distortion_nonnegative", dis >= 0, {}


_TRIALS = {
    "metric_axioms": _metric_axioms,
    "energy_identities": _energy_identities,
    "measure_bounds": _measure_bounds,
    "contraction": _contraction,
    "chains": _chains,
    "gh": _gh,
}

SUITES = tuple(_TRIALS)


@cache
def _harness():
    """The built-in five-node grid and its reference, built once per process at first use."""
    grid = Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1))
    return grid, nondegenerate_reference(grid)


def _checked_reference(grid, reference):
    """The reference, if it lives on `grid`, spans its polytope and charges every node."""
    check_reference(grid, reference)
    if reference.grid != grid:
        raise GridMismatch("reference lives on another grid")
    if not is_nondegenerate_reference(reference):
        raise ValidationError("reference is degenerate: its slope measure must charge every node")
    return reference


def run_suite(name: str, seed: int, count: int, grid=None, reference=None):
    """(records, summary) for one named suite; deterministic in the seed.

    With no grid the suite runs on the built-in five-node harness, built
    once per process; a given grid gets its own reference unless one is
    passed, which is checked as a scenario file's is.  A seed that is not
    an int or a negative count raises ValidationError; count 0 gives the
    summary alone.
    """
    if name not in _TRIALS:
        raise UnknownSuite("no suite named %r; known: %s" % (name, ", ".join(SUITES)))
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValidationError("suite count must be a non-negative integer, got %r" % (count,))
    if type(seed) is not int:
        raise ValidationError("suite seed must be an integer, got %r" % (seed,))
    if grid is None and reference is None:
        grid, reference = _harness()
    else:
        grid = _harness()[0] if grid is None else grid
        reference = nondegenerate_reference(grid) if reference is None else _checked_reference(grid, reference)
    rng = random.Random(seed)
    trial = _TRIALS[name]
    # Each trial's generator is drained before the next trial draws, so
    # the RNG sees the same draw order as a plain loop would.
    records = [
        {
            "property": prop,
            "seed": seed,
            "trial": t,
            "pass": bool(ok),
            "witness": encode_value(witness),
        }
        for t in range(count)
        for prop, ok, witness in trial(rng, grid, reference)
    ]
    passes = sum(1 for r in records if r["pass"])
    summary = {
        "suite": name,
        "seed": seed,
        "count": count,
        "checks": len(records),
        "passes": passes,
        "failures": len(records) - passes,
    }
    return records, summary
