"""Seeded property suites, one JSON-ready record per check.

Every suite draws its material from one fixed five-node harness with a
nondegenerate reference, runs `count` independent trials, and reports each
property as an exact rational comparison; identical seeds give identical
records.
"""

from __future__ import annotations

import random

from ._rational import rat
from .energy import EnergyContext, energy, energy_diff_report
from .errors import UnknownSuite, ValidationError
from .grid_convex import (
    Grid,
    affine_combine,
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
)
from .metric import chain_defect_report, dist, double_inequality_report, rho
from .ghlimits import (
    distortion,
    gh_exact,
    gh_upper,
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

SUITES = (
    "metric_axioms",
    "energy_identities",
    "measure_bounds",
    "contraction",
    "chains",
    "gh",
)


def _harness(grid=None, reference=None):
    if grid is None:
        grid = Grid(nodes=(-2, -1, 0, 1, 2), polytope=(0, 1))
    if reference is None:
        reference = nondegenerate_reference(grid)
    return grid, reference


def _rec(records, prop, seed, trial, ok, witness):
    records.append(
        {
            "property": prop,
            "seed": seed,
            "trial": trial,
            "pass": bool(ok),
            "witness": encode_value(witness),
        }
    )


def _suite_metric_axioms(seed, count, grid=None, reference=None):
    grid, ref = _harness(grid, reference)
    rng = random.Random(seed)
    records = []
    for t in range(count):
        interval = random_subinterval(rng, grid.polytope)
        ctx = EnergyContext(model_from_interval(grid, interval, ref))
        u = random_sector_potential(rng, grid, interval)
        v = random_sector_potential(rng, grid, interval)
        w = random_sector_potential(rng, grid, interval)
        duv = dist(ctx, u, v)
        _rec(records, "symmetry", seed, t, duv == dist(ctx, v, u), {"d": duv})
        _rec(
            records,
            "identity",
            seed,
            t,
            dist(ctx, u, u) == 0 and (duv == 0) == pl_equal(u, v),
            {"d": duv},
        )
        _rec(
            records,
            "triangle",
            seed,
            t,
            dist(ctx, u, w) <= duv + dist(ctx, v, w),
            {"d_uw": dist(ctx, u, w)},
        )
        p = rooftop(u, v)
        _rec(
            records,
            "pythagoras",
            seed,
            t,
            duv == dist(ctx, u, p) + dist(ctx, v, p),
            {"d": duv},
        )
        mid = pointwise_max(u, v)
        top = pointwise_max(mid, w)
        _rec(
            records,
            "order_additivity",
            seed,
            t,
            dist(ctx, u, top) == dist(ctx, u, mid) + dist(ctx, mid, top),
            {"d_low_high": dist(ctx, u, top)},
        )
        _rec(
            records,
            "rooftop_lipschitz",
            seed,
            t,
            dist(ctx, rooftop(u, w), rooftop(v, w)) <= duv,
            {"d": duv},
        )
        drep = double_inequality_report(ctx, u, v)
        _rec(records, "double_inequality", seed, t, drep.passed, {"d": drep.lhs, "pairing": drep.rhs})
    return records


def _suite_energy_identities(seed, count, grid=None, reference=None):
    grid, ref = _harness(grid, reference)
    rng = random.Random(seed)
    records = []
    for t in range(count):
        interval = random_subinterval(rng, grid.polytope)
        ectx = EnergyContext(model_from_interval(grid, interval, ref))
        u = random_sector_potential(rng, grid, interval)
        v = random_sector_potential(rng, grid, interval)
        rep = energy_diff_report(ectx, u, v)
        _rec(records, "difference_identity", seed, t, rep.passed, {"lhs": rep.lhs})
        mid = affine_combine(rat(1, 2), u, v)
        _rec(
            records,
            "concavity",
            seed,
            t,
            2 * energy(ectx, mid) >= energy(ectx, u) + energy(ectx, v),
            {"mid": energy(ectx, mid)},
        )
        c = rat(rng.randint(1, 8), 4)
        _rec(
            records,
            "translation",
            seed,
            t,
            energy(ectx, u.shift(-c)) == energy(ectx, u) - c * ectx.mass,
            {"c": c},
        )
        _rec(
            records,
            "monotone",
            seed,
            t,
            energy(ectx, pointwise_max(u, v)) >= energy(ectx, u),
            {"e_u": energy(ectx, u)},
        )
    return records


def _suite_measure_bounds(seed, count, grid=None, reference=None):
    grid, ref = _harness(grid, reference)
    rng = random.Random(seed)
    records = []
    for t in range(count):
        u = random_sector_potential(rng, grid, grid.polytope)
        v = random_sector_potential(rng, grid, grid.polytope)
        comp = check_comparison_principle(u, pointwise_max(u, v))
        _rec(records, "comparison_principle", seed, t, comp.passed, {"lhs": comp.lhs, "rhs": comp.rhs})
        roof = check_rooftop_mass_bound(u, v)
        _rec(records, "rooftop_mass", seed, t, roof.passed, {})
        psi = model_from_interval(grid, random_subinterval(rng, grid.polytope), ref)
        model = check_model_mass_bound(psi, u)
        _rec(records, "model_mass", seed, t, model.passed, {"Q": list(psi.Q)})
    return records


def _suite_contraction(seed, count, grid=None, reference=None):
    grid, ref = _harness(grid, reference)
    rng = random.Random(seed)
    records = []
    for t in range(count):
        q1 = random_subinterval(rng, grid.polytope)
        q2 = random_subinterval(rng, q1)
        psi1 = model_from_interval(grid, q1, ref)
        psi2 = model_from_interval(grid, q2, ref)
        ctx1, ctx2 = EnergyContext(psi1), EnergyContext(psi2)
        u = random_sector_potential(rng, grid, q1)
        v = random_sector_potential(rng, grid, q1)
        pu, pv = model_project(psi2, u), model_project(psi2, v)
        _rec(
            records,
            "lipschitz",
            seed,
            t,
            dist(ctx2, pu, pv) <= dist(ctx1, u, v),
            {"upper": dist(ctx1, u, v), "lower": dist(ctx2, pu, pv)},
        )
        _rec(
            records,
            "idempotent_equality",
            seed,
            t,
            dist(ctx2, model_project(psi2, pu), model_project(psi2, pv)) == dist(ctx2, pu, pv),
            {},
        )
        hi, lo = random_ordered_pair(rng, grid, q1)
        _rec(
            records,
            "rho_contracts",
            seed,
            t,
            rho(model_project(psi2, hi), model_project(psi2, lo)) <= rho(hi, lo),
            {"rho": rho(hi, lo)},
        )
    return records


def _suite_chains(seed, count, grid=None, reference=None):
    grid, ref = _harness(grid, reference)
    rng = random.Random(seed)
    records = []
    for t in range(count):
        interval = random_subinterval(rng, grid.polytope)
        ctx = EnergyContext(model_from_interval(grid, interval, ref))
        hi, lo = random_ordered_pair(rng, grid, interval)
        rep = chain_defect_report(ctx, hi, lo, (1, 2, 4, 8))
        _rec(records, "chain_defect_law", seed, t, rep.passed, {"d": rep.lhs, "gap": rep.rhs})
    return records


def _suite_gh(seed, count, grid=None, reference=None):
    grid, ref = _harness(grid, reference)
    rng = random.Random(seed)
    records = []
    for t in range(count):
        interval = random_subinterval(rng, grid.polytope)
        ctx = EnergyContext(model_from_interval(grid, interval, ref))
        xs = [random_sector_potential(rng, grid, interval) for _ in range(3)]
        ys = [random_sector_potential(rng, grid, interval) for _ in range(3)]
        space_x = space_from_potentials(ctx, xs)
        space_y = space_from_potentials(ctx, ys)
        rel = identity_correspondence(space_x, space_y)
        exact = gh_exact(space_x, space_y)
        _rec(
            records,
            "gh_upper_bound",
            seed,
            t,
            exact <= gh_upper(rel),
            {"exact": exact, "upper": gh_upper(rel)},
        )
        _rec(records, "gh_self_zero", seed, t, gh_exact(space_x, space_x) == 0, {})
        _rec(records, "distortion_nonnegative", seed, t, distortion(rel) >= 0, {})
    return records


_RUNNERS = {
    "metric_axioms": _suite_metric_axioms,
    "energy_identities": _suite_energy_identities,
    "measure_bounds": _suite_measure_bounds,
    "contraction": _suite_contraction,
    "chains": _suite_chains,
    "gh": _suite_gh,
}


def run_suite(name: str, seed: int, count: int, grid=None, reference=None):
    """(records, summary) for one named suite; deterministic in the seed.

    With no grid the suite runs on a built-in five-node harness; passing a
    grid (and optionally a reference on it) reruns the same properties on
    caller-supplied geometry.  A negative count raises ValidationError;
    count 0 gives the summary alone.
    """
    if name not in _RUNNERS:
        raise UnknownSuite("no suite named %r; known: %s" % (name, ", ".join(SUITES)))
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValidationError("suite count must be a non-negative integer, got %r" % (count,))
    records = _RUNNERS[name](seed, count, grid, reference)
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
