"""Exact lab for the metric geometry of finite-energy potential spaces.

One-dimensional discrete model: potentials are piecewise-linear convex
functions on a rational grid with slopes confined to a moment interval.
Envelopes, Monge-Ampere masses, energies and the distances built from them
are all computed with exact rational arithmetic; relative entropy is the
single float-valued quantity.
"""

from ._rational import BACKEND, Rational, rat, rat_str
from .bigspace import (
    BigPoint,
    BigSpace,
    ChainResult,
    default_node_pools,
    level_restriction_check,
)
from .energy import energy, energy_diff_report
from .families import (
    ModelFamily,
    SampledFamily,
    density_approximant,
    entropy_cap_filter,
    family_from_intervals,
    member_cap,
    monotone_distance_convergence,
    project_family,
    split_caps,
)
from .ghlimits import (
    GH_EXACT_CAP,
    Correspondence,
    FiniteMetricSpace,
    direct_limit_check,
    distortion,
    gh_exact,
    gh_exact_witness,
    identity_correspondence,
    nested_family_distortions,
    space_from_potentials,
)
from .grid_convex import (
    Grid,
    GridPLConvex,
    ModelEnvelope,
    affine_combine,
    biconjugate,
    check_reference,
    is_leq,
    legendre,
    make_pl,
    model_from_interval,
    model_project,
    pl_equal,
    pointwise_max,
    rooftop,
    sup_diff,
)
from .measures import (
    AtomicMeasure,
    entropy,
    is_nondegenerate_reference,
    monge_ampere,
    normalize,
    rho,
)
from .metric import (
    chain_defect_report,
    chain_rho,
    darboux_limit,
    darboux_sum,
    dist,
    double_inequality_constant,
    double_inequality_report,
    estimate_sup_bound_constants,
)
from .report import Report, encode_value
from .scenario import Scenario, parse_scenario, run_scenario
from .serialize import dumps_canonical, load_json, write_csv, write_json, write_jsonl
from .suites import SUITES, run_suite


def metric_context(psi: ModelEnvelope) -> ModelEnvelope:
    """A level is its own context; kept for the perfbench scripts until they change."""
    return psi


__all__ = [
    "BACKEND",
    "Rational",
    "rat",
    "rat_str",
    "Grid",
    "GridPLConvex",
    "ModelEnvelope",
    "make_pl",
    "legendre",
    "biconjugate",
    "pl_equal",
    "pointwise_max",
    "affine_combine",
    "is_leq",
    "sup_diff",
    "rooftop",
    "check_reference",
    "model_from_interval",
    "model_project",
    "AtomicMeasure",
    "monge_ampere",
    "normalize",
    "entropy",
    "is_nondegenerate_reference",
    "energy",
    "energy_diff_report",
    "metric_context",
    "dist",
    "rho",
    "chain_rho",
    "chain_defect_report",
    "double_inequality_constant",
    "double_inequality_report",
    "darboux_sum",
    "darboux_limit",
    "estimate_sup_bound_constants",
    "ModelFamily",
    "SampledFamily",
    "family_from_intervals",
    "project_family",
    "split_caps",
    "member_cap",
    "entropy_cap_filter",
    "density_approximant",
    "monotone_distance_convergence",
    "BigPoint",
    "BigSpace",
    "ChainResult",
    "default_node_pools",
    "level_restriction_check",
    "FiniteMetricSpace",
    "Correspondence",
    "GH_EXACT_CAP",
    "space_from_potentials",
    "identity_correspondence",
    "distortion",
    "gh_exact",
    "gh_exact_witness",
    "nested_family_distortions",
    "direct_limit_check",
    "Report",
    "encode_value",
    "Scenario",
    "parse_scenario",
    "run_scenario",
    "SUITES",
    "run_suite",
    "dumps_canonical",
    "load_json",
    "write_json",
    "write_jsonl",
    "write_csv",
]

__version__ = "0.1.0"
