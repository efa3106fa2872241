"""Byte identity: the sha256 of every documented output, pinned.

The six `femlab suite <name> --seed 2026 --count 20` stdouts and the five
artifacts of `femlab run scenarios/canonical.json`, all run in process
through `cli.main`, and the cross-level results of one seeded `BigSpace`:
its quasi matrix, a level restriction check, the direct limit check, and
the value and path of chains through its default node pools.
A change that moves any of these bytes changes a published result and has
to update the hash here on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import pytest
from test_bigspace import quasi_matrix, seeded_space

from femlab import (
    default_node_pools,
    direct_limit_check,
    dumps_canonical,
    level_restriction_check,
    rat_str,
)
from femlab.cli import main

SCENARIO = os.path.join(os.path.dirname(__file__), "..", "scenarios", "canonical.json")

SUITE_STDOUT = {
    "metric_axioms": "0a825293f523e0ee1a344dee3236f91eefe56402679b6b9631b70a57f4f837b3",
    "energy_identities": "a766be47cc58b340bafdcd211e11e89778341fcd9d6a590d9bd405e126027c38",
    "measure_bounds": "bb0082d24d0aae1fb0c2569b0b1227c554a9838b6bd3206422e38ccf16192871",
    "contraction": "634f926e2ae3e64498d3b401f887b096b0b5ea41ef72407ed1e2d6ae667e064a",
    "chains": "c6ea327e47db7fda92d3e24129020ee0b313bfb53af8a341962ba9aacd5317d9",
    "gh": "a8e5dde3e5fd46a278e96d1b26939e510c7c2f8982b8ad1f35d950b991b5b4fc",
}

CANONICAL_ARTIFACTS = {
    "chain_2.json": "a6db517d9b9ece1b25dd5a7a69188fbf6d557415aa8660a53fc03e9a36d270ee",
    "converge_1.json": "6e2d0dd4dd90379919240fae9f87bffb05a9dd5b2c413a791e8a87658c61fed2",
    "gh_3.csv": "28fd7322c626e1e9ce647484308f4243abb161bc06ef690f441f73e9e4260105",
    "gh_3.json": "043c840b2d5d645201004e4551c0b5b9e5e9c4faa6ef8e00bb41ec6f5cdc1505",
    "suite_0_metric_axioms.jsonl": "73d51085042f64932bb477a014882e2e80745c8a5918556274973054d98a5924",
}

# seeded_space(seed=7, count=14): 14 members at 5 levels, 70 points
CROSS_LEVEL = "9d640d86c0dbd77f822b7b2ebbb8324ca28740e311e160d1993f0373c51d2aaf"
# the same space: 225 chains, each from a level-0 member point to a member
# point at every level through every default pool; 56 of them are detours
CHAINS = "440baf6b79e08663a4995342049bc06e216e8cd4becf13ba8841f12f0efd7e85"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SUITE_STDOUT))
def test_suite_stdout_is_byte_identical(name, monkeypatch):
    monkeypatch.delenv("FEM_LAB_OUT", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["suite", name, "--seed", "2026", "--count", "20"]) == 0
    assert sha256(out.getvalue().encode()) == SUITE_STDOUT[name]


def test_canonical_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("FEM_LAB_OUT", raising=False)
    assert main(["run", SCENARIO, "--out", str(tmp_path)]) == 0
    written = {name: sha256((tmp_path / name).read_bytes()) for name in sorted(os.listdir(tmp_path))}
    assert written == CANONICAL_ARTIFACTS


def test_cross_level_outputs_are_byte_identical():
    sp = seeded_space(seed=7, count=14)
    matrix = [[rat_str(v) for v in row] for row in quasi_matrix(sp)]
    restriction = level_restriction_check(sp, sp.limit_level, range(5)).as_dict()
    limit = direct_limit_check(sp.family, sp.generator).as_dict()
    assert sha256(dumps_canonical([matrix, restriction, limit]).encode()) == CROSS_LEVEL


def test_chain_values_and_paths_are_byte_identical():
    """Pins the witness paths too: a passing restriction check reports none."""
    sp = seeded_space(seed=7, count=14)
    rows = []
    for level in range(sp.level_count):
        for pool in default_node_pools(sp, level):
            for i in range(3):
                for j in range(3):
                    res = sp.chain(sp.point_from_member(0, i), sp.point_from_member(level, j), pool)
                    rows.append([rat_str(res.value), list(res.path)])
    assert len(rows) == 225
    assert sha256(dumps_canonical(rows).encode()) == CHAINS
