"""The kernel sweep script runs against the library as it stands.

perfbench/sweep.py is a separate command, not a benchmark workload, so no
benchmark run exercises it; this calls each of its timed kernels once on
the smallest configuration.
"""

from __future__ import annotations

import sys
from pathlib import Path

import femlab

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import sweep  # noqa: E402


def test_every_sweep_kernel_runs_once():
    for _, call in sweep.kernels(femlab, 3, 8, 2026):
        call()
