"""Record the expected output digest of every workload at fixed seeds.

    python3 perfbench/record_digests.py

Runs one untraced pass per workload and seed in SEEDS and writes
perfbench/digests.json.  run.py then counts any pass at one of these
seeds whose digest differs as failed.  Rerun this only when a change is
meant to alter femlab's outputs; a speed-up must leave the file as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 2026
SEEDS = (DEFAULT_SEED,) + tuple(range(1, 11))


def main() -> int:
    fl = workloads.import_femlab()
    table = {}
    for name in sorted(workloads.PASSES):
        for seed in SEEDS:
            res = workloads.PASSES[name](fl, workloads.build(fl, name, seed), workloads.Clock())
            if res.failed:
                print("%s seed %d: %d failed items; not recording" % (name, seed, res.failed))
                return 1
            table.setdefault(name, {})[str(seed)] = res.digest
            print(name, seed, res.digest, flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
