"""Child-interpreter entry points of the benchmark.

    python perfbench/child.py cli [--trace-file F] -- <femlab cli args>
        Run the femlab command line as the `femlab` console script does.
        With --trace-file, install the layer wrappers before femlab.cli.main
        runs and write the layer totals to F when it returns.

    python perfbench/child.py setup <workload> <seed>
        Print the calibration loop's seconds, then the seconds taken to
        import femlab and build the inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _cli(argv) -> int:
    trace_file = None
    if argv[0] == "--trace-file":
        trace_file, argv = argv[1], argv[2:]
    if argv[0] == "--":
        argv = argv[1:]
    t0 = perf_counter()
    workloads.import_femlab()
    import femlab.cli

    import_s = perf_counter() - t0
    if trace_file is None:
        return femlab.cli.main(argv)
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        rc = femlab.cli.main(argv)
    tracer.end_pass()
    data = tracer.to_dict()
    data["import_s"] = import_s
    with open(trace_file, "w") as fh:
        json.dump(data, fh)
    with open(trace_file + ".spans", "w") as fh:
        tracer.write_spans(fh)
    return rc


def main(argv) -> int:
    if argv[0] == "cli":
        return _cli(argv[1:])
    if argv[0] == "setup":
        print("%r %r" % workloads.setup_probe(argv[1], int(argv[2])))
        return 0
    raise SystemExit("usage: child.py cli|setup ...")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
