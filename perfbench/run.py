"""OptImatch benchmark: ingest, ad-hoc search and KB-monitor workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it name every figure of the run, including the ones
that are not gated (see README.md).  A reply that disagrees with its
oracle makes the run exit with code 1; missing program sources or any
other failure end it with a non-zero code and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="OptImatch benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "search", "monitor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    run, error = workloads.execute(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    catalogue = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    for name, unit in workloads.END_TO_END + workloads.PER_LAYER:
        if name in run.metrics:
            print(f"{name} = {run.metrics[name]:.6g} {unit}")
    attempted, failed = run.ledger.attempted, run.ledger.failed
    print(f"failed_ratio = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} requests)")
    for key, value in sorted(run.notes.items()):
        if key != "traced_window":
            print(f"{key} = {value}")
    if error is not None:
        print(f"ORACLE MISMATCH: {error}", file=sys.stderr)
    missing = [name for name, _ in catalogue if name not in run.metrics]
    if missing and error is None:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": run.metrics[name], "unit": unit}
            for name, unit in catalogue if name in run.metrics
        },
    }
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
