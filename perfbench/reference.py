"""Record the reference logical error rates the eval workloads' output checks use.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/reference.py [--operations 8] [--seed 1000]

Runs ``--operations`` operations of each eval workload exactly as a benchmark
run with ``--seed`` would (same path, same shots per operation), pools their
per-basis counts, and stores the pooled rates in ``perfbench/manifest.json``
(``references``).  Each benchmark operation, and the pooled operations of a
timed run, must agree with these rates in a two-proportion z-test at z=4
(``workloads.compare_rates``), which accounts for the reference's own
sampling error.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import NullTracer
from workloads import MANIFEST, WORKLOADS, EvalWorkload, load_manifest, op_seed, run_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--operations", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args(argv)

    manifest = load_manifest()
    for workload in WORKLOADS.values():
        if not isinstance(workload, EvalWorkload):
            continue
        errors = {"error_x": 0, "error_z": 0}
        for op in range(args.operations):
            result = run_op(workload, op_seed(args.seed, op), NullTracer(), None)
            for key in errors:
                errors[key] += round(result.rates[key] * workload.shots)
        shots = workload.shots * args.operations
        reference = {key: count / shots for key, count in errors.items()}
        reference.update(shots_per_basis=shots, seed=args.seed, operations=args.operations)
        manifest["references"][workload.name] = reference
        print(workload.name, reference, file=sys.stderr)
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
