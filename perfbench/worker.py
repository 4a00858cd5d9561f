"""One run of one workload in this process; started by ``run.py``.

Prints one JSON line: the run's result, with every metric that
``BENCHMARK.json`` lists for the mode (end-to-end untraced, per-layer
traced), plus ``import_done``, the wall-clock time at which ``repro.api``
finished importing (``run.py`` turns it into ``import_s``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import repro.api  # noqa: F401  (the import phase that import_s measures)

IMPORT_DONE = time.time()

from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    op_seed,
    operations,
    reference_rates,
    run_op,
)


def timed_metrics(results) -> dict:
    """End-to-end metrics of a run.

    ``setup_s`` is the shortest of the run's timed set-ups, which all do the
    same deterministic work per operation.  On a shared host, contention
    only ever adds time, and it comes in spells longer than a set-up: over
    45 s windows the shortest set-up moved about 0.1 (quartile spread over
    median) where the median set-up moved about 0.2 to 0.3.  The other
    metrics are totals over the run's operations, each a different input:
    mean wall time per operation, and shots and evaluations per second of
    the summed hot-loop time.  These moved about 0.16 over the same windows,
    against 0.18 to 0.23 for medians over the operations.
    """
    hot_s = sum(result.hot_s for result in results)
    return {
        "setup_s": min(t for result in results for t in result.setup_s),
        "wall_s": statistics.fmean(result.wall_s for result in results),
        "shots_per_s": sum(result.shots for result in results) / hot_s,
        "rollouts_per_s": sum(result.evaluations for result in results) / hot_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


#: Untraced/traced pairs of operation 0 in a traced run.
TRACE_PAIRS = 3

#: Per-layer metrics that compare the traced operation with untraced ones.
TRACE_METRICS = (
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.residual_s",
    "trace.unattributed_s",
)

#: Tracing overhead outside [0, this share of the untraced wall time] is
#: reported as suspect: the host's noise, not tracing, dominates it.
OVERHEAD_SHARE = 0.05

#: Time of a traced operation that no span covers may be at most this share
#: of its wall time; more means the spans miss part of the operation.
UNATTRIBUTED_SHARE = 0.01


def traced_metrics(workload, seed: int, reference, trace_path: str) -> "tuple[list, dict]":
    """Per-layer metrics of operation 0, traced, and what tracing cost.

    Operation 0 runs once untraced to warm the process (the first operation
    in a process is the slowest), then untraced and traced alternately
    :data:`TRACE_PAIRS` times, so both medians see the same host conditions.
    The layers are those of the traced operation with the median wall time.
    """
    run_op(workload, op_seed(seed, 0), NullTracer(), reference)
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(run_op(workload, op_seed(seed, 0), NullTracer(), reference))
        tracer = Tracer()
        with tracer.installed():
            traced.append((run_op(workload, op_seed(seed, 0), tracer, reference), tracer))
    result, tracer = sorted(traced, key=lambda pair: pair[0].wall_s)[TRACE_PAIRS // 2]
    tracer.dump(trace_path)
    layers = tracer.metrics()
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    self_total = sum(tracer.self_times().values())
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = result.wall_s - untraced_wall
    layers["trace.residual_s"] = abs(self_total - untraced_wall)
    layers["trace.unattributed_s"] = result.wall_s - self_total
    if not 0 <= layers["trace.overhead_s"] <= OVERHEAD_SHARE * untraced_wall:
        print(
            f"{workload.name}: tracing overhead {layers['trace.overhead_s']:+.3f}s is outside "
            f"[0, {OVERHEAD_SHARE:.0%}] of the untraced {untraced_wall:.3f}s; host noise "
            "dominates it",
            file=sys.stderr,
        )
    if result.failure is None:
        result.failure = workload.expect(layers)
    if result.failure is None and not (
        0 <= layers["trace.unattributed_s"] <= UNATTRIBUTED_SHARE * result.wall_s
    ):
        result.failure = (
            f"spans leave {layers['trace.unattributed_s']:.4f}s of the traced "
            f"operation's {result.wall_s:.3f}s unattributed"
        )
    return [*untraced, *(op for op, _ in traced)], layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-path", required=True)
    args = parser.parse_args(argv)
    benchmark = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    with open(benchmark, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    reference = reference_rates(workload.name)
    if args.trace:
        results, metrics = traced_metrics(workload, args.seed, reference, args.trace_path)
    else:
        results = [
            run_op(workload, op_seed(args.seed, op), NullTracer(), reference, workload.setups)
            for op in range(operations(workload, args.seconds))
        ]
        failure = workload.check_run(results, reference)
        for result in results:
            result.failure = result.failure or failure
        metrics = timed_metrics(results)
    for index, result in enumerate(results):
        print(
            f"{workload.name} op {index}: setup {result.setup_s[-1]:.3f}s "
            f"wall {result.wall_s:.3f}s rates {result.rates}"
            + (f" FAILED: {result.failure}" if result.failure else ""),
            file=sys.stderr,
        )
    metrics.setdefault("import_s", 0.0)  # run.py measures it from outside
    failed = sum(result.failure is not None for result in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {
                    entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
                    for entry in declared
                },
                "import_done": IMPORT_DONE,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
