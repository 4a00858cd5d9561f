"""Measure how steady the end-to-end metrics are across seeds.

Usage, from the repository root::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--record LABEL]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
every end-to-end metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) / median``
next to the metric's bound in ``BENCHMARK.json``.  ``--record LABEL`` stores
the figures in ``perfbench/manifest.json`` under ``steadiness.LABEL``; when
another label is already recorded, each median is also compared with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "manifest.json"


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_from, default=seeds_from("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    figures: dict = {}
    failures = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                       "--trace", "0"]
            completed = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=200, check=True,
            )
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            failures += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        figures[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            figures[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "bound": bounds[name], "runs": len(series),
            }

    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    recorded = manifest.setdefault("steadiness", {})
    print(f"\n{'workload':<20} {'metric':<15} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}" + "".join(f" {'vs ' + label:>14}" for label in recorded))
    for workload, metrics in figures.items():
        for name, figure in metrics.items():
            line = (f"{workload:<20} {name:<15} {figure['median']:>10.4g} {figure['q1']:>10.4g} "
                    f"{figure['q3']:>10.4g} {figure['spread']:>7.3f} {figure['bound']:>6.2f}")
            for label, earlier in recorded.items():
                before = earlier.get(workload, {}).get(name)
                if before:
                    line += f" {figure['median'] / before['median'] - 1:>+14.3f}"
            print(line)
    print(f"failed operations: {failures}")
    if args.record:
        recorded.setdefault(args.record, {}).update(figures)
        with open(MANIFEST, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
