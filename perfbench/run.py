"""End-to-end benchmark of the synthesis loop and of evaluation at realistic size.

Usage, from the repository root::

    python3 perfbench/run.py --workload synth_surface_d3 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each workload runs in a fresh Python process (``perfbench/worker.py``) with
``src/`` on its path.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Traced runs also write their spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth_surface_d3", "eval_bb18_bposd")

#: A run must end within 180 s; this leaves room to stop the worker.
TIMEOUT_S = 170


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process and return its result object."""
    trace_dir = ROOT / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--trace-path", str(trace_dir / f"trace-{workload}-seed{seed}.json"),
    ]
    spawned = time.time()
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    import_done = result.pop("import_done")
    if trace:
        result["metrics"]["import_s"]["value"] = import_done - spawned
    return result


def declared_run_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``, the default length of a run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                part = run_workload(workload, args.seed, args.seconds, args.trace)
                for name, metric in part["metrics"].items():
                    print(f"{workload:<20} {name:<32} {metric['value']:>14.6g} {metric['unit']}")
                    result["metrics"][f"{workload}.{name}"] = metric
                result["correct"] = result["correct"] and part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
