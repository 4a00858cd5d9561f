#!/usr/bin/env python3
"""CI smoke test for `repro serve`: boot, submit, stream, verify, shut down.

Phase 1 boots a real server subprocess (`python -m repro.serve`) on an
ephemeral port, submits a quick RunSpec over HTTP, streams the NDJSON
progress events, and asserts the served result is bit-identical to the
offline `repro.api.Pipeline` run of the same spec.  It then runs an
adaptive (`target_rse`) spec, whose served result must equal offline in
everything but the cache-hit counters, early stop included.

Phase 2 exercises the durability path end to end: a journalled server
with one throttled local worker is SIGKILLed mid-job; a restarted server
on the same journal and chunk cache must restore the job under its
original id and finish it bit-identically, replaying every
already-published chunk from the cache instead of re-executing it.

Exits non-zero on any mismatch, so CI catches a serve/offline divergence
immediately.  Stdlib only (plus the repository itself).  Usage:

    python scripts/serve_smoke.py [--workers N] [--skip-restart]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.pipeline import Pipeline  # noqa: E402
from repro.api.spec import Budget, RunSpec  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

SPEC = RunSpec(code="steane", decoder="lookup", budget=Budget(shots=3000), seed=7)

#: Stops well before its 16-chunk ceiling at this seed.
ADAPTIVE_SPEC = SPEC.replace(budget=Budget(shots=1000, target_rse=0.35, max_shots=16384))

ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def start_server(*extra: str) -> "tuple[subprocess.Popen, ServeClient]":
    """Boot a server subprocess on an ephemeral port; return (proc, client)."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=ENV,
    )
    banner = server.stdout.readline().strip()
    print(banner)
    if not banner.startswith("serving on "):
        raise RuntimeError("server did not start")
    return server, ServeClient(banner.split()[-1])


def reap(process: subprocess.Popen) -> None:
    """Terminate a subprocess if it is still running."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def shutdown(client: ServeClient, server: subprocess.Popen) -> None:
    """Graceful ``POST /shutdown`` and wait for the subprocess to exit."""
    urllib.request.urlopen(
        urllib.request.Request(client.base_url + "/shutdown", method="POST"), timeout=10
    ).read()
    server.wait(timeout=30)


def without_cache_counters(result: dict) -> dict:
    """An adaptive result minus ``cache_hits``/``fresh_chunks``.

    The counters legitimately differ between a cacheless server and an
    offline run; everything statistical must match bit for bit.
    """
    result = json.loads(json.dumps(result))
    for block in (result["adaptive"], *result["adaptive"]["bases"].values()):
        block.pop("cache_hits")
        block.pop("fresh_chunks")
    return result


def phase_adaptive(client: ServeClient) -> int:
    """A target_rse job must stop at the offline prefix with offline's rates."""
    offline = without_cache_counters(Pipeline(ADAPTIVE_SPEC).run().to_dict())
    result = without_cache_counters(client.run(ADAPTIVE_SPEC, timeout=180.0))
    if result != offline:
        print("error: served adaptive result differs from offline:", file=sys.stderr)
        print(f"  offline: {json.dumps(offline, sort_keys=True)}", file=sys.stderr)
        print(f"  served:  {json.dumps(result, sort_keys=True)}", file=sys.stderr)
        return 1
    if not result["adaptive"]["converged"] or result["shots"] >= ADAPTIVE_SPEC.budget.plan_shots:
        print("error: adaptive job did not stop early", file=sys.stderr)
        return 1
    print(f"adaptive job matches offline: stopped at {result['shots']} shots")
    return 0


def phase_basic(offline: dict, workers: int) -> int:
    """Submit/stream/verify against a plain server; assert dedup works."""
    server, client = start_server("--workers", str(workers))
    try:
        submitted = client.submit(SPEC)
        job_id = submitted["job"]["id"]
        print(f"submitted job {job_id} (coalesced={submitted['coalesced']})")

        result = None
        for event in client.events(job_id):
            kind = event["event"]
            if kind == "progress":
                print(
                    f"  {event['basis']}: chunk {event['chunks_done']}"
                    f"/{event['chunks_planned']} shots={event['shots']} "
                    f"errors={event['errors']}"
                )
            elif kind == "failed":
                print(f"error: job failed: {event.get('error')}", file=sys.stderr)
                return 1
            elif kind == "done":
                result = event["result"]
        if result is None:
            print("error: event stream ended without a result", file=sys.stderr)
            return 1

        if result != offline:
            print("error: served result differs from the offline pipeline:", file=sys.stderr)
            print(f"  offline: {json.dumps(offline, sort_keys=True)}", file=sys.stderr)
            print(f"  served:  {json.dumps(result, sort_keys=True)}", file=sys.stderr)
            return 1
        print(f"served result is bit-identical to offline (overall={result['overall']:.6e})")

        # Resubmission must coalesce into the finished job: zero recomputation.
        again = client.submit(SPEC)
        if not (again["coalesced"] and again["job"]["id"] == job_id):
            print("error: resubmission did not coalesce into the memo", file=sys.stderr)
            return 1
        stats = client.health()["stats"]
        print(f"dedup OK: {stats['jobs_submitted']} job, {stats['jobs_coalesced']} coalesced")

        if phase_adaptive(client):
            return 1
        shutdown(client, server)
        print("server shut down cleanly")
        return 0
    finally:
        reap(server)


def phase_restart(offline: dict) -> int:
    """Kill a journalled server mid-job; the restart must resume the job."""
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        cache_dir = str(Path(tmp) / "cache")
        durable = (
            "--workers", "1", "--cache-dir", cache_dir, "--journal",
            "--throttle", "0.5", "--poll-interval", "0.1",
        )
        server, client = start_server(*durable)
        try:
            job_id = client.submit(SPEC)["job"]["id"]
            print(f"submitted job {job_id} to the journalled server")

            deadline = time.monotonic() + 60.0
            published = 0
            while published < 2 and time.monotonic() < deadline:
                published = client.health()["stats"]["chunks_executed"]
                time.sleep(0.05)
            if published < 2:
                print("error: worker made no progress before the kill", file=sys.stderr)
                return 1
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=10)
            print(f"killed server mid-job after {published} published chunks")

            server, client = start_server(*durable)
            health = client.health()
            if health["jobs_restored"] != 1:
                print(f"error: journal restored {health['jobs_restored']} jobs", file=sys.stderr)
                return 1
            if client.job(job_id)["id"] != job_id:
                print("error: job identity lost across the restart", file=sys.stderr)
                return 1
            result = client.result(job_id, timeout=180.0)
            stats = client.health()["stats"]
            if result != offline:
                print("error: resumed result differs from offline:", file=sys.stderr)
                print(f"  offline: {json.dumps(offline, sort_keys=True)}", file=sys.stderr)
                print(f"  resumed: {json.dumps(result, sort_keys=True)}", file=sys.stderr)
                return 1
            executed, cached = stats["chunks_executed"], stats["chunks_cached"]
            if executed + cached != 6 or cached < published:
                print(
                    f"error: restart re-executed published chunks "
                    f"(executed={executed} cached={cached} published={published})",
                    file=sys.stderr,
                )
                return 1
            print(
                f"restart resumed bit-identically: {cached} chunks replayed "
                f"from cache, {executed} executed fresh"
            )
            shutdown(client, server)
            print("restarted server shut down cleanly")
            return 0
        finally:
            reap(server)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--skip-restart",
        action="store_true",
        help="run only the basic submit/stream/verify phase",
    )
    args = parser.parse_args()

    print(f"offline reference: running {SPEC.code}/{SPEC.decoder} in-process ...")
    offline = Pipeline(SPEC).run().to_dict()
    print(f"  offline overall={offline['overall']:.6e}")

    status = phase_basic(offline, args.workers)
    if status or args.skip_restart:
        return status
    print("--- restart/durability phase ---")
    return phase_restart(offline)


if __name__ == "__main__":
    raise SystemExit(main())
