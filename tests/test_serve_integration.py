"""Integration tests for `repro serve`: real workers, real HTTP.

The acceptance contract of the service:

* a served job's RunResult payload is **bit-identical** to the offline
  `repro.api.Pipeline` for every server worker count;
* concurrent submissions of one canonical spec coalesce into exactly one
  computation (pinned via the fabric counters);
* a worker SIGKILLed mid-job is seen dead at the next reaper tick and
  its chunks are requeued, and a worker SIGSTOPped mid-job loses its lease
  at the lease deadline; either way the job completes with the identical
  result;
* adaptive (target_rse) jobs stop at the same prefix as offline;
* served chunks replay from the shared content-addressed cache;
* a worker's job context builds one decoder per basis, not one per chunk,
  and none for cache-replayed chunks;
* a dead fleet with no respawn budget fails pending jobs;
* a worker outlives a SIGKILLed server by at most a poll interval.

Each test boots its own in-process server (`serve_in_thread`) on an
ephemeral port with spawn-context worker processes, so the module is
slower than the unit layer; budgets are sized to keep it tolerable.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.api.pipeline import Pipeline
from repro.api.spec import Budget, RunSpec
from repro.cache import ResultCache
from repro.parallel import DEFAULT_CHUNK_SHOTS, chunk_error_counts, chunk_sizes
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.serve.client import ServeError
from repro.serve.jobs import ChunkTask
from repro.serve.worker import JobContext

#: Multi-chunk spec (3 chunks per basis) that stays laptop-fast.
SPEC = RunSpec(code="steane", decoder="lookup", budget=Budget(shots=3000), seed=7)

ADAPTIVE_SPEC = SPEC.replace(
    budget=Budget(shots=1000, target_rse=0.35, max_shots=16384)
)


@pytest.fixture(scope="module")
def offline_result():
    return Pipeline(SPEC).run().to_dict()


def fast_config(**overrides):
    defaults = dict(port=0, workers=2, poll_interval=0.05, lease_timeout=15.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_served_result_bit_identical_to_offline(workers, offline_result):
    with serve_in_thread(fast_config(workers=workers)) as server:
        client = ServeClient(server.url)
        result = client.run(SPEC, timeout=180.0)
    assert result == offline_result


def test_concurrent_identical_submissions_run_one_computation(offline_result):
    # throttle widens the window in which the second submission arrives
    # while the first is still running.
    with serve_in_thread(fast_config(throttle=0.1)) as server:
        client = ServeClient(server.url)
        results, errors = [], []

        def submit_and_wait():
            try:
                results.append(client.run(SPEC, timeout=180.0))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=submit_and_wait) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
        stats = client.health()["stats"]
    assert not errors
    # Both clients got the full (identical, offline-equal) result...
    assert results == [offline_result, offline_result]
    # ...from exactly one computation: one job, six chunks (3 per basis),
    # nothing executed twice.
    assert stats["jobs_submitted"] == 1
    assert stats["jobs_coalesced"] == 1
    assert stats["jobs_completed"] == 1
    assert stats["chunks_executed"] == 6


def _busy_worker(client) -> dict:
    """Wait until a live worker is in the middle of a lease and return it.

    ``outstanding`` is set when the lease is queued, before the spawned
    process has even imported ``repro``; a returned result proves the
    worker runs chunks, and the rest of its lease is still pending.
    """
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        for worker in client.health()["workers"]:
            if worker["alive"] and worker["results"] >= 1 and worker["outstanding"] > 0:
                return worker
        time.sleep(0.05)
    raise AssertionError("no worker was ever in the middle of a lease")


def test_killed_worker_recovered_by_death_detection(offline_result):
    # Process.is_alive sees the SIGKILL within one 0.05 s reaper tick, long
    # before the 1.5 s lease deadline; worker_lost requeues its chunks (and
    # counts the lease as expired).
    config = fast_config(workers=2, lease_timeout=1.5, throttle=0.4)
    with serve_in_thread(config) as server:
        client = ServeClient(server.url)
        job_id = client.submit(SPEC)["job"]["id"]
        victim = _busy_worker(client)
        os.kill(victim["pid"], signal.SIGKILL)
        result = client.result(job_id, timeout=180.0)
        health = client.health()
    assert result == offline_result
    assert health["workers_respawned"] >= 1
    assert health["stats"]["leases_expired"] >= 1


def test_stopped_worker_recovered_by_lease_timeout(offline_result):
    # A SIGSTOPped worker is alive but silent: only the lease deadline can
    # hand its chunks to the other worker, and nothing is respawned.
    config = fast_config(workers=2, lease_timeout=1.0, throttle=0.4)
    with serve_in_thread(config) as server:
        client = ServeClient(server.url)
        job_id = client.submit(SPEC)["job"]["id"]
        victim = _busy_worker(client)
        os.kill(victim["pid"], signal.SIGSTOP)
        try:
            result = client.result(job_id, timeout=180.0)
            health = client.health()
        finally:
            # Resume before the server exits, so teardown can stop it.
            os.kill(victim["pid"], signal.SIGCONT)
    assert result == offline_result
    assert health["stats"]["leases_expired"] >= 1
    assert health["workers_respawned"] == 0


def test_adaptive_job_matches_offline_early_stop():
    offline = Pipeline(ADAPTIVE_SPEC).run().to_dict()
    with serve_in_thread(fast_config()) as server:
        result = ServeClient(server.url).run(ADAPTIVE_SPEC, timeout=180.0)
    # Cache-hit counters legitimately differ between a cacheless server and
    # an offline run; everything statistical must match bit for bit.
    for payload in (offline, result):
        payload["adaptive"].pop("cache_hits")
        payload["adaptive"].pop("fresh_chunks")
        for basis in payload["adaptive"]["bases"].values():
            basis.pop("cache_hits")
            basis.pop("fresh_chunks")
    assert result == offline
    assert result["adaptive"]["converged"] is True
    assert result["shots"] < ADAPTIVE_SPEC.budget.plan_shots


def test_submit_prints_what_run_prints(capsys):
    # One printer for both verbs, fed from the RunResult payload: the
    # served adaptive job reports the same rates and adaptive line (up to
    # the cache counters, which differ between a cacheless server and an
    # offline run).
    flags = ["--code", "steane", "--decoder", "lookup", "--seed", "7", "--shots", "1000"]
    flags += ["--target-rse", "0.35", "--max-shots", "16384"]
    assert main(["run", *flags, "--no-cache"]) == 0
    offline = capsys.readouterr().out.splitlines()
    with serve_in_thread(fast_config()) as server:
        assert main(["submit", *flags, "--server", server.url]) == 0
    served = capsys.readouterr().out.splitlines()
    assert served[-3:-1] == offline[:2]
    assert served[-1].startswith("  adaptive: target_rse=0.35 converged=True shots[")
    assert served[-1].split(" cache_hits=")[0] == offline[2].split(" cache_hits=")[0]


def test_fixed_budget_with_max_shots_matches_offline():
    """max_shots is the adaptive ceiling: without target_rse a served job
    samples ``shots``, as offline does, not ``max_shots``."""
    spec = SPEC.replace(budget=Budget(shots=500, max_shots=2048))
    offline = Pipeline(spec).run().to_dict()
    with serve_in_thread(fast_config()) as server:
        result = ServeClient(server.url).run(spec, timeout=180.0)
    assert result == offline
    assert result["shots"] == 500


def test_served_chunks_replay_from_shared_cache(tmp_path, offline_result):
    cache_dir = str(tmp_path / "cache")
    # A first server publishes the job's chunks into the shared cache...
    with serve_in_thread(fast_config(cache_dir=cache_dir)) as server:
        client = ServeClient(server.url)
        first = client.run(SPEC, timeout=180.0)
        first_stats = client.health()["stats"]
    assert first == offline_result
    assert first_stats["chunks_executed"] == 6
    # ...so a fresh server (a restart) replays them all and samples nothing.
    with serve_in_thread(fast_config(cache_dir=cache_dir)) as server:
        client = ServeClient(server.url)
        result = client.run(SPEC, timeout=180.0)
        stats = client.health()["stats"]
    assert result == offline_result
    assert stats["chunks_executed"] == 0
    assert stats["chunks_cached"] == 6
    # The published summaries live in the same content-addressed store the
    # offline adaptive engine reads.
    assert len(ResultCache(cache_dir).entries()) == 6


def count_decoder_builds(context):
    """Wrap the context's decoder factory; return the list of DEMs it builds."""
    factory = context.pipeline.decoder_factory
    builds = []

    def counting_factory(dem):
        builds.append(dem)
        return factory(dem)

    context.pipeline.decoder_factory = counting_factory
    return builds


def test_job_context_builds_one_decoder_per_basis():
    context = JobContext(SPEC)
    factory = context.pipeline.decoder_factory
    builds = count_decoder_builds(context)
    sizes = chunk_sizes(SPEC.budget.plan_shots, DEFAULT_CHUNK_SHOTS)
    assert len(sizes) == 3
    counts = [
        context.run_chunk(ChunkTask("job", "Z", index, shots))
        for index, shots in enumerate(sizes)
    ]
    assert len(builds) == 1
    # Counts equal a fresh decoder per chunk: decoding is a pure function
    # of the DEM and the syndrome.
    dem, sampler = context.pipeline.dem["Z"], context.pipeline.samplers["Z"]
    streams = context.plans["Z"].streams
    assert counts == [
        (*chunk_error_counts(dem, factory, sampler, shots, streams[index]), False)
        for index, shots in enumerate(sizes)
    ]


def test_job_context_builds_each_basis_decoder_on_its_own_dem():
    context = JobContext(SPEC)
    builds = count_decoder_builds(context)
    shots = chunk_sizes(SPEC.budget.plan_shots, DEFAULT_CHUNK_SHOTS)[0]
    for basis in ("Z", "X", "Z", "X"):
        context.run_chunk(ChunkTask("job", basis, 0, shots))
    assert builds == [context.pipeline.dem["Z"], context.pipeline.dem["X"]]


def test_cache_replayed_chunks_build_no_decoder(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    task = ChunkTask("job", "Z", 0, chunk_sizes(SPEC.budget.plan_shots, DEFAULT_CHUNK_SHOTS)[0])
    shots, errors, cached = JobContext(SPEC, cache=cache).run_chunk(task)
    assert cached is False
    replay = JobContext(SPEC, cache=cache)
    builds = count_decoder_builds(replay)
    assert replay.run_chunk(task) == (shots, errors, True)
    assert builds == []


def test_dead_fleet_without_respawn_fails_pending_jobs():
    # One worker, no respawn: once it is SIGKILLed mid-job, every local
    # worker is dead and the respawn budget is spent, so the reaper must
    # fail the job instead of leaving the client hanging.
    config = fast_config(workers=1, respawn=False, throttle=0.4)
    with serve_in_thread(config) as server:
        client = ServeClient(server.url)
        job_id = client.submit(SPEC)["job"]["id"]
        victim = _busy_worker(client)
        os.kill(victim["pid"], signal.SIGKILL)
        with pytest.raises(ServeError) as excinfo:
            client.result(job_id, timeout=60.0, poll_window=0.5)
        health = client.health()
    assert "no live workers remain" in str(excinfo.value)
    assert health["workers_respawned"] == 0
    assert health["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 1}


def test_failed_job_reports_error():
    with serve_in_thread(fast_config(workers=1)) as server:
        client = ServeClient(server.url)
        bad = SPEC.replace(decoder="lookup:radius=oops")
        job = client.submit(bad)["job"]
        deadline = time.monotonic() + 60.0
        state = job["state"]
        while state != "failed" and time.monotonic() < deadline:
            state = client.job(job["id"])["state"]
            time.sleep(0.05)
        assert state == "failed"
        assert client.job(job["id"])["error"]
        # The fleet survives a failed job and still serves good specs.
        assert client.run(SPEC, timeout=180.0)["shots"] == 3000


def test_events_stream_progress_then_done(offline_result):
    with serve_in_thread(fast_config()) as server:
        client = ServeClient(server.url)
        job_id = client.submit(SPEC)["job"]["id"]
        events = list(client.events(job_id))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "job"
    assert kinds[-1] == "done"
    assert "progress" in kinds
    assert events[-1]["result"] == offline_result
    # Per-basis progress reports a monotonically advancing chunk frontier.
    frontier = {}
    for event in events:
        if event["event"] != "progress":
            continue
        basis = event["basis"]
        assert event["chunks_done"] > frontier.get(basis, 0)
        frontier[basis] = event["chunks_done"]
    assert frontier == {"Z": 3, "X": 3}


def test_server_restart_resumes_job_from_journal_and_cache(tmp_path, offline_result):
    cache_dir = str(tmp_path / "cache")
    config = dict(cache_dir=cache_dir, journal="auto", throttle=0.3, workers=1)
    # First server: make some progress, then go down mid-job.
    with serve_in_thread(fast_config(**config)) as server:
        client = ServeClient(server.url)
        job_id = client.submit(SPEC)["job"]["id"]
        deadline = time.monotonic() + 60.0
        published = 0
        while published < 2 and time.monotonic() < deadline:
            published = client.health()["stats"]["chunks_executed"]
            time.sleep(0.05)
        assert published >= 2, "server made no progress before the restart"
    # Second server on the same journal and cache: the job is restored
    # under its original id and completes without re-executing anything
    # already published.
    with serve_in_thread(fast_config(**config)) as server:
        client = ServeClient(server.url)
        assert client.health()["jobs_restored"] == 1
        assert client.job(job_id)["id"] == job_id  # identity survived
        result = client.result(job_id, timeout=180.0)
        stats = client.health()["stats"]
    assert result == offline_result
    assert stats["chunks_cached"] >= published
    assert stats["chunks_executed"] + stats["chunks_cached"] == 6
    # Third server: the job is now a restored memo — served instantly,
    # zero chunks executed or replayed.
    with serve_in_thread(fast_config(**config)) as server:
        client = ServeClient(server.url)
        assert client.result(job_id, timeout=30.0) == offline_result
        final = client.health()["stats"]
    assert final["chunks_executed"] == 0 and final["chunks_cached"] == 0


def test_memo_eviction_surfaces_in_healthz():
    config = fast_config(workers=1, memo_ttl=0.3, poll_interval=0.05)
    with serve_in_thread(config) as server:
        client = ServeClient(server.url)
        job_id = client.submit(SPEC)["job"]["id"]
        client.result(job_id, timeout=180.0)
        assert client.health()["memo"]["retained"] == 1
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            memo = client.health()["memo"]
            if memo["retained"] == 0 and memo["evicted"] == 1:
                break
            time.sleep(0.05)
        memo = client.health()["memo"]
        assert memo == {"retained": 0, "ttl": 0.3, "cap": 1024, "evicted": 1}
        # The evicted job is gone from the table; a resubmission runs fresh
        # and still returns the identical payload.
        assert all(job["id"] != job_id for job in client.jobs())
        rerun = client.run(SPEC, timeout=180.0)
        assert client.health()["stats"]["jobs_coalesced"] == 0
    assert rerun["shots"] == 3000


#: Stand-in for a `repro serve` process: starts one spawn-context worker,
#: waits until the worker has drained a no-op batch from its inbox (so it
#: is inside its loop), prints the worker's pid and then idles until killed.
_SERVER_STAND_IN = """
import multiprocessing, time
from repro.serve.worker import worker_main
ctx = multiprocessing.get_context("spawn")
inbox, outbox = ctx.Queue(), ctx.Queue()
worker = ctx.Process(target=worker_main, args=("w1", inbox, outbox), daemon=True)
worker.start()
inbox.put(("run", [], {}))
while not inbox.empty():
    time.sleep(0.05)
print(worker.pid, flush=True)
time.sleep(600)
"""


def _process_alive(pid: int) -> bool:
    """True while ``pid`` runs; an exited but unreaped zombie counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # no procfs: kill(0) is the best answer available
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_worker_exits_when_its_server_is_sigkilled():
    # A SIGKILLed server sends no ("stop",), and the worker holds its
    # inbox's write end, so only the parent-liveness poll can end it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    server = subprocess.Popen(
        [sys.executable, "-c", _SERVER_STAND_IN], stdout=subprocess.PIPE, text=True, env=env
    )
    worker_pid = None
    try:
        worker_pid = int(server.stdout.readline())
        server.kill()
        server.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while _process_alive(worker_pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _process_alive(worker_pid), "worker outlived its killed server"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
        if worker_pid is not None and _process_alive(worker_pid):
            os.kill(worker_pid, signal.SIGKILL)
