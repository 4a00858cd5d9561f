"""The ``repro serve`` worker process.

A worker is a plain loop over its inbox queue: it receives leased
:class:`~repro.serve.jobs.ChunkTask` batches, takes each chunk through the
offline chunk loop's own per-chunk step — :func:`repro.parallel.chunk_step`:
replay a stored chunk, or sample and decode it with the basis's one
:class:`~repro.parallel.ChunkRunner`, then publish it — and reports one
``(shots, errors)`` summary per chunk on the shared outbox.

**Determinism.**  The per-job context (code → noise → schedule → circuit →
DEM, one decoder per basis) is rebuilt from the
:class:`~repro.api.spec.RunSpec` via :class:`repro.api.Pipeline`'s staged
attributes, and each basis' plan comes from :func:`repro.parallel.chunk_plan`
over the :func:`repro.sim.estimator.basis_streams` stream — the call the
offline engine makes.  A chunk's content therefore depends only on
``(spec, basis, index)``, never on which worker executes it or when; that
is what lets the scheduler re-run a killed worker's chunks and still
finish with a bit-identical result.

**Cache.**  With a cache directory configured, the step consults the
shared content-addressed :class:`repro.cache.ResultCache` before sampling
and publishes every fresh chunk into it, so concurrent jobs, server
restarts and offline runs all share one pool of chunk summaries.

Messages (plain tuples, picklable across ``spawn``):

* inbox: ``("run", [ChunkTask, ...], {job_id: spec_payload})`` or
  ``("stop",)`` — the spec payloads cover every job named by the tasks, so
  a worker joining a job mid-flight can always rebuild its context
* outbox: ``("result", worker_id, task, shots, errors, cached, info)``
  or ``("error", worker_id, job_id, message)``

``info`` carries the pipeline facts the server needs to assemble an
offline-identical :class:`~repro.api.pipeline.RunResult`: schedule depth
and (for synthesising schedulers) the evaluation counters.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from functools import partial

from repro.api.pipeline import Pipeline
from repro.api.spec import RunSpec
from repro.parallel import (
    DEFAULT_CHUNK_SHOTS,
    ChunkRunner,
    chunk_error_counts,
    chunk_plan,
    chunk_step,
)
from repro.serve.jobs import ChunkTask
from repro.sim.estimator import basis_streams

__all__ = ["JobContext", "worker_main"]

#: Seconds a worker waits on its inbox before checking that the server
#: process is still alive.  A SIGKILLed server cannot send ``("stop",)``,
#: and the worker holds the inbox's write end itself, so it never sees EOF;
#: without this check it would live on as an orphan, publishing chunks.
PARENT_POLL_SECONDS = 1.0


class JobContext:
    """One worker's cached execution state for one job.

    Built lazily from the spec; the pipeline's staged attributes mean a
    fully cache-replayed job only pays for the schedule (needed for
    ``depth``), never for DEM extraction, decoder construction or sampling.
    Like the in-process chunk loop, a context builds one
    :class:`~repro.parallel.ChunkRunner` (so one decoder) per basis and
    reuses it for every chunk it runs.
    """

    def __init__(self, spec, cache=None) -> None:
        self.spec = spec
        self.pipeline = Pipeline(spec)
        self.plans = {
            basis: chunk_plan(spec.budget.plan_shots, stream, DEFAULT_CHUNK_SHOTS)
            for basis, stream in basis_streams(spec.eval_seed())
        }
        self.stores = {}
        if cache is not None:
            self.stores = {
                basis: cache.chunk_store(spec, basis, DEFAULT_CHUNK_SHOTS) for basis in self.plans
            }
        self._runners: dict[str, ChunkRunner] = {}
        self._info: dict | None = None

    def info(self) -> dict:
        """Schedule depth and synthesis counters (forces the schedule stage)."""
        if self._info is None:
            synthesis = self.pipeline.synthesis
            self._info = {
                "depth": self.pipeline.schedule.depth,
                "synthesis_evaluations": synthesis.evaluations if synthesis else None,
                "baseline_overall": (
                    synthesis.baseline_rates.overall if synthesis else None
                ),
            }
        return self._info

    def _run_fresh(self, basis: str, shots: int, stream):
        """Sample and decode one chunk with the basis's runner, built on first use."""
        runner = self._runners.get(basis)
        if runner is None:
            pipeline = self.pipeline
            runner = self._runners[basis] = ChunkRunner(
                chunk_error_counts,
                pipeline.dem[basis],
                pipeline.decoder_factory,
                pipeline.samplers[basis],
            )
        return runner(shots, stream)

    def run_chunk(self, task: ChunkTask) -> "tuple[int, int, bool]":
        """Replay or execute one chunk: ``(shots, errors, cached)``."""
        (shots, errors), fresh = chunk_step(
            self.plans[task.basis],
            task.index,
            self.stores.get(task.basis),
            partial(self._run_fresh, task.basis),
        )
        return shots, errors, not fresh


def worker_main(
    worker_id: str,
    inbox,
    outbox,
    cache_dir: str | None = None,
    throttle: float = 0.0,
) -> None:
    """Worker-process entry point (the ``spawn`` target).

    ``throttle`` sleeps that many seconds before each chunk — a debug/test
    knob that widens the race windows the lease machinery is built for
    (the kill-a-worker integration test uses it); production servers leave
    it at ``0.0``.  The loop ends on ``("stop",)`` or, within
    :data:`PARENT_POLL_SECONDS`, once the server process has died.
    """
    parent = multiprocessing.parent_process()
    cache = None
    if cache_dir:
        from repro.cache import ResultCache

        cache = ResultCache(cache_dir)
    contexts: dict[str, JobContext] = {}
    while parent is None or parent.is_alive():
        try:
            message = inbox.get(timeout=PARENT_POLL_SECONDS)
        except queue.Empty:
            continue
        if message[0] == "stop":
            return
        _, tasks, specs = message
        for task in tasks:
            try:
                context = contexts.get(task.job_id)
                if context is None:
                    spec = RunSpec.from_dict(specs[task.job_id])
                    context = contexts[task.job_id] = JobContext(spec, cache)
                if throttle > 0.0:
                    time.sleep(throttle)
                shots, errors, cached = context.run_chunk(task)
                outbox.put(
                    ("result", worker_id, task, shots, errors, cached, context.info())
                )
            except Exception as error:  # surface, don't crash the loop
                outbox.put(("error", worker_id, task.job_id, f"{type(error).__name__}: {error}"))
