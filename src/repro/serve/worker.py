"""The ``repro serve`` worker process.

A worker is a plain loop over its inbox queue: it receives leased
:class:`~repro.serve.jobs.ChunkTask` batches, executes each chunk through
exactly the machinery the offline path uses —
:func:`repro.parallel.chunk_error_counts` over the job's detector error
model, with the chunk's own spawned seed stream — and reports one
``(shots, errors)`` summary per chunk on the shared outbox.

**Determinism.**  The per-job context (code → noise → schedule → circuit →
DEM, the decoder factory, and the per-basis chunk streams) is rebuilt from
the :class:`~repro.api.spec.RunSpec` via :class:`repro.api.Pipeline`'s
staged attributes, and the chunk streams are derived with
:func:`repro.parallel.chunk_streams` from
:func:`repro.sim.estimator.basis_streams` — the identical derivation the
offline engine performs.  A chunk's content therefore depends only on
``(spec, basis, index)``, never on which worker executes it or when; that
is what lets the scheduler re-run a killed worker's chunks and still
finish with a bit-identical result.

**Cache.**  With a cache directory configured, the worker consults the
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

import time

from repro.api.pipeline import Pipeline
from repro.api.spec import RunSpec
from repro.parallel import DEFAULT_CHUNK_SHOTS, chunk_error_counts, chunk_sizes, chunk_streams
from repro.serve.jobs import ChunkTask
from repro.sim.estimator import basis_streams

__all__ = ["JobContext", "worker_main"]


class JobContext:
    """One worker's cached execution state for one job.

    Built lazily from the spec; the pipeline's staged attributes mean a
    fully cache-replayed job only pays for the schedule (needed for
    ``depth``), never for DEM extraction or sampling.
    """

    def __init__(self, spec, cache=None) -> None:
        self.spec = spec
        self.pipeline = Pipeline(spec)
        sizes = chunk_sizes(spec.budget.plan_shots, DEFAULT_CHUNK_SHOTS)
        self.streams = {
            basis: chunk_streams(stream, len(sizes))
            for basis, stream in basis_streams(spec.eval_seed())
        }
        self.stores = {}
        if cache is not None:
            self.stores = {
                basis: cache.chunk_store(spec, basis, DEFAULT_CHUNK_SHOTS)
                for basis in self.streams
            }
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

    def run_chunk(self, task: ChunkTask) -> "tuple[int, int, bool]":
        """Execute (or cache-replay) one chunk: ``(shots, errors, cached)``.

        A fresh chunk samples and decodes through the same batch-first
        stack as the in-process pool (``chunk_error_counts`` →
        ``run_chunk`` → ``decode_predictions``): packed syndromes feed the
        decoder's dedup front end, so a served chunk decodes only its
        unique syndromes — and stays bit-identical to local execution.
        """
        store = self.stores.get(task.basis)
        if store is not None:
            summary = store.get(task.index)
            if summary is not None and summary.shots == task.shots:
                return summary.shots, summary.errors, True
        shots, errors = chunk_error_counts(
            self.pipeline.dem[task.basis],
            self.pipeline.decoder_factory,
            self.pipeline.samplers[task.basis],
            task.shots,
            self.streams[task.basis][task.index],
        )
        if store is not None:
            store.put(task.index, shots, errors)
        return shots, errors, False


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
    it at ``0.0``.
    """
    cache = None
    if cache_dir:
        from repro.cache import ResultCache

        cache = ResultCache(cache_dir)
    contexts: dict[str, JobContext] = {}
    while True:
        message = inbox.get()
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
