"""Worker-count-invariant chunk engine for the sampling/decoding hot path.

Every shot the package samples and decodes goes through one chunk plan, one
replay rule, one chunk step and one consume step, all defined here.

The plan (:func:`chunk_plan`) splits a basis run into *chunks of fixed
size* (:data:`DEFAULT_CHUNK_SHOTS`), never into per-worker shards: the chunk
layout — and the per-chunk ``SeedSequence.spawn`` stream each chunk draws
from — depends only on the shot count, so the sampled rates are **bit
identical for every worker count**.  Deriving shards from the worker count
instead (the original ``Pipeline`` behaviour) silently changed the seed
streams, and therefore the measured rates, whenever a run moved to a
machine with a different core count — exactly the reproducibility trap
parallel-benchmarking folklore warns about.

A chunk is replayed from a :class:`repro.cache.ChunkStore` only when
:meth:`ChunkPlan.replay` accepts its summary; otherwise :func:`chunk_step`
runs it with the basis run's one decoder (:class:`ChunkRunner`) and
publishes it.  The loop (:func:`_chunk_results`) takes that step chunk by
chunk in process, or speculates on a process pool, and hands the results
back strictly in chunk order.  Its consumers:

* :func:`sample_and_decode` — the one logical-error-rate path — folds
  per-chunk ``(shots, errors)`` counts into an :class:`AdaptiveEstimate`
  through :meth:`AdaptiveEstimate.consume`, which stops the run as soon as
  a :class:`~repro.analysis.stats.StoppingRule` says so.  A fixed-shot run
  is a rule without a precision target, which consumes the whole plan;
  either way memory is bounded by one chunk, not by the shot count;
* :func:`sample_batches` keeps every chunk's batch and predictions (only
  :attr:`repro.api.Pipeline.syndromes` / ``.predictions`` use it);
* the ``repro serve`` fleet, which splits the loop across processes: each
  worker runs leased chunks through :func:`chunk_step`
  (:class:`repro.serve.worker.JobContext`), and the scheduler puts the
  out-of-order results back in chunk order and feeds them to the same
  :meth:`AdaptiveEstimate.consume` (:class:`repro.serve.jobs.BasisProgress`).

:func:`repro.sim.estimate_logical_error_rates`, the serial and pooled
:class:`repro.core.ScheduleEvaluator`, :class:`repro.api.Pipeline` and the
``repro serve`` scheduler all reduce these estimates through
:func:`repro.sim.estimator.rates_from_estimates`, so for the same seed and
budget they report the same rates bit for bit.

The chunk tasks are free functions so they pickle into
:class:`~concurrent.futures.ProcessPoolExecutor` workers; decoder factories
and samplers crossing the pool boundary must be picklable (everything built
by ``repro.api.registries`` is).
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import Future
from contextlib import closing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.bitops import pack_rows
from repro.sim.estimator import count_wrong, decode_predictions

# Only samplers call sample_detector_error_model; the binding stays because
# perfbench/tracing.py patches it in this module.
from repro.sim.sampler import SampleBatch, sample_detector_error_model  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Executor

    from repro.analysis.stats import StoppingRule
    from repro.sim.dem import DetectorErrorModel
    from repro.sim.estimator import DecoderFactory

__all__ = [
    "DEFAULT_CHUNK_SHOTS",
    "AdaptiveEstimate",
    "ChunkPlan",
    "ChunkRunner",
    "chunk_error_counts",
    "chunk_plan",
    "chunk_sizes",
    "chunk_step",
    "merge_chunks",
    "run_chunk",
    "sample_and_decode",
    "sample_batches",
]

#: Fixed shard granularity of the hot path.  The worker-invariance
#: guarantee only requires that it never depend on the worker count; the
#: value trades per-chunk overhead (stream spawn, pool dispatch, DEM
#: pickling) against intra-basis parallelism — a run only spreads across
#: more than ``ceil(shots / 1024)`` workers per basis once it spans that
#: many chunks (both bases always run concurrently on a pool regardless).
DEFAULT_CHUNK_SHOTS = 1024


def chunk_sizes(shots: int, chunk_shots: int | None = None) -> list[int]:
    """Split ``shots`` into balanced chunks of at most ``chunk_shots``.

    The result depends only on ``shots`` (and the fixed chunk size), never
    on the worker count — the foundation of the invariance guarantee.
    ``shots <= 0`` yields no chunks.
    """
    if chunk_shots is None:
        chunk_shots = DEFAULT_CHUNK_SHOTS
    if shots <= 0:
        return []
    chunks = -(-shots // max(1, chunk_shots))
    base, remainder = divmod(shots, chunks)
    return [base + (1 if index < remainder else 0) for index in range(chunks)]


@dataclass(frozen=True)
class ChunkPlan:
    """The chunk plan of one basis run: chunk sizes and one seed stream each."""

    sizes: list[int]
    streams: list

    def replay(self, store, index: int) -> "tuple[int, int] | None":
        """The replay rule: chunk ``index``'s stored ``(shots, errors)``, or ``None``.

        A summary counts only when its ``shots`` equals the planned size; one
        that disagrees belongs to a different chunk layout (a stale cache)
        and is a miss.  Reads ``store`` once; ``store=None`` replays nothing.
        """
        if store is None:
            return None
        summary = store.get(index)
        if summary is None or summary.shots != self.sizes[index]:
            return None
        return summary.shots, summary.errors


def chunk_plan(
    shots: int, stream: "np.random.SeedSequence | None", chunk_shots: int | None = None
) -> ChunkPlan:
    """The plan of a ``shots``-shot basis run drawing from ``stream``.

    Sizes come from :func:`chunk_sizes`.  A single chunk receives ``stream``
    itself; multiple chunks each receive a spawned child.
    """
    sizes = chunk_sizes(shots, chunk_shots)
    if len(sizes) > 1 and stream is not None:
        return ChunkPlan(sizes, stream.spawn(len(sizes)))
    return ChunkPlan(sizes, [stream] * max(1, len(sizes)))


def run_chunk(
    dem: "DetectorErrorModel",
    decoder_factory: "DecoderFactory",
    sampler,
    shots: int,
    stream: "np.random.SeedSequence | None",
    decoder=None,
) -> tuple[SampleBatch, np.ndarray]:
    """Sample and decode one chunk (also the unit shipped to pool workers).

    ``sampler`` is any object with ``sample(shots, seed=...) -> SampleBatch``
    (built by ``repro.api.registries.samplers``); its output must be a pure
    function of ``(shots, stream)``.  In process, :class:`ChunkRunner`
    passes the one ``decoder`` it built for the basis run; a pool worker
    gets ``None`` and builds its own from the factory, because decoder
    *instances* (matching graphs, lookup tables) need not be picklable.
    Decoding routes through :func:`repro.sim.estimator.decode_predictions`,
    so the sampler's ``packed_detectors`` words feed the decoder's dedup
    front end and only the unique syndromes of a chunk are ever decoded.
    """
    batch = sampler.sample(shots, seed=stream)
    if decoder is None:
        decoder = decoder_factory(dem)
    return batch, decode_predictions(decoder, batch)


def chunk_error_counts(
    dem: "DetectorErrorModel",
    decoder_factory: "DecoderFactory",
    sampler,
    shots: int,
    stream: "np.random.SeedSequence | None",
    decoder=None,
) -> tuple[int, int]:
    """:func:`run_chunk` reduced to ``(shots, logical errors)``.

    The count-only unit of :func:`sample_and_decode`, the result cache and
    the ``repro serve`` workers: the batch collapses to its error count, so
    chunks are cheap to ship, merge and persist.
    """
    batch, predictions = run_chunk(dem, decoder_factory, sampler, shots, stream, decoder)
    return batch.num_shots, count_wrong(predictions, batch)


def merge_chunks(
    results: "list[tuple[SampleBatch, np.ndarray]]", dem: "DetectorErrorModel"
) -> tuple[SampleBatch, np.ndarray]:
    """Concatenate chunk results in chunk order.

    An empty result list (``shots=0``) returns a well-formed empty batch
    instead of crashing in ``zip(*[])``.
    """
    if not results:
        detectors = np.zeros((0, dem.num_detectors), dtype=np.uint8)
        empty = SampleBatch(
            detectors=detectors,
            observables=np.zeros((0, dem.num_observables), dtype=np.uint8),
            packed_detectors=pack_rows(detectors),
        )
        return empty, np.zeros((0, dem.num_observables), dtype=np.uint8)
    batches, predictions = zip(*results)
    merged = SampleBatch(
        detectors=np.concatenate([batch.detectors for batch in batches]),
        observables=np.concatenate([batch.observables for batch in batches]),
        packed_detectors=np.concatenate([batch.packed_detectors for batch in batches]),
    )
    return merged, np.concatenate(predictions)


class ChunkRunner:
    """Runs the fresh chunks of one basis run in process with one decoder.

    ``task`` is :func:`run_chunk` or :func:`chunk_error_counts`.  The
    decoder is built on the first fresh chunk and serves every later one
    (decoding is a pure function of the DEM and the syndrome, so this is
    bit-identical to per-chunk rebuilds); a run whose every chunk replays
    builds none.
    """

    def __init__(self, task, dem: "DetectorErrorModel", decoder_factory, sampler) -> None:
        self.task, self.dem, self.sampler = task, dem, sampler
        self.decoder_factory = decoder_factory
        self.decoder = None

    def __call__(self, shots: int, stream: "np.random.SeedSequence | None"):
        if self.decoder is None:
            self.decoder = self.decoder_factory(self.dem)
        return self.task(self.dem, self.decoder_factory, self.sampler, shots, stream, self.decoder)


def _publish(store, index: int, counts):
    """Persist a fresh chunk's ``(shots, errors)`` to ``store`` (if any)."""
    if store is not None:
        store.put(index, *counts)
    return counts


def chunk_step(plan: ChunkPlan, index: int, store, run) -> "tuple[object, bool]":
    """One in-process step of the chunk loop: ``(result, fresh)`` for chunk ``index``.

    Replays the chunk from ``store`` when :meth:`ChunkPlan.replay` accepts
    it (``fresh=False``); otherwise ``run(size, stream)`` — a
    :class:`ChunkRunner` — computes it and the counts are published to
    ``store``.
    """
    stored = plan.replay(store, index)
    if stored is not None:
        return stored, False
    return _publish(store, index, run(plan.sizes[index], plan.streams[index])), True


def _chunk_results(
    task,
    dem: "DetectorErrorModel",
    decoder_factory: "DecoderFactory",
    sampler,
    plan: ChunkPlan,
    *,
    pool: "Executor | None" = None,
    lookahead: int = 1,
    store=None,
) -> Iterator[tuple[object, bool]]:
    """The chunk loop: yield ``(result, fresh)`` per chunk, strictly in chunk order.

    In process, every chunk is one :func:`chunk_step` with one
    :class:`ChunkRunner`.  On a ``pool`` a chunk that replays is yielded at
    once; only when the loop must wait on the pool does it keep up to
    ``lookahead`` chunks in flight, so a run the store carries to its stop
    submits nothing and the pool starts no process.  The store is read once
    per chunk, and a fresh chunk is published when it is yielded; a consumer
    that stops early closes the generator, which cancels the chunks still
    queued, so chunks past the stopping point are never published.  Neither
    the pool nor the lookahead can change a result or its position.
    """
    count = len(plan.sizes)
    if pool is None:
        run = ChunkRunner(task, dem, decoder_factory, sampler)
        for index in range(count):
            yield chunk_step(plan, index, store, run)
        return

    def submit(index: int) -> Future:
        return pool.submit(
            task, dem, decoder_factory, sampler, plan.sizes[index], plan.streams[index]
        )

    pending: "dict[int, Future | tuple[int, int]]" = {}
    looked = 0  # chunks below this index were replayed or submitted ahead
    try:
        for index in range(count):
            result = pending.pop(index, None)
            if result is None:
                result = plan.replay(store, index)
            if result is not None and not isinstance(result, Future):
                yield result, False
                continue
            if result is None:
                result = submit(index)
            horizon = min(count, index + max(1, lookahead))
            for ahead in range(max(looked, index + 1), horizon):
                stored = plan.replay(store, ahead)
                pending[ahead] = stored if stored is not None else submit(ahead)
            looked = max(looked, horizon)
            yield _publish(store, index, result.result()), True
    finally:
        for item in pending.values():
            if isinstance(item, Future):
                item.cancel()


def sample_batches(
    dem: "DetectorErrorModel",
    decoder_factory: "DecoderFactory",
    sampler,
    shots: int,
    stream: "np.random.SeedSequence | None",
    *,
    pool: "Executor | None" = None,
    chunk_shots: int | None = None,
) -> tuple[SampleBatch, np.ndarray]:
    """Run every chunk of a ``shots``-shot basis run and keep the batches.

    Returns the batches and predictions concatenated in chunk order.  On a
    ``pool`` every chunk is submitted at once (nothing stops early, so no
    speculation is wasted); the output is the same for every worker count.
    """
    plan = chunk_plan(shots, stream, chunk_shots)
    results = _chunk_results(
        run_chunk, dem, decoder_factory, sampler, plan, pool=pool, lookahead=len(plan.sizes)
    )
    return merge_chunks([result for result, _fresh in results], dem)


# ----------------------------------------------------------------------
# Count-only chunk streaming: the logical-error-rate path
# ----------------------------------------------------------------------
@dataclass
class AdaptiveEstimate:
    """The consumed prefix of one basis run's chunk plan.

    ``chunk_counts`` records the prefix as ``(shots, errors)`` per chunk in
    chunk order — by construction bit-identical to the first
    ``len(chunk_counts)`` chunks of the fixed-shot run (a rule without a
    precision target, which consumes every chunk).  ``cache_hits`` /
    ``fresh_chunks`` split the prefix into chunks replayed from a
    :class:`repro.cache.ChunkStore` and chunks actually sampled.
    """

    shots: int = 0
    errors: int = 0
    converged: bool = False
    chunk_counts: list[tuple[int, int]] = field(default_factory=list)
    cache_hits: int = 0
    fresh_chunks: int = 0

    @property
    def rate(self) -> float:
        """Observed error fraction (0.0 before any shot is consumed)."""
        return self.errors / self.shots if self.shots else 0.0

    @property
    def chunks(self) -> int:
        return len(self.chunk_counts)

    def consume(
        self, shots: int, errors: int, fresh: bool, rule: "StoppingRule", planned: int
    ) -> bool:
        """Fold the next chunk's counts into the prefix; True once the run stops.

        The one consume step of the engine, taken in chunk order by
        :func:`sample_and_decode` and by the serve scheduler.  The run stops
        when ``rule`` converges on the accumulated counts or when all
        ``planned`` chunks are consumed.
        """
        self.shots += shots
        self.errors += errors
        self.chunk_counts.append((shots, errors))
        if fresh:
            self.fresh_chunks += 1
        else:
            self.cache_hits += 1
        self.converged = rule.converged(self.errors, self.shots)
        return self.converged or len(self.chunk_counts) >= planned


def sample_and_decode(
    dem: "DetectorErrorModel",
    decoder_factory: "DecoderFactory",
    sampler,
    stream: "np.random.SeedSequence | None",
    rule: "StoppingRule",
    *,
    chunk_shots: int | None = None,
    pool: "Executor | None" = None,
    lookahead: int = 1,
    store=None,
) -> AdaptiveEstimate:
    """Stream the fixed chunk plan through ``rule`` until it says stop.

    The chunk layout and per-chunk seed streams are derived for
    ``rule.max_shots`` exactly as :func:`sample_batches` would derive them,
    and the chunk loop hands back counts strictly in chunk order to
    :meth:`AdaptiveEstimate.consume`.  Consequently:

    * a rule without a precision target consumes the whole plan — the
      fixed-shot run at ``shots=rule.max_shots`` — and any earlier stop is
      bit-identical to that run truncated to the same chunks;
    * the stopping point depends only on the accumulated counts, so the
      result is invariant to ``pool``/``lookahead`` — a pool merely
      *speculates* on upcoming chunks (results of chunks past the stopping
      point are discarded and never stored).

    ``store`` (a :class:`repro.cache.ChunkStore`) replays previously
    persisted chunk counts instead of resampling them and persists every
    freshly consumed chunk, which is what makes interrupted or
    coarser-precision runs resumable and refinable across processes.
    """
    plan = chunk_plan(rule.max_shots, stream, chunk_shots)
    planned = len(plan.sizes)
    estimate = AdaptiveEstimate()
    chunks = _chunk_results(
        chunk_error_counts,
        dem,
        decoder_factory,
        sampler,
        plan,
        pool=pool,
        lookahead=lookahead,
        store=store,
    )
    with closing(chunks):
        for (shots, errors), fresh in chunks:
            if estimate.consume(shots, errors, fresh, rule, planned):
                break
    return estimate
