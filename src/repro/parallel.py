"""Worker-count-invariant chunk engine for the sampling/decoding hot path.

Every shot the package samples and decodes goes through one chunk plan and
one chunk loop, both defined here.

The plan splits a basis run into *chunks of fixed size*
(:data:`DEFAULT_CHUNK_SHOTS`), never into per-worker shards: the chunk
layout — and the per-chunk ``SeedSequence.spawn`` stream each chunk draws
from — depends only on the shot count, so the sampled rates are **bit
identical for every worker count**.  Deriving shards from the worker count
instead (the original ``Pipeline`` behaviour) silently changed the seed
streams, and therefore the measured rates, whenever a run moved to a
machine with a different core count — exactly the reproducibility trap
parallel-benchmarking folklore warns about.

The loop (:func:`_chunk_results`) runs the chunks in process, with one
decoder per basis run, or speculatively on a process pool, and hands the
results back strictly in chunk order.  It has two consumers:

* :func:`sample_and_decode` keeps every chunk's batch and predictions
  (what :attr:`repro.api.Pipeline.syndromes` exposes);
* :func:`adaptive_sample_and_decode` keeps only per-chunk
  ``(shots, errors)`` counts and stops as soon as a
  :class:`~repro.analysis.stats.StoppingRule` says so.  A fixed-shot
  estimate is the same call with a rule that never stops early, so its
  memory is bounded by one chunk, not by the shot count.

:func:`repro.sim.estimate_logical_error_rates`, the serial and pooled
:class:`repro.core.ScheduleEvaluator` and :class:`repro.api.Pipeline` all
reach this loop, so for the same seed and shot count they report the same
rates bit for bit.

The chunk tasks are free functions so they pickle into
:class:`~concurrent.futures.ProcessPoolExecutor` workers; decoder factories
and samplers crossing the pool boundary must be picklable (everything built
by ``repro.api.registries`` is).
"""

from __future__ import annotations

from collections.abc import Iterator
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
    from concurrent.futures import Executor, Future

    from repro.analysis.stats import StoppingRule
    from repro.sim.dem import DetectorErrorModel
    from repro.sim.estimator import DecoderFactory

__all__ = [
    "DEFAULT_CHUNK_SHOTS",
    "AdaptiveEstimate",
    "adaptive_sample_and_decode",
    "chunk_error_counts",
    "chunk_sizes",
    "chunk_streams",
    "run_chunk",
    "merge_chunks",
    "store_satisfies_rule",
    "sample_and_decode",
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


def chunk_streams(
    stream: "np.random.SeedSequence | None", count: int
) -> "list[np.random.SeedSequence | None]":
    """One independent seed stream per chunk.

    A single chunk receives ``stream`` itself; multiple chunks each
    receive a spawned child.
    """
    if count <= 1:
        return [stream]
    if stream is None:
        return [None] * count
    return stream.spawn(count)


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
    function of ``(shots, stream)``.  In process, the chunk loop passes the
    one ``decoder`` it built for the basis run; a pool worker gets ``None``
    and builds its own from the factory, because decoder *instances*
    (matching graphs, lookup tables) need not be picklable.  Decoding
    routes through :func:`repro.sim.estimator.decode_predictions`, so the
    sampler's ``packed_detectors`` words feed the decoder's dedup front end
    and only the unique syndromes of a chunk are ever decoded.
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

    The count-only unit of the adaptive engine, the result cache and the
    ``repro serve`` workers: the batch collapses to its error count, so
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
    packed = [batch.packed_detectors for batch in batches]
    merged = SampleBatch(
        detectors=np.concatenate([batch.detectors for batch in batches]),
        observables=np.concatenate([batch.observables for batch in batches]),
        packed_detectors=(
            np.concatenate(packed) if all(p is not None for p in packed) else None
        ),
    )
    return merged, np.concatenate(predictions)


def _chunk_results(
    task,
    dem: "DetectorErrorModel",
    decoder_factory: "DecoderFactory",
    sampler,
    sizes: list[int],
    streams: list,
    *,
    pool: "Executor | None" = None,
    lookahead: int = 1,
    replay=lambda index: None,
) -> Iterator[tuple[object, bool]]:
    """The chunk loop: yield ``(result, fresh)`` per chunk, strictly in chunk order.

    ``task`` is :func:`run_chunk` or :func:`chunk_error_counts`.
    ``replay(index)`` may return a stored result, which is yielded with
    ``fresh=False`` instead of running that chunk.  In process, one decoder
    is built on the first fresh chunk and serves every later one (decoding
    is a pure function of the DEM and the syndrome, so this is
    bit-identical to per-chunk rebuilds).  On a ``pool`` up to ``lookahead``
    chunks from the current one run speculatively; a consumer that stops
    early closes the generator, which cancels the chunks still queued.
    Neither the pool nor the lookahead can change a result or its position.
    """
    pending: "dict[int, Future]" = {}
    submitted = 0  # chunks below this index were considered for submission
    decoder = None
    try:
        for index, size in enumerate(sizes):
            stored = replay(index)
            if stored is not None:
                yield stored, False
            elif pool is None:
                if decoder is None:
                    decoder = decoder_factory(dem)
                yield task(dem, decoder_factory, sampler, size, streams[index], decoder), True
            else:
                horizon = min(len(sizes), index + max(1, lookahead))
                for ahead in range(max(submitted, index), horizon):
                    if replay(ahead) is None:
                        pending[ahead] = pool.submit(
                            task, dem, decoder_factory, sampler, sizes[ahead], streams[ahead]
                        )
                submitted = max(submitted, horizon)
                yield pending.pop(index).result(), True
    finally:
        for future in pending.values():
            future.cancel()


def sample_and_decode(
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
    sizes = chunk_sizes(shots, chunk_shots)
    streams = chunk_streams(stream, len(sizes))
    results = _chunk_results(
        run_chunk, dem, decoder_factory, sampler, sizes, streams, pool=pool, lookahead=len(sizes)
    )
    return merge_chunks([result for result, _fresh in results], dem)


# ----------------------------------------------------------------------
# Count-only chunk streaming (fixed-shot and precision-targeted)
# ----------------------------------------------------------------------
@dataclass
class AdaptiveEstimate:
    """Outcome of one adaptively sampled binomial estimation.

    ``chunk_counts`` records the consumed prefix as ``(shots, errors)`` per
    chunk in chunk order — by construction bit-identical to the first
    ``len(chunk_counts)`` chunks of the fixed-shot run whose budget equals
    the stopping rule's ``max_shots``.  ``cache_hits`` / ``fresh_chunks``
    split the prefix into chunks replayed from a :class:`repro.cache
    .ChunkStore` and chunks actually sampled in this process.
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


def store_satisfies_rule(
    rule: "StoppingRule", store, *, chunk_shots: int | None = None
) -> bool:
    """True when cached summaries alone carry ``rule`` to its stopping point.

    Walks the same chunk plan and rule evaluation as
    :func:`adaptive_sample_and_decode`, but consults only the store — no
    sampling, no decoding.  Callers use it to skip expensive setup (e.g.
    process-pool startup) for fully warm-cache replays; a ``True`` answer
    guarantees the engine will report ``fresh_chunks == 0``.
    """
    if store is None:
        return False
    sizes = chunk_sizes(rule.max_shots, chunk_shots)
    shots = errors = 0
    for index, size in enumerate(sizes):
        summary = store.get(index)
        if summary is None or summary.shots != size:
            return False
        shots += summary.shots
        errors += summary.errors
        if rule.converged(errors, shots):
            return True
    return True  # the whole plan is cached


def adaptive_sample_and_decode(
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
    ``rule.max_shots`` exactly as :func:`sample_and_decode` would derive
    them, and the chunk loop hands back counts strictly in chunk order with
    the rule evaluated after each one.  Consequently:

    * the consumed prefix is bit-identical to the fixed-shot run at
      ``shots=rule.max_shots`` truncated to the same chunks, and a rule
      without a precision target consumes exactly that fixed-shot run;
    * the stopping point depends only on the accumulated counts, so the
      result is invariant to ``pool``/``lookahead`` — a pool merely
      *speculates* on upcoming chunks (results of chunks past the stopping
      point are discarded and never stored).

    ``store`` (a :class:`repro.cache.ChunkStore`) replays previously
    persisted chunk counts instead of resampling them and persists every
    freshly consumed chunk, which is what makes interrupted or
    coarser-precision runs resumable and refinable across processes.
    """
    sizes = chunk_sizes(rule.max_shots, chunk_shots)
    streams = chunk_streams(stream, len(sizes))
    cached: dict[int, tuple[int, int] | None] = {}

    def replay(index: int) -> "tuple[int, int] | None":
        if index not in cached:
            summary = store.get(index) if store is not None else None
            # A summary whose size disagrees with the plan belongs to a
            # different chunk layout (stale cache); treat it as a miss.
            if summary is not None and summary.shots != sizes[index]:
                summary = None
            cached[index] = None if summary is None else (summary.shots, summary.errors)
        return cached[index]

    estimate = AdaptiveEstimate()
    chunks = _chunk_results(
        chunk_error_counts,
        dem,
        decoder_factory,
        sampler,
        sizes,
        streams,
        pool=pool,
        lookahead=lookahead,
        replay=replay,
    )
    with closing(chunks):
        for index, ((shots, errors), fresh) in enumerate(chunks):
            if fresh:
                estimate.fresh_chunks += 1
                if store is not None:
                    store.put(index, shots, errors)
            else:
                estimate.cache_hits += 1
            estimate.shots += shots
            estimate.errors += errors
            estimate.chunk_counts.append((shots, errors))
            if rule.converged(estimate.errors, estimate.shots):
                estimate.converged = True
                break
    return estimate
