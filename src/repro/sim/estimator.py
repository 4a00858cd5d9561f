"""Decoder-in-the-loop logical error rate estimation.

This is the evaluation function at the heart of AlphaSyndrome (Section 4.4):
given a code, a schedule, a noise model and a decoder, build the Figure 10
sampling circuits for both logical bases, sample them, decode every shot and
report the logical X / logical Z / overall error rates.  The overall score
used by the MCTS search is ``1 / overall`` as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.analysis.stats import StoppingRule
from repro.circuits.memory import build_memory_experiment
from repro.codes.base import StabilizerCode
from repro.noise.models import NoiseModel
from repro.scheduling.schedule import Schedule
from repro.seeding import spawn_streams
from repro.sim.dem import DetectorErrorModel, build_detector_error_model

# Only samplers call sample_detector_error_model; the binding stays because
# perfbench/tracing.py patches it in this module.
from repro.sim.sampler import DemSampler, SampleBatch, sample_detector_error_model  # noqa: F401

__all__ = [
    "LogicalErrorRates",
    "basis_streams",
    "count_wrong",
    "decode_predictions",
    "estimate_logical_error_rates",
    "estimate_logical_error_rates_adaptive",
    "fraction_wrong",
    "rates_from_adaptive_estimates",
]

#: A decoder factory takes a DEM and returns an object with ``decode_batch``.
DecoderFactory = Callable[[DetectorErrorModel], "object"]


@dataclass
class LogicalErrorRates:
    """Logical error rates of a schedule under a noise model and decoder.

    ``shots`` is the per-basis sample size.  Adaptive estimation may stop
    the two bases at different sizes; then ``shots`` is the larger of the
    two, ``shots_by_basis`` holds the per-basis counts and ``converged``
    reports whether every basis met its precision target (fixed-shot runs
    leave both extra fields at ``None``).
    """

    error_x: float
    error_z: float
    shots: int
    depth: int
    shots_by_basis: "dict[str, int] | None" = None
    converged: "bool | None" = None

    @property
    def overall(self) -> float:
        """Probability that at least one logical error (X or Z) occurred."""
        return 1.0 - (1.0 - self.error_x) * (1.0 - self.error_z)

    @property
    def score(self) -> float:
        """The MCTS evaluation score ``1 / overall`` (capped for zero errors)."""
        overall = self.overall
        if overall <= 0.0:
            return float("inf")
        return 1.0 / overall

    def __str__(self) -> str:
        return (
            f"err_x={self.error_x:.3e} err_z={self.error_z:.3e} "
            f"overall={self.overall:.3e} depth={self.depth}"
        )


def count_wrong(predictions: np.ndarray, batch: SampleBatch) -> int:
    """Number of shots where a prediction misses at least one observable.

    The integer form of :func:`fraction_wrong`; the adaptive engine
    accumulates these counts across chunks so a resumed or early-stopped run
    scores exactly like the concatenated batch would.
    """
    if predictions.shape != batch.observables.shape:
        raise ValueError(
            f"decoder returned predictions of shape {predictions.shape}, "
            f"expected {batch.observables.shape}"
        )
    if batch.num_shots == 0:
        return 0
    return int(np.count_nonzero((predictions != batch.observables).any(axis=1)))


def fraction_wrong(predictions: np.ndarray, batch: SampleBatch) -> float:
    """Fraction of shots where a prediction misses at least one observable.

    A shot counts as a logical error when the decoder's predicted observable
    flip disagrees with the actual flip for at least one logical qubit.  This
    is the scoring kernel of the staged :class:`repro.api.Pipeline`; the
    chunk engine scores with the integer :func:`count_wrong`, which gives
    the same rate for the same samples.  Zero shots report rate 0.0.
    """
    if batch.num_shots == 0:
        count_wrong(predictions, batch)  # still validate the shapes
        return 0.0
    return count_wrong(predictions, batch) / batch.num_shots


def basis_streams(
    seed: "int | np.random.SeedSequence | None",
) -> "list[tuple[str, np.random.SeedSequence | None]]":
    """The per-basis sampling-stream plan: ``[("Z", ...), ("X", ...)]``.

    Basis Z consumes the first spawned child (and reports ``error_x``);
    basis X the second.  This single derivation is shared by the serial
    estimator, the pooled :class:`repro.core.ScheduleEvaluator` fan-out and
    the :class:`repro.api.Pipeline`, so the streams can never drift apart
    between the paths (which would silently break their bit-identity).
    """
    stream_x, stream_z = spawn_streams(seed, 2)
    return [("Z", stream_x), ("X", stream_z)]


def decode_predictions(decoder, batch: SampleBatch) -> np.ndarray:
    """Decode a batch, preferring the bit-packed syndrome path when available.

    Since the decoder stack went batch-first, ``has_packed_fast_path`` is
    the norm rather than a lookup-table exception: the shared front end in
    :class:`repro.decoders.Decoder` deduplicates repeated syndromes on the
    packed ``uint64`` words themselves and unpacks only the unique rows, so
    handing over ``batch.packed_detectors`` skips both a pack pass and a
    dense materialisation of duplicate shots.  The dense ``batch.detectors``
    fallback remains for decoders outside that hierarchy (the attribute
    defaults to False via ``getattr`` for duck-typed third-party decoders).
    Predictions are bit-identical either way.
    """
    if batch.packed_detectors is not None and getattr(
        decoder, "has_packed_fast_path", False
    ):
        return decoder.decode_batch_packed(batch.packed_detectors)
    return decoder.decode_batch(batch.detectors)


def _estimate_basis(
    code: StabilizerCode,
    schedule: Schedule,
    noise: NoiseModel,
    decoder_factory: DecoderFactory,
    basis: str,
    rule: StoppingRule,
    stream: "np.random.SeedSequence | None",
    store=None,
):
    """One basis run: memory experiment -> DEM -> the chunk loop.

    The single per-basis unit behind both estimator entry points and the
    pooled :class:`repro.core.ScheduleEvaluator` tasks (it is module-level
    so it pickles to pool workers).  ``basis='Z'`` measures logical Z
    operators and therefore estimates the logical X error rate.  Returns
    the :class:`repro.parallel.AdaptiveEstimate`; only per-chunk counts are
    kept, so memory is bounded by one chunk, not by ``rule.max_shots``.
    """
    # Imported lazily: repro.parallel imports this module at load time.
    from repro.parallel import adaptive_sample_and_decode

    experiment = build_memory_experiment(code, schedule, noise, basis=basis)
    dem = build_detector_error_model(experiment.circuit)
    return adaptive_sample_and_decode(
        dem, decoder_factory, DemSampler(dem=dem), stream, rule, store=store
    )


def estimate_logical_error_rates(
    code: StabilizerCode,
    schedule: Schedule,
    noise: NoiseModel,
    decoder_factory: DecoderFactory,
    *,
    shots: int = 2000,
    seed: "int | np.random.SeedSequence | None" = None,
) -> LogicalErrorRates:
    """Estimate logical X, Z and overall error rates of ``schedule``.

    The two per-basis sampling streams are independent ``SeedSequence``
    children of ``seed`` (:func:`basis_streams`: basis Z first, then basis
    X), replacing the old ``seed`` / ``seed + 1`` convention that correlated
    streams across call sites.  Each basis runs the fixed chunk plan of
    :mod:`repro.parallel` with a rule that never stops early, so the rates
    equal a fixed-shot :class:`repro.api.Pipeline` run bit for bit.
    """
    rule = StoppingRule(max_shots=shots)
    estimates = {
        basis: _estimate_basis(code, schedule, noise, decoder_factory, basis, rule, stream)
        for basis, stream in basis_streams(seed)
    }
    return LogicalErrorRates(
        error_x=estimates["Z"].rate, error_z=estimates["X"].rate, shots=shots, depth=schedule.depth
    )


def rates_from_adaptive_estimates(depth: int, estimates: dict) -> LogicalErrorRates:
    """Assemble :class:`LogicalErrorRates` from per-basis adaptive estimates.

    ``estimates`` maps basis (``"Z"``/``"X"``) to any object exposing
    ``rate`` / ``shots`` / ``converged`` (a
    :class:`repro.parallel.AdaptiveEstimate`).  This is the single place
    that encodes the basis-Z-measures-``error_x`` convention and the
    ``shots = max(per basis)`` summary for adaptive runs — shared by this
    module, :class:`repro.api.Pipeline` and
    :class:`repro.core.ScheduleEvaluator` so the three paths cannot drift.
    """
    return LogicalErrorRates(
        error_x=estimates["Z"].rate,
        error_z=estimates["X"].rate,
        shots=max((estimate.shots for estimate in estimates.values()), default=0),
        depth=depth,
        shots_by_basis={basis: estimate.shots for basis, estimate in estimates.items()},
        converged=all(estimate.converged for estimate in estimates.values()),
    )


def estimate_logical_error_rates_adaptive(
    code: StabilizerCode,
    schedule: Schedule,
    noise: NoiseModel,
    decoder_factory: DecoderFactory,
    *,
    rule: StoppingRule,
    seed: "int | np.random.SeedSequence | None" = None,
    store_factory=None,
) -> "tuple[LogicalErrorRates, dict]":
    """Adaptive (precision-targeted) variant of :func:`estimate_logical_error_rates`.

    Each basis streams the same fixed deterministic chunks a fixed-shot run
    at ``shots=rule.max_shots`` would consume (same :func:`basis_streams`
    derivation, same per-chunk spawned streams) and stops as soon as the
    Wilson relative error of the observed rate reaches the rule's target —
    so the sampled prefix is bit-identical to the fixed run's first chunks,
    for every worker count.  ``rule`` is the one
    :class:`~repro.analysis.stats.StoppingRule` derivation (e.g.
    ``budget.stopping_rule()``).  ``store_factory(basis)`` may supply a
    :class:`repro.cache.ChunkStore` per basis to resume from (and refine)
    previously measured chunks.

    Returns the rates plus the per-basis
    :class:`repro.parallel.AdaptiveEstimate` dict (``{"Z": ..., "X": ...}``).
    """
    estimates = {
        basis: _estimate_basis(
            code,
            schedule,
            noise,
            decoder_factory,
            basis,
            rule,
            stream,
            store_factory(basis) if store_factory is not None else None,
        )
        for basis, stream in basis_streams(seed)
    }
    return rates_from_adaptive_estimates(schedule.depth, estimates), estimates
