"""Decoder-in-the-loop logical error rate estimation.

This is the evaluation function at the heart of AlphaSyndrome (Section 4.4):
given a code, a schedule, a noise model and a decoder, build the Figure 10
sampling circuits for both logical bases, sample them, decode every shot and
report the logical X / logical Z / overall error rates.  The score used by
the MCTS search, ``1 / overall`` as in the paper, is
:meth:`repro.core.ScheduleEvaluator.score`.
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
    "BASES",
    "LogicalErrorRates",
    "basis_streams",
    "count_wrong",
    "decode_predictions",
    "estimate_logical_error_rates",
    "rates_from_estimates",
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

    def __str__(self) -> str:
        return (
            f"err_x={self.error_x:.3e} err_z={self.error_z:.3e} "
            f"overall={self.overall:.3e} depth={self.depth}"
        )


def count_wrong(predictions: np.ndarray, batch: SampleBatch) -> int:
    """Number of shots where a prediction misses at least one observable.

    A shot counts as a logical error when the decoder's predicted observable
    flip disagrees with the actual flip for at least one logical qubit.  The
    chunk engine accumulates these integer counts across chunks, so a
    resumed or early-stopped run scores exactly like the concatenated batch
    would.  Zero shots count 0 (shapes are still validated).
    """
    if predictions.shape != batch.observables.shape:
        raise ValueError(
            f"decoder returned predictions of shape {predictions.shape}, "
            f"expected {batch.observables.shape}"
        )
    if batch.num_shots == 0:
        return 0
    return int(np.count_nonzero((predictions != batch.observables).any(axis=1)))


#: The measurement bases in execution order (see :func:`basis_streams`).
BASES = ("Z", "X")


def basis_streams(
    seed: "int | np.random.SeedSequence | None",
) -> "list[tuple[str, np.random.SeedSequence | None]]":
    """The per-basis sampling-stream plan: ``[("Z", ...), ("X", ...)]``.

    Basis Z consumes the first spawned child (and reports ``error_x``);
    basis X the second.  This single derivation is shared by the serial
    estimator, the pooled :class:`repro.core.ScheduleEvaluator` fan-out,
    the :class:`repro.api.Pipeline` and the ``repro serve`` workers, so the
    streams can never drift apart between the paths (which would silently
    break their bit-identity).
    """
    return list(zip(BASES, spawn_streams(seed, 2)))


def decode_predictions(decoder, batch: SampleBatch) -> np.ndarray:
    """Decode a batch, preferring the bit-packed syndrome path.

    Every :class:`repro.decoders.Decoder` takes ``batch.packed_detectors``
    through its one front end, ``decode_batch_packed``, which deduplicates
    repeated syndromes on the packed ``uint64`` words themselves and
    unpacks only the unique rows.  Duck-typed decoders without that method
    get the dense ``batch.detectors`` through their ``decode_batch``.
    Predictions are bit-identical either way.
    """
    if hasattr(decoder, "decode_batch_packed"):
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
):
    """One basis run: memory experiment -> DEM -> the chunk loop.

    The single per-basis unit behind :func:`estimate_logical_error_rates`
    and the pooled :class:`repro.core.ScheduleEvaluator` tasks (it is
    module-level so it pickles to pool workers).  ``basis='Z'`` measures
    logical Z operators and therefore estimates the logical X error rate.
    Returns the :class:`repro.parallel.AdaptiveEstimate`; only per-chunk
    counts are kept, so memory is bounded by one chunk, not by
    ``rule.max_shots``.
    """
    # Imported lazily: repro.parallel imports this module at load time.
    from repro.parallel import sample_and_decode

    experiment = build_memory_experiment(code, schedule, noise, basis=basis)
    dem = build_detector_error_model(experiment.circuit)
    return sample_and_decode(dem, decoder_factory, DemSampler(dem=dem), stream, rule)


def rates_from_estimates(depth: int, estimates: dict, rule: StoppingRule) -> LogicalErrorRates:
    """Assemble :class:`LogicalErrorRates` from per-basis chunk-loop estimates.

    ``estimates`` maps basis (``"Z"``/``"X"``) to any object exposing
    ``rate`` / ``shots`` / ``converged`` (a
    :class:`repro.parallel.AdaptiveEstimate`).  This is the single place
    that encodes the basis-Z-measures-``error_x`` convention and the
    ``shots = max(per basis)`` summary — shared by this module,
    :class:`repro.api.Pipeline`, :class:`repro.core.ScheduleEvaluator` and
    the ``repro serve`` scheduler so the paths cannot drift.  A ``rule``
    without a precision target (a fixed-shot run) leaves ``shots_by_basis``
    and ``converged`` at ``None``.
    """
    precision = rule.target_rse is not None
    return LogicalErrorRates(
        error_x=estimates["Z"].rate,
        error_z=estimates["X"].rate,
        shots=max((estimate.shots for estimate in estimates.values()), default=0),
        depth=depth,
        shots_by_basis=(
            {basis: estimate.shots for basis, estimate in estimates.items()}
            if precision
            else None
        ),
        converged=(
            all(estimate.converged for estimate in estimates.values()) if precision else None
        ),
    )


def estimate_logical_error_rates(
    code: StabilizerCode,
    schedule: Schedule,
    noise: NoiseModel,
    decoder_factory: DecoderFactory,
    *,
    shots: int = 2000,
    seed: "int | np.random.SeedSequence | None" = None,
    rule: StoppingRule | None = None,
) -> LogicalErrorRates:
    """Estimate logical X, Z and overall error rates of ``schedule``.

    The two per-basis sampling streams are independent ``SeedSequence``
    children of ``seed`` (:func:`basis_streams`: basis Z first, then basis
    X), replacing the old ``seed`` / ``seed + 1`` convention that correlated
    streams across call sites.  Each basis streams the fixed chunk plan of
    :mod:`repro.parallel` through ``rule`` (e.g. ``budget.stopping_rule()``);
    without one, ``shots`` stands for ``StoppingRule(max_shots=shots)``, a
    rule that never stops early.  A precision-targeted rule stops each basis
    on the first chunk prefix that meets the target, bit-identical to the
    fixed run's first chunks.  The rates equal a :class:`repro.api.Pipeline`
    run of the same budget bit for bit, for every worker count.  This path
    reads and writes no chunk cache; ``Pipeline(cache=...)`` is the cached
    one.
    """
    if rule is None:
        rule = StoppingRule(max_shots=shots)
    estimates = {
        basis: _estimate_basis(code, schedule, noise, decoder_factory, basis, rule, stream)
        for basis, stream in basis_streams(seed)
    }
    return rates_from_estimates(schedule.depth, estimates, rule)
