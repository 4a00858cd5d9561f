"""Schedule evaluation function (Section 4.4).

The evaluator wraps the decoder-in-the-loop logical-error-rate estimation
into a cached, deterministic scoring function used by the MCTS search: a
complete schedule is mapped to ``score = 1 / overall logical error rate``
(the paper's evaluation).

Evaluation is batch-capable and optionally pool-backed: ``evaluate_many``
/ ``score_many`` accept a list of candidate schedules and, with
``workers > 1``, fan the per-basis estimations of every cache miss out to a
process pool (two tasks per schedule — both logical bases and all
candidates run concurrently).  Results are bit-identical to the serial path
for any worker count: each task runs the estimator's own per-basis unit on
the ``SeedSequence`` stream :func:`repro.sim.estimate_logical_error_rates`
would use, so the pool is purely an execution detail.  This is what lets
:class:`~repro.core.mcts.PartitionMCTS` score a whole batch of rollouts
across cores.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.analysis.stats import StoppingRule
from repro.codes.base import StabilizerCode
from repro.noise.models import NoiseModel
from repro.scheduling.schedule import Schedule

# Only the estimator builds circuits and DEMs; both bindings stay because
# perfbench/tracing.py patches them in this module.
from repro.circuits.memory import build_memory_experiment  # noqa: F401
from repro.sim.dem import build_detector_error_model  # noqa: F401
from repro.sim.estimator import (
    DecoderFactory,
    LogicalErrorRates,
    _estimate_basis,
    basis_streams,
    estimate_logical_error_rates,
    rates_from_estimates,
)

__all__ = ["ScheduleEvaluator"]

#: Score assigned when no logical error is observed in the sample budget.
_PERFECT_SCORE_CAP = 1e6


@dataclass
class ScheduleEvaluator:
    """Caches and scores complete schedules for a fixed code/noise/decoder.

    Parameters
    ----------
    code, noise, decoder_factory:
        The decoding context the schedule is optimised for.  With
        ``workers > 1`` the factory crosses a process-pool boundary and must
        be picklable (everything built by ``repro.api.registries.decoders``
        is; ad-hoc lambdas are not).
    shots:
        Monte-Carlo shots per logical basis per evaluation.  The paper uses
        large parallel stim batches; here the default is laptop-sized and
        should be raised for final measurements.  Every evaluation samples
        exactly ``shots`` per basis (``StoppingRule(max_shots=shots)``), so
        ``shots < 0`` raises at construction, not in the middle of a search.
    seed:
        Base RNG seed.  Evaluations are deterministic given the seed and the
        schedule — for *any* ``workers`` value — which keeps MCTS runs
        reproducible.
    workers:
        Process-pool width used by :meth:`evaluate_many` /
        :meth:`score_many` for cache misses.  ``1`` (the default) evaluates
        in process.
    """

    code: StabilizerCode
    noise: NoiseModel
    decoder_factory: DecoderFactory
    shots: int = 500
    seed: int = 0
    workers: int = 1
    _cache: dict[tuple, LogicalErrorRates] = field(default_factory=dict, repr=False)
    _pool: ProcessPoolExecutor | None = field(default=None, repr=False, compare=False)
    _rule: StoppingRule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self._rule = StoppingRule(max_shots=self.shots)

    # ------------------------------------------------------------------
    def schedule_key(self, schedule: Schedule) -> tuple:
        """Canonical cache key: sorted check/tick tuples, so permuting the
        ``assignment`` insertion order of an otherwise identical schedule
        still hits the cache."""
        return tuple(
            sorted(
                (check.stabilizer, check.data_qubit, check.pauli, tick)
                for check, tick in schedule.assignment.items()
            )
        )

    def evaluate(self, schedule: Schedule) -> LogicalErrorRates:
        """Return (cached) logical error rates for a complete schedule."""
        key = self.schedule_key(schedule)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rates = estimate_logical_error_rates(
            self.code, schedule, self.noise, self.decoder_factory, seed=self.seed, rule=self._rule
        )
        self._cache[key] = rates
        return rates

    def evaluate_many(self, schedules: "list[Schedule]") -> list[LogicalErrorRates]:
        """Evaluate a batch of schedules, fanning cache misses out to the pool.

        Duplicate schedules within the batch (and anything already cached)
        are estimated once.  The returned list is ordered like the input and
        bit-identical to calling :meth:`evaluate` serially.
        """
        keys = [self.schedule_key(schedule) for schedule in schedules]
        misses: dict[tuple, Schedule] = {}
        for key, schedule in zip(keys, schedules):
            if key not in self._cache and key not in misses:
                misses[key] = schedule
        if misses:
            if self.workers <= 1:
                for schedule in misses.values():
                    self.evaluate(schedule)
            else:
                self._evaluate_pooled(misses)
        return [self._cache[key] for key in keys]

    def _evaluate_pooled(self, misses: "dict[tuple, Schedule]") -> None:
        """Submit two basis tasks per miss, via the serial path's own
        :func:`repro.sim.estimator.basis_streams` plan and per-basis helper
        — one shared derivation, so the pooled results cannot drift from
        serial.  Each task runs its whole chunk loop in-worker."""
        pool = self._ensure_pool()
        submitted = []
        for key, schedule in misses.items():
            futures = {
                basis: pool.submit(
                    _estimate_basis,
                    self.code,
                    schedule,
                    self.noise,
                    self.decoder_factory,
                    basis,
                    self._rule,
                    stream,
                )
                for basis, stream in basis_streams(self.seed)
            }
            submitted.append((key, schedule, futures))
        for key, schedule, futures in submitted:
            estimates = {basis: future.result() for basis, future in futures.items()}
            self._cache[key] = rates_from_estimates(schedule.depth, estimates, self._rule)

    # ------------------------------------------------------------------
    def _score_of(self, rates: LogicalErrorRates) -> float:
        overall = rates.overall
        if overall <= 0:
            return _PERFECT_SCORE_CAP
        return min(1.0 / overall, _PERFECT_SCORE_CAP)

    def score(self, schedule: Schedule) -> float:
        """Scalar score of a complete schedule (higher is better)."""
        return self._score_of(self.evaluate(schedule))

    def score_many(self, schedules: "list[Schedule]") -> list[float]:
        """Batch variant of :meth:`score` (shares the pool fan-out)."""
        return [self._score_of(rates) for rates in self.evaluate_many(schedules)]

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the process pool down (recreated lazily on next use)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ScheduleEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def cache_size(self) -> int:
        return len(self._cache)
