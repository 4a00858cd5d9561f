"""Staged execution of a :class:`~repro.api.spec.RunSpec`.

A :class:`Pipeline` walks the paper's end-to-end flow

    code -> noise -> schedule -> circuit -> DEM -> syndromes -> rates

exposing every intermediate product as a lazily computed, cached attribute.
Asking for a late stage (``pipeline.rates``) computes and caches everything
before it; asking for an early stage (``pipeline.dem``) never pays for the
later ones.  Per-basis artifacts (circuit, DEM, syndromes, predictions) are
dicts keyed by measurement basis ``"Z"`` / ``"X"``.

The sampling/decoding hot path is sharded into fixed-size chunks
(:mod:`repro.parallel`), so its output is **worker-count invariant**:
``Pipeline(workers=1)`` and ``Pipeline(workers=8)`` produce bit-identical
samples, predictions and rates for a fixed seed — ``workers`` only decides
whether the chunks run in process or on a process pool.  The rates also
equal :func:`repro.sim.estimate_logical_error_rates` at the same seed and
shot count bit for bit — same SeedSequence streams, same chunk loop —
which the test suite pins.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import cached_property

from pathlib import Path

from repro import parallel
from repro.api import registries
from repro.api.spec import Budget, RunSpec
from repro.circuits.memory import build_memory_experiment
from repro.core.alphasyndrome import SynthesisResult
from repro.parallel import AdaptiveEstimate, adaptive_sample_and_decode, sample_and_decode
from repro.sim.dem import DemDecompositionError, build_detector_error_model
from repro.sim.estimator import (
    LogicalErrorRates,
    basis_streams,
    fraction_wrong,
    rates_from_adaptive_estimates,
)

__all__ = ["Pipeline", "RunResult", "adaptive_report"]

#: Basis artifact order; execution streams come from
#: :func:`repro.sim.estimator.basis_streams` (basis Z reports the logical X
#: error rate and consumes the first child stream).
_BASES = ("Z", "X")


@dataclasses.dataclass
class RunResult:
    """Terminal artifact of a pipeline run: the spec plus its measured rates."""

    spec: RunSpec
    rates: LogicalErrorRates
    depth: int
    synthesis_evaluations: int | None = None
    baseline_overall: float | None = None
    adaptive: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready payload: spec, rates, depth plus optional synthesis/adaptive blocks."""
        payload = {
            "spec": self.spec.to_dict(),
            "error_x": self.rates.error_x,
            "error_z": self.rates.error_z,
            "overall": self.rates.overall,
            "shots": self.rates.shots,
            "depth": self.depth,
        }
        if self.synthesis_evaluations is not None:
            payload["synthesis_evaluations"] = self.synthesis_evaluations
        if self.baseline_overall is not None:
            payload["baseline_overall"] = self.baseline_overall
        if self.adaptive is not None:
            payload["adaptive"] = self.adaptive
        return payload


def adaptive_report(budget: Budget, estimates: "dict[str, AdaptiveEstimate]") -> dict:
    """JSON-ready summary of one adaptive run's per-basis estimates.

    The single encoding of the report shape, shared by
    :attr:`Pipeline.adaptive_report` and the ``repro serve`` job finalizer
    (:mod:`repro.serve.jobs`) so offline and served results carry identical
    adaptive blocks.
    """
    return {
        "target_rse": budget.target_rse,
        "confidence": budget.confidence,
        "max_shots": budget.plan_shots,
        "converged": all(estimate.converged for estimate in estimates.values()),
        "cache_hits": sum(estimate.cache_hits for estimate in estimates.values()),
        "fresh_chunks": sum(estimate.fresh_chunks for estimate in estimates.values()),
        "bases": {
            basis: {
                "shots": estimate.shots,
                "errors": estimate.errors,
                "rate": estimate.rate,
                "chunks": estimate.chunks,
                "converged": estimate.converged,
                "cache_hits": estimate.cache_hits,
                "fresh_chunks": estimate.fresh_chunks,
            }
            for basis, estimate in estimates.items()
        },
    }


class Pipeline:
    """Lazily executed, stage-cached run of one :class:`RunSpec`.

    Construct from a spec, or directly from field overrides (budget fields
    may be passed flat)::

        Pipeline(RunSpec(code="surface:d=5"))
        Pipeline(code="surface:d=5", decoder="unionfind", shots=5000, workers=4)
    """

    def __init__(self, spec: RunSpec | None = None, *, cache=None, **overrides) -> None:
        budget_fields = {f.name for f in dataclasses.fields(Budget)}
        flat_budget = {k: overrides.pop(k) for k in list(overrides) if k in budget_fields}
        if spec is None:
            spec = RunSpec(**overrides)
        elif overrides:
            spec = spec.replace(**overrides)
        if flat_budget:
            spec = spec.replace(budget=spec.budget.replace(**flat_budget))
        self.spec = spec
        if isinstance(cache, (str, Path)):
            # Imported lazily: repro.cache depends on the spec layer.
            from repro.cache import ResultCache

            cache = ResultCache(cache)
        #: Optional :class:`repro.cache.ResultCache`; consulted (and
        #: populated) only by the adaptive hot path — the fixed-shot path
        #: stays byte-identical to its pinned legacy behaviour.
        self.cache = cache

    def __repr__(self) -> str:
        return f"Pipeline({self.spec!r})"

    # ------------------------------------------------------------------
    # Staged artifacts (each cached after first access)
    # ------------------------------------------------------------------
    @cached_property
    def code(self):
        """The constructed :class:`~repro.codes.base.StabilizerCode`.

        For ``code="stimfile:PATH"`` specs this is an
        :class:`~repro.io.imported.ImportedCircuit` instead — the pipeline
        then skips circuit generation (see :attr:`imported`).
        """
        return registries.codes.build(self.spec.code)

    @property
    def imported(self):
        """The :class:`~repro.io.imported.ImportedCircuit`, or ``None``.

        Non-``None`` exactly when the code spec named an external circuit
        file; the generation stages (noise, schedule, experiment) then
        short-circuit and the imported circuit feeds both basis slots
        directly (two independent replicas under the per-basis seed
        streams — see :mod:`repro.io.imported`).
        """
        from repro.io.imported import ImportedCircuit

        code = self.code
        return code if isinstance(code, ImportedCircuit) else None

    @cached_property
    def noise(self):
        """The :class:`~repro.noise.NoiseModel` (built with code context).

        ``None`` for imported circuits: their noise channels are already in
        the instruction stream.
        """
        if self.imported is not None:
            return None
        return registries.noise.build(self.spec.noise, code=self.code)

    @cached_property
    def decoder_factory(self):
        """``DetectorErrorModel -> Decoder`` factory from the decoder spec."""
        return registries.decoders.build(self.spec.decoder)

    @cached_property
    def _scheduled(self):
        """Raw scheduler output: a Schedule or a SynthesisResult.

        ``workers`` is offered as context so synthesising schedulers
        (``"alphasyndrome"``) can parallelise rollout scoring; fixed
        schedulers simply ignore it (registry extras are signature-filtered).
        ``spec.rounds`` is deliberately *not* offered: synthesis scores
        schedules on the single-round experiment (see
        :class:`~repro.api.spec.RunSpec`), so the search is identical for
        every ``rounds`` value.
        """
        if self.imported is not None:
            return self.imported.schedule
        return registries.schedulers.build(
            self.spec.scheduler,
            code=self.code,
            noise=self.noise,
            decoder_factory=self.decoder_factory,
            budget=self.spec.budget,
            seed=self.spec.seed,
            workers=self.spec.workers,
        )

    @property
    def synthesis(self) -> SynthesisResult | None:
        """The full :class:`SynthesisResult` when the scheduler synthesised one."""
        scheduled = self._scheduled
        return scheduled if isinstance(scheduled, SynthesisResult) else None

    @cached_property
    def schedule(self):
        """The syndrome-measurement :class:`~repro.scheduling.Schedule`."""
        scheduled = self._scheduled
        return scheduled.schedule if isinstance(scheduled, SynthesisResult) else scheduled

    @cached_property
    def experiment(self) -> dict:
        """Per-basis memory experiments (Figure 10 sampling circuits).

        ``spec.rounds`` noisy syndrome rounds are inserted between the
        logical readouts (the paper's protocol uses one).
        """
        if self.imported is not None:
            raise RuntimeError(
                "imported circuits have no per-basis memory experiment: "
                f"{self.imported.source!r} arrived fully built.  Use "
                "pipeline.circuit / pipeline.dem / pipeline.rates directly."
            )
        return {
            basis: build_memory_experiment(
                self.code,
                self.schedule,
                self.noise,
                basis=basis,
                noisy_rounds=self.spec.rounds,
            )
            for basis in _BASES
        }

    @cached_property
    def circuit(self) -> dict:
        """Per-basis noisy Clifford circuits.

        Imported circuits fill both basis slots with the same circuit (two
        independent replicas under the two per-basis seed streams).
        """
        if self.imported is not None:
            return {basis: self.imported.circuit for basis in _BASES}
        return {basis: experiment.circuit for basis, experiment in self.experiment.items()}

    @cached_property
    def dem(self) -> dict:
        """Per-basis detector error models.

        When decomposition rejects an instruction the error names the fix:
        circuit-level sampling (``--sampler frames``) does not go through
        the DEM to sample, so richer circuits stay runnable.
        """
        try:
            return {
                basis: build_detector_error_model(circuit)
                for basis, circuit in self.circuit.items()
            }
        except DemDecompositionError as error:
            raise DemDecompositionError(
                f"{error}  Circuit-level sampling handles this: rerun with "
                "sampler='frames' (CLI: --sampler frames)."
            ) from error

    @cached_property
    def sampler_factory(self):
        """``(circuit, dem) -> sampler`` factory from the sampler spec."""
        return registries.samplers.build(self.spec.sampler)

    @cached_property
    def samplers(self) -> dict:
        """Per-basis sampler objects (``sample(shots, seed=...) -> SampleBatch``).

        Built by the sampler spec's factory from each basis circuit and DEM;
        the default ``"dem"`` spec builds a
        :class:`~repro.sim.sampler.DemSampler`.  The objects are picklable
        and ship to pool workers with each chunk.
        """
        factory = self.sampler_factory
        return {
            basis: factory(self.circuit[basis], self.dem[basis]) for basis in _BASES
        }

    def _per_basis(self, run_basis, pooled: bool) -> dict:
        """``{basis: run_basis(basis, stream, pool)}`` for both bases.

        The one serial-or-pool driver of the chunk engine.  In process,
        ``pool`` is ``None``.  Pooled, two thread-level drivers share one
        process pool so both bases' chunks interleave across the workers;
        each basis still consumes its own chunks strictly in order, so the
        result is the same either way.
        """
        # cached_property is not thread-safe: build every staged artifact
        # the drivers read before any driver starts.
        self.dem, self.decoder_factory, self.samplers
        streams = basis_streams(self.spec.eval_seed())
        if not pooled:
            return {basis: run_basis(basis, stream, None) for basis, stream in streams}
        with ProcessPoolExecutor(max_workers=self.spec.workers) as pool:
            with ThreadPoolExecutor(max_workers=len(streams)) as drivers:
                futures = {
                    basis: drivers.submit(run_basis, basis, stream, pool)
                    for basis, stream in streams
                }
                return {basis: future.result() for basis, future in futures.items()}

    @cached_property
    def _executed(self) -> dict:
        """Per-basis ``(SampleBatch, predictions)`` from the sampling/decoding hot path.

        Chunk layout and per-chunk seed streams come from
        :mod:`repro.parallel` and depend only on the shot count, so the
        result is bit-identical for every ``workers`` value; the pool is
        purely an execution detail.
        """
        shots = self.spec.budget.shots

        def run_basis(basis, stream, pool):
            return sample_and_decode(
                self.dem[basis],
                self.decoder_factory,
                self.samplers[basis],
                shots,
                stream,
                pool=pool,
            )

        return self._per_basis(run_basis, pooled=self.spec.workers > 1 and shots > 0)

    # ------------------------------------------------------------------
    # Adaptive (precision-targeted) execution
    # ------------------------------------------------------------------
    @property
    def adaptive(self) -> bool:
        """True when the budget carries a precision target (``target_rse``)."""
        return self.spec.budget.adaptive

    @cached_property
    def estimates(self) -> "dict[str, AdaptiveEstimate] | None":
        """Per-basis :class:`~repro.parallel.AdaptiveEstimate` (adaptive mode only).

        The chunk plan is laid out for ``budget.plan_shots`` and consumed in
        chunk order through the budget's Wilson stopping rule; a pool only
        speculates on upcoming chunks, so — like the fixed path — the result
        is bit-identical for every ``workers`` value.  When the pipeline
        holds a :class:`repro.cache.ResultCache`, cached chunk summaries are
        replayed instead of resampled and fresh chunks are persisted.
        """
        if not self.adaptive:
            return None
        rule = self.spec.budget.stopping_rule()
        chunk_shots = parallel.DEFAULT_CHUNK_SHOTS
        stores = {
            basis: (
                self.cache.chunk_store(self.spec, basis, chunk_shots)
                if self.cache is not None
                else None
            )
            for basis in _BASES
        }

        def run_basis(basis, stream, pool) -> AdaptiveEstimate:
            return adaptive_sample_and_decode(
                self.dem[basis],
                self.decoder_factory,
                self.samplers[basis],
                stream,
                rule,
                chunk_shots=chunk_shots,
                pool=pool,
                lookahead=max(1, self.spec.workers),
                store=stores[basis],
            )

        # A fully warm cache replays without sampling; skip process-pool
        # startup entirely in that case (the advertised cheap-resume path).
        # The probe itself costs cache reads, so it only runs when a pool
        # would otherwise be created.
        pooled = self.spec.workers > 1 and not all(
            parallel.store_satisfies_rule(rule, stores[basis], chunk_shots=chunk_shots)
            for basis in _BASES
        )
        return self._per_basis(run_basis, pooled)

    @property
    def adaptive_report(self) -> dict | None:
        """JSON-ready summary of the adaptive run (``None`` in fixed mode)."""
        estimates = self.estimates
        if estimates is None:
            return None
        return adaptive_report(self.spec.budget, estimates)

    def _require_materialised(self, artifact: str) -> None:
        if self.adaptive:
            raise RuntimeError(
                f"Pipeline.{artifact} is not available in adaptive mode: with "
                "budget.target_rse set, sampling streams chunks through the "
                "stopping rule and retains only per-chunk counts.  Set "
                "target_rse=None to materialise full sample batches."
            )

    @property
    def syndromes(self) -> dict:
        """Per-basis sampled :class:`~repro.sim.SampleBatch` (detectors + observables)."""
        self._require_materialised("syndromes")
        return {basis: batch for basis, (batch, _) in self._executed.items()}

    @property
    def predictions(self) -> dict:
        """Per-basis decoder predictions for the sampled syndromes."""
        self._require_materialised("predictions")
        return {basis: predictions for basis, (_, predictions) in self._executed.items()}

    @cached_property
    def rates(self) -> LogicalErrorRates:
        """Logical error rates; equal to :func:`repro.sim.estimate_logical_error_rates`.

        In adaptive mode the rates derive from the streamed chunk counts
        (``shots`` then reports the larger per-basis sample size and
        ``shots_by_basis`` / ``converged`` are populated).
        """
        if self.adaptive:
            return rates_from_adaptive_estimates(self.schedule.depth, self.estimates)
        batch_z, predictions_z = self._executed["Z"]
        batch_x, predictions_x = self._executed["X"]
        return LogicalErrorRates(
            error_x=fraction_wrong(predictions_z, batch_z),
            error_z=fraction_wrong(predictions_x, batch_x),
            shots=self.spec.budget.shots,
            depth=self.schedule.depth,
        )

    @cached_property
    def result(self) -> RunResult:
        """Terminal :class:`RunResult` summarising the run."""
        synthesis = self.synthesis
        return RunResult(
            spec=self.spec,
            rates=self.rates,
            depth=self.schedule.depth,
            synthesis_evaluations=synthesis.evaluations if synthesis else None,
            baseline_overall=synthesis.baseline_rates.overall if synthesis else None,
            adaptive=self.adaptive_report,
        )

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute every stage and return the :class:`RunResult`."""
        return self.result
