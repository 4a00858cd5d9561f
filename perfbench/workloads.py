"""The benchmark's workloads: one operation each, its set-up, and its output check.

An operation is the unit a run repeats: set-up, hot loop, output check.
Set-up is the deterministic once-per-operation work before the hot loop,
timed in process after every import.  Each operation draws its own seed from
``(--seed, operation index)``, so a run of several operations averages over
several inputs while the same ``--seed`` always gives the same inputs.

All workloads run in one process with ``workers=1``: the benchmark host has
two shared cores, and a process pool there would measure the scheduler.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import Budget, Pipeline, RunSpec, registries
from repro.core.alphasyndrome import AlphaSyndrome
from repro.core.mcts import MCTSConfig
from repro.scheduling import baselines, partition
from repro.scheduling.schedule import ScheduleError
from repro.seeding import stage_seed

from tracing import NullTracer

MANIFEST = Path(__file__).with_name("manifest.json")

#: Both output checks accept a deviation of up to this many standard errors.
CHECK_Z = 4.0

#: The per-basis rates of an evaluation, as named in ``LogicalErrorRates``.
BASIS_RATES = ("error_x", "error_z")


def op_seed(seed: int, op: int) -> int:
    """Seed of operation ``op`` of a run started with ``--seed seed``."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


@dataclass
class OpResult:
    """Timings and counts of one operation, plus why its check failed (if it did).

    ``setup_s`` holds every set-up timed for the operation; the last one is
    the set-up whose state the hot loop used and is part of ``wall_s``.
    """

    setup_s: list
    wall_s: float
    shots: int
    evaluations: int
    rates: dict
    failure: "str | None" = None

    @property
    def hot_s(self) -> float:
        return self.wall_s - self.setup_s[-1]


def compare_rates(errors: dict, shots: int, reference: "dict | None") -> "str | None":
    """Two-proportion z-test of per-basis error counts against the reference.

    The reference is itself a sample (``shots_per_basis`` shots), so the
    standard error combines both samples.  The test is statistical, not a
    bit-identity check: a change of tie rules or sample order that keeps
    the statistics still passes.
    """
    if reference is None:
        return None
    reference_shots = reference["shots_per_basis"]
    for key in BASIS_RATES:
        rate, expected = errors[key] / shots, reference[key]
        pooled = (errors[key] + expected * reference_shots) / (shots + reference_shots)
        margin = CHECK_Z * math.sqrt(
            pooled * (1 - pooled) * (1 / shots + 1 / reference_shots)
        )
        if abs(rate - expected) > margin:
            return (
                f"{key}={rate:.4f} over {shots} shots differs from the reference "
                f"{expected:.4f} by more than the z={CHECK_Z:g} margin {margin:.4f}"
            )
    return None


def run_op(workload, seed: int, tracer, reference: "dict | None", setups: int = 1) -> OpResult:
    """Set up ``setups`` times (the last one traced and used), run the hot loop, check."""
    extra = []
    for _ in range(setups - 1):
        start = time.perf_counter()
        workload.setup(seed, NullTracer())
        extra.append(time.perf_counter() - start)
    start = time.perf_counter()
    with tracer.span("bench", "setup"):
        state = workload.setup(seed, tracer)
    setup_end = time.perf_counter()
    with tracer.span("bench", "hot"):
        output = workload.hot(state, tracer)
    end = time.perf_counter()
    result = OpResult(
        setup_s=[*extra, setup_end - start],
        wall_s=end - start,
        **workload.counts(state, output),
    )
    result.failure = workload.check(state, output, reference)
    return result


@dataclass(frozen=True)
class EvalWorkload:
    """A fixed-shot ``Pipeline`` evaluation of one (code, schedule, decoder).

    Set-up is every ``Pipeline`` stage through ``.dem`` (code, noise,
    schedule, both circuits, both DEMs); the hot loop samples and decodes
    both bases (``Pipeline.run``).
    """

    name: str
    code: str
    scheduler: str
    decoder: str
    rounds: int
    shots: int
    nominal_op_s: float
    setups: int = 1

    def setup(self, seed: int, tracer) -> Pipeline:
        with tracer.span("api.pipeline", "spec"):
            pipeline = Pipeline(
                RunSpec(
                    code=self.code,
                    scheduler=self.scheduler,
                    decoder=self.decoder,
                    rounds=self.rounds,
                    seed=seed,
                    workers=1,
                    budget=Budget(shots=self.shots),
                )
            )
        for stage in ("code", "noise", "schedule", "circuit", "dem"):
            with tracer.span("api.pipeline", stage):
                getattr(pipeline, stage)
        return pipeline

    def hot(self, pipeline: Pipeline, tracer):
        with tracer.span("api.pipeline", "run"):
            return pipeline.run().rates

    def counts(self, pipeline, rates) -> dict:
        return {
            "shots": 2 * self.shots,
            "evaluations": 1,
            "rates": {key: getattr(rates, key) for key in BASIS_RATES},
        }

    def check(self, pipeline, rates, reference: "dict | None") -> "str | None":
        """Each basis' rate must agree with its reference within z=4."""
        errors = {key: round(getattr(rates, key) * self.shots) for key in BASIS_RATES}
        return compare_rates(errors, self.shots, reference)

    def check_run(self, results: list, reference: "dict | None") -> "str | None":
        """The run's pooled rates must agree with the reference within z=4.

        One operation's 512 shots per basis cannot tell BP+OSD (rates about
        0.45) from a decoder that predicts nothing (about 0.55 to 0.60); the
        pooled shots of a timed run can.
        """
        errors = {
            key: sum(round(result.rates[key] * self.shots) for result in results)
            for key in BASIS_RATES
        }
        return compare_rates(errors, self.shots * len(results), reference)

    def expect(self, layers: dict) -> "str | None":
        """Layer counts a traced operation must show (a renamed binding reads 0)."""
        return _expect(
            layers,
            reached=(
                "codes.build_s", "noise.build_s", "scheduling.build_s", "circuits.calls",
                "sim.dem.calls", "sim.sampler.calls", "decoders.builds", "decoders.shots",
                "parallel.chunks", "parallel.self_s", "api.pipeline.self_s",
            ),
            equal=(
                ("sim.dem.calls", 2),
                ("circuits.calls", 2),
                ("decoders.builds", 2),
                ("sim.sampler.shots", 2 * self.shots),
                ("decoders.shots", 2 * self.shots),
                ("parallel.chunks", layers["sim.sampler.calls"]),
            ),
        )


@dataclass
class _Synthesis:
    alpha: AlphaSyndrome
    baseline_rates: object
    evaluated: int


@dataclass(frozen=True)
class SynthWorkload:
    """One AlphaSyndrome MCTS synthesis at the default synthesis budget.

    Set-up builds code, noise, decoder factory and ``AlphaSyndrome``, then
    evaluates the depth-optimal baseline through ``alpha.evaluator``; the
    search later finds that evaluation in the evaluator's cache, so the total
    work equals a plain ``synthesize()``.  The hot loop is ``synthesize()``.
    """

    name: str
    code: str
    decoder: str
    noise: str
    nominal_op_s: float
    setups: int = 1
    budget: Budget = Budget()

    def setup(self, seed: int, tracer) -> _Synthesis:
        search_seed = stage_seed(seed, "synthesis")
        code = registries.codes.build(self.code)
        noise = registries.noise.build(self.noise, code=code)
        factory = registries.decoders.build(self.decoder)
        with tracer.span("core.search", "init"):
            alpha = AlphaSyndrome(
                code=code,
                noise=noise,
                decoder_factory=factory,
                shots=self.budget.synthesis_shots,
                mcts_config=MCTSConfig(
                    iterations_per_step=self.budget.iterations_per_step,
                    seed=search_seed,
                    max_total_evaluations=self.budget.max_evaluations,
                ),
                seed=search_seed,
                workers=1,
            )
        baseline = baselines.lowest_depth_schedule(
            code, partitions=partition.partition_stabilizers(code)
        )
        baseline_rates = alpha.evaluator.evaluate(baseline)
        return _Synthesis(alpha, baseline_rates, alpha.evaluator.cache_size)

    def hot(self, state: _Synthesis, tracer):
        return state.alpha.synthesize()

    def counts(self, state: _Synthesis, result) -> dict:
        misses = state.alpha.evaluator.cache_size - state.evaluated
        return {
            "shots": 2 * self.budget.synthesis_shots * misses,
            "evaluations": result.evaluations,
            "rates": {"overall": result.rates.overall, "baseline": state.baseline_rates.overall},
        }

    def check(self, state: _Synthesis, result, reference) -> "str | None":
        """A valid schedule whose rate is no worse than the baseline's beyond z=4.

        ``synthesize()`` validates its final schedule itself; validating it
        again here keeps the check independent of that library behaviour.
        """
        try:
            result.schedule.validate()
        except ScheduleError as error:
            return f"synthesised schedule is invalid: {error}"
        found, base = result.rates.overall, state.baseline_rates.overall
        shots = self.budget.synthesis_shots
        margin = CHECK_Z * math.sqrt((found * (1 - found) + base * (1 - base)) / shots)
        if found > base + margin:
            return (
                f"synthesised overall rate {found:.4f} is worse than the depth-optimal "
                f"baseline's {base:.4f} by more than the z={CHECK_Z:g} margin {margin:.4f}"
            )
        return None

    def check_run(self, results: list, reference) -> None:
        """Synthesis has no run-level check: each operation is checked alone."""
        return None

    def expect(self, layers: dict) -> "str | None":
        """Layer counts a traced operation must show (a renamed binding reads 0)."""
        misses = layers["core.evaluator.misses"]
        return _expect(
            layers,
            reached=(
                "codes.build_s", "noise.build_s", "scheduling.build_s", "circuits.calls",
                "sim.dem.calls", "sim.sampler.calls", "decoders.builds", "decoders.shots",
                "core.evaluations", "core.evaluator.misses", "core.search_self_s",
            ),
            equal=(
                ("sim.dem.calls", 2 * misses),
                ("circuits.calls", 2 * misses),
                ("sim.sampler.calls", 2 * misses),
                ("decoders.builds", 2 * misses),
            ),
        )


def _expect(layers: dict, reached, equal) -> "str | None":
    missing = [metric for metric in reached if not layers[metric] > 0]
    if missing:
        return "traced layers recorded nothing: " + ", ".join(missing)
    wrong = [
        f"{metric}={layers[metric]} (expected {value})"
        for metric, value in equal
        if layers[metric] != value
    ]
    if wrong:
        return "traced layer counts disagree: " + ", ".join(wrong)
    return None


#: The workloads, in BENCHMARK.json order.  ``nominal_op_s`` is one
#: operation's duration, its extra set-ups included, on a 2-core x86-64
#: host; a run performs ``round(seconds / nominal_op_s)`` operations (at
#: least two), so the number of operations depends only on ``--seconds``,
#: never on how fast the code is.  Each operation times its set-up
#: ``setups`` times, because ``setup_s`` is the shortest of them all.
WORKLOADS = {
    workload.name: workload
    for workload in (
        SynthWorkload(
            name="synth_surface_d3",
            code="surface:d=3",
            decoder="mwpm",
            noise="brisbane",
            nominal_op_s=5.6,
            setups=8,
        ),
        EvalWorkload(
            name="eval_bb18_bposd",
            code="bb_18",
            scheduler="ibm_bb",
            decoder="bposd",
            rounds=1,
            shots=512,
            nominal_op_s=7.3,
            setups=2,
        ),
    )
}


def operations(workload, seconds: float) -> int:
    return max(2, round(seconds / workload.nominal_op_s))


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def reference_rates(name: str) -> "dict | None":
    """Reference per-basis rates of an eval workload (None for synthesis)."""
    return load_manifest()["references"].get(name)
