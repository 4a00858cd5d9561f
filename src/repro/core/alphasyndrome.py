"""AlphaSyndrome: end-to-end syndrome-measurement schedule synthesis.

Ties the pieces together exactly as the paper describes:

1. partition the stabilizers into freely-commuting groups (Algorithm 1);
2. for each partition, run the continuous MCTS scheduler, scoring complete
   candidates with the decoder-in-the-loop evaluation (partitions not yet
   optimised use their lowest-depth schedule while another partition is
   being searched);
3. concatenate the per-partition schedules into the final round schedule.

The public entry point is :class:`AlphaSyndrome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codes.base import StabilizerCode
from repro.core.evaluator import ScheduleEvaluator
from repro.core.mcts import MCTSConfig, PartitionMCTS
from repro.noise.models import NoiseModel
from repro.scheduling.baselines import lowest_depth_schedule
from repro.scheduling.partition import partition_stabilizers
from repro.scheduling.schedule import Schedule, checks_of_code
from repro.sim.estimator import DecoderFactory, LogicalErrorRates

__all__ = ["SynthesisResult", "AlphaSyndrome"]


@dataclass
class SynthesisResult:
    """Output of one AlphaSyndrome synthesis run."""

    schedule: Schedule
    rates: LogicalErrorRates
    baseline_rates: LogicalErrorRates
    partitions: list[list[int]]
    evaluations: int

    @property
    def overall_reduction(self) -> float:
        """Fractional reduction of the overall logical error rate vs. the baseline."""
        baseline = self.baseline_rates.overall
        if baseline <= 0:
            return 0.0
        return 1.0 - self.rates.overall / baseline


@dataclass
class AlphaSyndrome:
    """Schedule synthesiser for a (code, noise model, decoder) triple.

    Parameters mirror the paper's framework; ``shots`` and
    ``mcts_config.iterations_per_step`` trade synthesis time for schedule
    quality (the paper used 4000-8000 iterations per step on a 144-core
    server; the defaults here are laptop-sized).  ``workers > 1`` backs the
    evaluator with a process pool; it never changes the search itself, so
    synthesis output stays bit-identical for every worker count.  The
    paper's many-core rollout parallelism is the *search hyper-parameter*
    ``mcts_config.rollout_batch``: setting it above 1 scores that many
    rollouts per round through the pooled evaluator — deterministic for a
    fixed config, but a different (batched) search trajectory than
    ``rollout_batch=1``.
    """

    code: StabilizerCode
    noise: NoiseModel
    decoder_factory: DecoderFactory
    shots: int = 500
    mcts_config: MCTSConfig = field(default_factory=MCTSConfig)
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        self.evaluator = ScheduleEvaluator(
            code=self.code,
            noise=self.noise,
            decoder_factory=self.decoder_factory,
            shots=self.shots,
            seed=self.seed,
            workers=self.workers,
        )

    # ------------------------------------------------------------------
    def synthesize(self) -> SynthesisResult:
        """Run the full synthesis and return the optimised schedule with metrics."""
        try:
            return self._synthesize()
        finally:
            self.evaluator.close()

    def _synthesize(self) -> SynthesisResult:
        partitions = partition_stabilizers(self.code)
        defaults = self._default_partition_schedules(partitions)
        chosen: dict[int, Schedule] = {}
        total_evaluations = 0

        for index, partition in enumerate(partitions):
            checks = checks_of_code(self.code, partition)

            def compose(candidate: Schedule, *, _index: int = index) -> Schedule:
                return self._compose(partitions, chosen, defaults, _index, candidate)

            search = PartitionMCTS(
                evaluator=self.evaluator,
                checks=tuple(checks),
                compose=compose,
                config=self.mcts_config,
            )
            partition_schedule, _ = search.search()
            chosen[index] = partition_schedule
            total_evaluations += search.evaluations_used

        final = self._concatenate(
            [chosen[i] for i in range(len(partitions))]
        )
        final.validate()
        rates = self.evaluator.evaluate(final)
        baseline = lowest_depth_schedule(self.code, partitions=partitions)
        baseline_rates = self.evaluator.evaluate(baseline)
        return SynthesisResult(
            schedule=final,
            rates=rates,
            baseline_rates=baseline_rates,
            partitions=partitions,
            evaluations=total_evaluations,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _default_partition_schedules(
        self, partitions: list[list[int]]
    ) -> list[Schedule]:
        """Lowest-depth schedule of each partition, used before it is optimised."""
        full_default = lowest_depth_schedule(self.code, partitions=partitions)
        defaults = []
        for partition in partitions:
            members = set(partition)
            block = Schedule(self.code)
            ticks = [
                tick
                for check, tick in full_default.assignment.items()
                if check.stabilizer in members
            ]
            offset = min(ticks) - 1 if ticks else 0
            for check, tick in full_default.assignment.items():
                if check.stabilizer in members:
                    block.assignment[check] = tick - offset
            defaults.append(block)
        return defaults

    def _compose(
        self,
        partitions: list[list[int]],
        chosen: dict[int, Schedule],
        defaults: list[Schedule],
        active_index: int,
        candidate: Schedule,
    ) -> Schedule:
        blocks: list[Schedule] = []
        for index in range(len(partitions)):
            if index == active_index:
                blocks.append(candidate)
            elif index in chosen:
                blocks.append(chosen[index])
            else:
                blocks.append(defaults[index])
        return self._concatenate(blocks)

    def _concatenate(self, blocks: list[Schedule]) -> Schedule:
        merged = Schedule(self.code)
        offset = 0
        for block in blocks:
            if not block.assignment:
                continue
            for check, tick in block.assignment.items():
                merged.assignment[check] = tick + offset
            offset = merged.depth
        return merged

