"""Tests for the MCTS scheduler and the AlphaSyndrome synthesis pipeline."""

from __future__ import annotations

import pytest

from repro.codes import repetition_code
from repro.core import (
    AlphaSyndrome,
    MCTSConfig,
    MCTSNode,
    PartitionMCTS,
    ScheduleEvaluator,
    synthesize_schedule,
)
from repro.noise import NoiseModel, brisbane_noise
from repro.scheduling import Schedule, checks_of_code, lowest_depth_schedule


class TestMCTSNode:
    def test_root_properties(self, steane):
        checks = tuple(checks_of_code(steane))
        node = MCTSNode(Schedule(steane), checks)
        assert not node.is_terminal
        assert not node.is_fully_expanded
        assert node.expectation == 0.0

    def test_child_for_move_assigns_earliest_tick(self, steane):
        checks = tuple(checks_of_code(steane))
        node = MCTSNode(Schedule(steane), checks)
        child = node.child_for_move(checks[0])
        assert child.schedule.num_assigned == 1
        assert len(child.remaining) == len(checks) - 1
        assert child.parent is node

    def test_uct_prefers_unvisited(self, steane):
        checks = tuple(checks_of_code(steane))
        node = MCTSNode(Schedule(steane), checks)
        node.visits = 4
        child_a = node.child_for_move(checks[0])
        child_a.visits = 2
        child_a.total_score = 4.0
        child_b = node.child_for_move(checks[1])
        node.children = [child_a, child_b]
        assert child_b.uct(1.4) > child_a.uct(1.4)

    def test_terminal_when_no_remaining(self, steane):
        node = MCTSNode(Schedule(steane), ())
        assert node.is_terminal


class TestPartitionMCTS:
    def _evaluator(self, code, shots=60):
        from repro.api.registries import decoders

        return ScheduleEvaluator(
            code=code,
            noise=brisbane_noise(),
            decoder_factory=decoders.build("lookup"),
            shots=shots,
            seed=0,
        )

    def test_search_produces_complete_valid_schedule(self):
        code = repetition_code(4)
        evaluator = self._evaluator(code)
        checks = tuple(checks_of_code(code))
        search = PartitionMCTS(
            evaluator=evaluator,
            checks=checks,
            compose=lambda schedule: schedule,
            config=MCTSConfig(iterations_per_step=2, seed=1, max_total_evaluations=8),
        )
        schedule, moves = search.search()
        schedule.validate()
        assert schedule.is_complete()
        assert len(moves) == len(checks)
        assert search.evaluations_used <= 8 + len(checks)

    def test_subtree_reuse_reduces_evaluations(self):
        code = repetition_code(4)
        checks = tuple(checks_of_code(code))

        def run(reuse: bool) -> int:
            evaluator = self._evaluator(code)
            search = PartitionMCTS(
                evaluator=evaluator,
                checks=checks,
                compose=lambda schedule: schedule,
                config=MCTSConfig(iterations_per_step=4, seed=2, reuse_subtree=reuse),
            )
            search.search()
            return search.evaluations_used

        assert run(True) <= run(False)


class TestAlphaSyndrome:
    @pytest.fixture(scope="class")
    def synthesis_result(self):
        from repro.codes import steane_code
        from repro.api.registries import decoders

        alpha = AlphaSyndrome(
            code=steane_code(),
            noise=brisbane_noise(),
            decoder_factory=decoders.build("lookup"),
            shots=80,
            mcts_config=MCTSConfig(iterations_per_step=2, seed=0, max_total_evaluations=6),
            seed=0,
        )
        return alpha.synthesize()

    def test_schedule_is_complete_and_valid(self, synthesis_result, steane):
        synthesis_result.schedule.validate()
        assert synthesis_result.schedule.is_complete()
        assert synthesis_result.schedule.num_assigned == len(checks_of_code(steane))

    def test_partitions_cover_all_stabilizers(self, synthesis_result, steane):
        covered = sorted(s for partition in synthesis_result.partitions for s in partition)
        assert covered == list(range(steane.num_stabilizers))

    def test_rates_and_baseline_reported(self, synthesis_result):
        assert 0.0 <= synthesis_result.rates.overall <= 1.0
        assert 0.0 <= synthesis_result.baseline_rates.overall <= 1.0
        assert isinstance(synthesis_result.overall_reduction, float)

    def test_evaluations_counted(self, synthesis_result):
        assert synthesis_result.evaluations > 0

    def test_convenience_wrapper(self):
        from repro.codes import repetition_code
        from repro.api.registries import decoders

        result = synthesize_schedule(
            repetition_code(3),
            NoiseModel(two_qubit_error=0.01, idle_error=0.005),
            decoders.build("lookup"),
            shots=60,
            iterations_per_step=2,
            seed=1,
        )
        result.schedule.validate()
        assert result.schedule.depth >= 2

    def test_synthesized_schedule_not_worse_than_baseline_with_common_seed(self):
        """With a shared evaluation seed the search can only keep candidates
        that score at least as well as what it has seen, so the synthesized
        schedule should not be dramatically worse than the lowest-depth
        baseline under the same evaluator."""
        from repro.codes import steane_code
        from repro.api.registries import decoders

        code = steane_code()
        alpha = AlphaSyndrome(
            code=code,
            noise=brisbane_noise(),
            decoder_factory=decoders.build("lookup"),
            shots=150,
            mcts_config=MCTSConfig(iterations_per_step=3, seed=3, max_total_evaluations=12),
            seed=3,
        )
        result = alpha.synthesize()
        baseline = result.baseline_rates.overall
        assert result.rates.overall <= baseline + 0.1


class TestBatchedRollouts:
    def _search(self, code, *, rollout_batch, max_total_evaluations=10):
        from repro.api.registries import decoders

        evaluator = ScheduleEvaluator(
            code=code,
            noise=brisbane_noise(),
            decoder_factory=decoders.build("lookup"),
            shots=50,
            seed=0,
        )
        checks = tuple(checks_of_code(code))
        search = PartitionMCTS(
            evaluator=evaluator,
            checks=checks,
            compose=lambda schedule: schedule,
            config=MCTSConfig(
                iterations_per_step=3,
                seed=1,
                max_total_evaluations=max_total_evaluations,
                rollout_batch=rollout_batch,
            ),
        )
        return search, search.search()

    def test_batched_search_completes_and_respects_budget(self):
        code = repetition_code(4)
        search, (schedule, moves) = self._search(code, rollout_batch=4)
        schedule.validate()
        assert schedule.is_complete()
        assert search.evaluations_used <= 10

    def test_batched_search_is_deterministic(self):
        code = repetition_code(4)
        _, (first, _) = self._search(code, rollout_batch=3)
        _, (second, _) = self._search(code, rollout_batch=3)
        assert first.assignment == second.assignment

    def test_iterations_counted_per_rollout_not_per_batch(self):
        code = repetition_code(3)
        serial_search, _ = self._search(code, rollout_batch=1, max_total_evaluations=None)
        batched_search, _ = self._search(code, rollout_batch=2, max_total_evaluations=None)
        # Each step runs the same total iteration budget regardless of batching.
        assert batched_search.evaluations_used == serial_search.evaluations_used

    def test_alphasyndrome_workers_never_changes_the_search(self, steane):
        """workers pools the evaluator but must NOT touch rollout_batch —
        synthesis output is bit-identical for every worker count; batching
        is an explicit search hyper-parameter."""
        from repro.api.registries import decoders

        alpha = AlphaSyndrome(
            code=steane,
            noise=brisbane_noise(),
            decoder_factory=decoders.build("lookup"),
            shots=40,
            mcts_config=MCTSConfig(iterations_per_step=1, seed=0, max_total_evaluations=2),
            workers=2,
        )
        assert alpha.mcts_config.rollout_batch == 1
        assert alpha.evaluator.workers == 2
        alpha.evaluator.close()

    def test_synthesis_worker_count_invariant(self, steane):
        """Regression: same seed -> identical synthesized schedule and rates
        for workers=1 and workers=2."""
        from repro.api.registries import decoders

        def synthesize(workers):
            alpha = AlphaSyndrome(
                code=steane,
                noise=brisbane_noise(),
                decoder_factory=decoders.build("lookup"),
                shots=40,
                mcts_config=MCTSConfig(
                    iterations_per_step=1, seed=0, max_total_evaluations=4
                ),
                seed=0,
                workers=workers,
            )
            return alpha.synthesize()

        serial = synthesize(1)
        pooled = synthesize(2)
        assert serial.schedule.assignment == pooled.schedule.assignment
        assert serial.rates == pooled.rates
        assert serial.evaluations == pooled.evaluations
