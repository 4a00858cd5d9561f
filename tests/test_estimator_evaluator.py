"""Tests for the logical-error-rate estimator and the schedule evaluator."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core import ScheduleEvaluator
from repro.noise import NoiseModel
from repro.scheduling import google_surface_schedule, lowest_depth_schedule, trivial_schedule
from repro.sim import LogicalErrorRates, estimate_logical_error_rates


class TestLogicalErrorRates:
    def test_overall_combines_bases(self):
        rates = LogicalErrorRates(error_x=0.1, error_z=0.2, shots=100, depth=4)
        assert rates.overall == pytest.approx(1 - 0.9 * 0.8)

    def test_score_is_inverse_overall(self):
        rates = LogicalErrorRates(error_x=0.1, error_z=0.0, shots=100, depth=4)
        assert rates.score == pytest.approx(10.0)

    def test_zero_error_score_is_infinite(self):
        rates = LogicalErrorRates(error_x=0.0, error_z=0.0, shots=100, depth=4)
        assert rates.score == float("inf")

    def test_str_contains_rates(self):
        rates = LogicalErrorRates(error_x=0.1, error_z=0.2, shots=10, depth=3)
        assert "err_x" in str(rates) and "depth=3" in str(rates)


class TestEstimator:
    def test_zero_noise_gives_zero_error(self, steane, lookup_factory):
        noise = NoiseModel(two_qubit_error=0.0, idle_error=0.0)
        rates = estimate_logical_error_rates(
            steane, lowest_depth_schedule(steane), noise, lookup_factory, shots=200, seed=0
        )
        assert rates.error_x == 0.0
        assert rates.error_z == 0.0
        assert rates.overall == 0.0

    def test_reproducible_with_seed(self, steane, lookup_factory, brisbane):
        schedule = lowest_depth_schedule(steane)
        first = estimate_logical_error_rates(
            steane, schedule, brisbane, lookup_factory, shots=300, seed=7
        )
        second = estimate_logical_error_rates(
            steane, schedule, brisbane, lookup_factory, shots=300, seed=7
        )
        assert first.error_x == second.error_x
        assert first.error_z == second.error_z

    def test_error_rate_grows_with_noise(self, steane, lookup_factory):
        schedule = lowest_depth_schedule(steane)
        low = estimate_logical_error_rates(
            steane, schedule, NoiseModel(0.001, 0.0005), lookup_factory, shots=1500, seed=3
        )
        high = estimate_logical_error_rates(
            steane, schedule, NoiseModel(0.02, 0.01), lookup_factory, shots=1500, seed=3
        )
        assert high.overall > low.overall

    def test_google_schedule_beats_trivial_on_surface_code(
        self, surface_d3, mwpm_factory, brisbane
    ):
        google = estimate_logical_error_rates(
            surface_d3,
            google_surface_schedule(surface_d3),
            brisbane,
            mwpm_factory,
            shots=1500,
            seed=5,
        )
        trivial = estimate_logical_error_rates(
            surface_d3,
            trivial_schedule(surface_d3),
            brisbane,
            mwpm_factory,
            shots=1500,
            seed=5,
        )
        assert google.overall < trivial.overall

    def test_peak_memory_bounded_by_the_chunk(self, surface_d3, mwpm_factory, brisbane):
        """A fixed-shot estimate streams per-chunk counts, so 16x the shots
        may cost at most 1.5x the traced peak memory."""
        schedule = lowest_depth_schedule(surface_d3)

        def peak(shots):
            tracemalloc.start()
            try:
                estimate_logical_error_rates(
                    surface_d3, schedule, brisbane, mwpm_factory, shots=shots, seed=1
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # first-use caches (imports, matching tables) stay out of the ratio
        assert peak(16_384) <= 1.5 * peak(1_024)

    def test_depth_reported(self, steane, lookup_factory, brisbane):
        schedule = trivial_schedule(steane)
        rates = estimate_logical_error_rates(
            steane, schedule, brisbane, lookup_factory, shots=50, seed=0
        )
        assert rates.depth == schedule.depth


class TestScheduleEvaluator:
    def test_cache_hits(self, steane, lookup_factory, brisbane):
        evaluator = ScheduleEvaluator(
            code=steane,
            noise=brisbane,
            decoder_factory=lookup_factory,
            shots=100,
            seed=0,
        )
        schedule = lowest_depth_schedule(steane)
        first = evaluator.evaluate(schedule)
        second = evaluator.evaluate(schedule.copy())
        assert first is second
        assert evaluator.cache_size == 1

    def test_score_monotone_in_error_rate(self, steane, lookup_factory, brisbane):
        evaluator = ScheduleEvaluator(
            code=steane,
            noise=brisbane,
            decoder_factory=lookup_factory,
            shots=400,
            seed=0,
        )
        good = evaluator.score(lowest_depth_schedule(steane))
        bad = evaluator.score(trivial_schedule(steane))
        rates_good = evaluator.evaluate(lowest_depth_schedule(steane))
        rates_bad = evaluator.evaluate(trivial_schedule(steane))
        assert (good >= bad) == (rates_good.overall <= rates_bad.overall)

    def test_neg_log_objective(self, steane, lookup_factory, brisbane):
        evaluator = ScheduleEvaluator(
            code=steane,
            noise=brisbane,
            decoder_factory=lookup_factory,
            shots=100,
            seed=0,
            objective="neg_log",
        )
        score = evaluator.score(lowest_depth_schedule(steane))
        assert score > 0

    def test_invalid_objective_rejected(self, steane, lookup_factory, brisbane):
        with pytest.raises(ValueError):
            ScheduleEvaluator(
                code=steane,
                noise=brisbane,
                decoder_factory=lookup_factory,
                objective="magic",
            )

    def test_perfect_schedule_score_capped(self, steane, lookup_factory):
        evaluator = ScheduleEvaluator(
            code=steane,
            noise=NoiseModel(0.0, 0.0),
            decoder_factory=lookup_factory,
            shots=50,
            seed=0,
        )
        assert evaluator.score(lowest_depth_schedule(steane)) == pytest.approx(1e6)


class TestScheduleEvaluatorCacheSemantics:
    def _evaluator(self, steane, lookup_factory, brisbane, shots=100, **kwargs):
        return ScheduleEvaluator(
            code=steane,
            noise=brisbane,
            decoder_factory=lookup_factory,
            shots=shots,
            seed=0,
            **kwargs,
        )

    def test_permuted_insertion_order_hits_cache(self, steane, lookup_factory, brisbane):
        """schedule_key canonicalises the assignment, so two schedules that
        differ only in dict insertion order are one cache entry."""
        from repro.scheduling.schedule import Schedule

        evaluator = self._evaluator(steane, lookup_factory, brisbane)
        schedule = lowest_depth_schedule(steane)
        permuted = Schedule(steane)
        for check, tick in reversed(list(schedule.assignment.items())):
            permuted.assignment[check] = tick
        assert list(permuted.assignment) != list(schedule.assignment)
        first = evaluator.evaluate(schedule)
        second = evaluator.evaluate(permuted)
        assert first is second
        assert evaluator.cache_size == 1

    def test_neg_log_zero_error_capped(self, steane, lookup_factory):
        import math

        evaluator = ScheduleEvaluator(
            code=steane,
            noise=NoiseModel(0.0, 0.0),
            decoder_factory=lookup_factory,
            shots=50,
            seed=0,
            objective="neg_log",
        )
        assert evaluator.score(lowest_depth_schedule(steane)) == pytest.approx(
            math.log(1e6)
        )

    def test_neg_log_matches_log_of_overall(self, steane, lookup_factory, brisbane):
        import math

        evaluator = self._evaluator(steane, lookup_factory, brisbane, objective="neg_log")
        schedule = trivial_schedule(steane)
        rates = evaluator.evaluate(schedule)
        assert rates.overall > 0
        assert evaluator.score(schedule) == pytest.approx(-math.log(rates.overall))

    def test_evaluate_many_orders_and_dedupes(self, steane, lookup_factory, brisbane):
        evaluator = self._evaluator(steane, lookup_factory, brisbane)
        low = lowest_depth_schedule(steane)
        bad = trivial_schedule(steane)
        results = evaluator.evaluate_many([low, bad, low.copy()])
        assert evaluator.cache_size == 2
        assert results[0] is results[2]
        assert results[0] == evaluator.evaluate(low)
        assert results[1] == evaluator.evaluate(bad)

    def test_score_many_matches_score(self, steane, lookup_factory, brisbane):
        evaluator = self._evaluator(steane, lookup_factory, brisbane)
        schedules = [lowest_depth_schedule(steane), trivial_schedule(steane)]
        assert evaluator.score_many(schedules) == [
            evaluator.score(schedule) for schedule in schedules
        ]

    @pytest.mark.parametrize("shots", [100, 2500])
    def test_pooled_evaluate_many_bit_identical(self, steane, lookup_factory, brisbane, shots):
        """Acceptance: workers>1 fan-out reproduces the serial streams exactly
        (2500 shots spans several chunks inside each pooled task)."""
        serial = self._evaluator(steane, lookup_factory, brisbane, shots)
        schedules = [lowest_depth_schedule(steane), trivial_schedule(steane)]
        with self._evaluator(steane, lookup_factory, brisbane, shots, workers=2) as pooled:
            assert pooled.evaluate_many(schedules) == serial.evaluate_many(schedules)

    def test_invalid_workers_rejected(self, steane, lookup_factory, brisbane):
        with pytest.raises(ValueError, match="workers"):
            self._evaluator(steane, lookup_factory, brisbane, workers=0)
