"""Tests for the logical-error-rate estimator and the schedule evaluator."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.api import Pipeline, RunSpec
from repro.core import ScheduleEvaluator
from repro.noise import depolarizing_noise
from repro.scheduling import google_surface_schedule, lowest_depth_schedule, trivial_schedule
from repro.sim import LogicalErrorRates, count_wrong, estimate_logical_error_rates

#: Fixed-shot surface d=3 pipeline with MWPM (the chunk-memory bound's subject).
_MEMORY_SPEC = RunSpec(code="surface:d=3", decoder="mwpm", scheduler="lowest_depth", seed=1)


class TestLogicalErrorRates:
    def test_overall_combines_bases(self):
        rates = LogicalErrorRates(error_x=0.1, error_z=0.2, shots=100, depth=4)
        assert rates.overall == pytest.approx(1 - 0.9 * 0.8)

    def test_str_contains_rates(self):
        rates = LogicalErrorRates(error_x=0.1, error_z=0.2, shots=10, depth=3)
        assert "err_x" in str(rates) and "depth=3" in str(rates)


class TestEstimator:
    def test_zero_noise_gives_zero_error(self, steane, lookup_factory):
        noise = depolarizing_noise(0.0, 0.0)
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
            steane, schedule, depolarizing_noise(0.001, 0.0005), lookup_factory, shots=1500, seed=3
        )
        high = estimate_logical_error_rates(
            steane, schedule, depolarizing_noise(0.02, 0.01), lookup_factory, shots=1500, seed=3
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

    @pytest.mark.parametrize("path", ["estimator", "pipeline"])
    def test_peak_memory_bounded_by_the_chunk(self, path, surface_d3, mwpm_factory, brisbane):
        """A fixed-shot estimate streams per-chunk counts, so 16x the shots
        may cost at most 1.5x the traced peak memory — through the
        estimator and through ``Pipeline.run()`` (stages built untraced)."""
        schedule = lowest_depth_schedule(surface_d3)

        def run(shots):
            if path == "estimator":
                return lambda: estimate_logical_error_rates(
                    surface_d3, schedule, brisbane, mwpm_factory, shots=shots, seed=1
                )
            pipeline = Pipeline(_MEMORY_SPEC, shots=shots)
            pipeline.schedule, pipeline.dem, pipeline.decoder_factory, pipeline.samplers
            return pipeline.run

        def peak(shots):
            work = run(shots)
            tracemalloc.start()
            try:
                work()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # first-use caches (imports, matching tables) stay out of the ratio
        assert peak(16_384) <= 1.5 * peak(1_024)

    def test_pipeline_rates_count_the_materialised_batches(self):
        """The count-only rates equal counting the kept batches, per basis."""
        pipeline = Pipeline(_MEMORY_SPEC, shots=1_500)
        rates = pipeline.rates
        for basis, rate in (("Z", rates.error_x), ("X", rates.error_z)):
            wrong = count_wrong(pipeline.predictions[basis], pipeline.syndromes[basis])
            assert wrong / 1_500 == rate

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

    def test_perfect_schedule_score_capped(self, steane, lookup_factory):
        evaluator = ScheduleEvaluator(
            code=steane,
            noise=depolarizing_noise(0.0, 0.0),
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
