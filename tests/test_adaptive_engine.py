"""Tests for the adaptive precision-targeted estimation engine.

Covers the Wilson stopping rule (including its zero-error and zero-trial
edge cases), the chunk-streaming engine's prefix-reproducibility and
worker-invariance guarantees, the content-addressed chunk cache (resume
with zero new sampling, refinement under a tighter target), the adaptive
paths of Budget/RunSpec and Pipeline, and the evaluator's fixed budget.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.parallel as parallel
from repro.analysis.stats import (
    StoppingRule,
    normal_quantile,
    relative_error,
    wilson_halfwidth,
    wilson_interval,
    z_for_confidence,
)
from repro.api import Budget, Pipeline, RunSpec
from repro.cache import ChunkSummary, ResultCache, chunk_address
from repro.core.evaluator import ScheduleEvaluator
from repro.parallel import (
    chunk_plan,
    chunk_sizes,
    chunk_step,
    sample_and_decode,
    sample_batches,
)
from repro.sim import count_wrong
from repro.sim.sampler import DemSampler, SampleBatch


# ----------------------------------------------------------------------
# Stopping-rule statistics (edge cases surfaced by the stopping rule)
# ----------------------------------------------------------------------
class TestWilsonEdgeCases:
    def test_zero_observed_errors_interval(self):
        """successes=0 must yield a valid (0, upper) interval, not a crash."""
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert 0.0 < high < 0.05

    def test_all_errors_interval(self):
        low, high = wilson_interval(100, 100)
        assert high == pytest.approx(1.0)
        assert 0.95 < low < 1.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            wilson_interval(0, 0)

    def test_halfwidth_shrinks_with_trials(self):
        assert wilson_halfwidth(10, 1000) < wilson_halfwidth(1, 100)

    def test_relative_error_zero_errors_is_inf(self):
        """The 0-errors edge: relative precision is undefined, never 'met'."""
        assert relative_error(0, 10_000) == math.inf
        assert relative_error(5, 0) == math.inf

    def test_relative_error_decreases_with_trials(self):
        assert relative_error(100, 10_000) < relative_error(10, 1_000)

    def test_normal_quantile_reference_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-5)

    def test_normal_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_z_for_confidence(self):
        assert z_for_confidence(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_for_confidence(0.99) == pytest.approx(2.575829, abs=1e-5)


class TestStoppingRule:
    def test_no_target_never_converges(self):
        rule = StoppingRule(max_shots=1000)
        assert not rule.converged(500, 1000)

    def test_zero_errors_never_converges(self):
        rule = StoppingRule(max_shots=10**9, target_rse=0.5)
        assert not rule.converged(0, 10**6)

    def test_zero_trials_never_converges(self):
        rule = StoppingRule(max_shots=100, target_rse=0.5)
        assert not rule.converged(0, 0)

    def test_precision_convergence(self):
        rule = StoppingRule(max_shots=10**9, target_rse=0.2)
        assert not rule.converged(5, 100)
        assert rule.converged(500, 10_000)

    def test_validation(self):
        with pytest.raises(ValueError, match="target_rse"):
            StoppingRule(max_shots=10, target_rse=0.0)
        with pytest.raises(ValueError, match="max_shots"):
            StoppingRule(max_shots=-1)


# ----------------------------------------------------------------------
# The shared chunk units: plan, replay rule, chunk step, consume step
# ----------------------------------------------------------------------
class _DictStore:
    """A ChunkStore stand-in: summaries in a dict, every put recorded."""

    def __init__(self, summaries=None):
        self.summaries = dict(summaries or {})
        self.puts = []

    def get(self, index):
        return self.summaries.get(index)

    def put(self, index, shots, errors):
        self.puts.append((index, shots, errors))
        self.summaries[index] = ChunkSummary(shots, errors)


class TestChunkUnits:
    def test_plan_spawns_one_child_stream_per_chunk(self):
        plan = chunk_plan(2500, np.random.SeedSequence(7), chunk_shots=1000)
        assert plan.sizes == chunk_sizes(2500, 1000) == [834, 833, 833]
        expected = np.random.SeedSequence(7).spawn(3)
        assert [s.spawn_key for s in plan.streams] == [s.spawn_key for s in expected]
        assert all(s.entropy == 7 for s in plan.streams)

    def test_single_chunk_and_empty_plans_reuse_the_stream(self):
        stream = np.random.SeedSequence(3)
        single = chunk_plan(500, stream, chunk_shots=1000)
        assert single.sizes == [500]
        assert single.streams == [stream]
        assert stream.n_children_spawned == 0
        empty = chunk_plan(0, stream)
        assert empty.sizes == [] and empty.streams == [stream]

    def test_replay_counts_a_summary_only_at_its_planned_size(self):
        plan = chunk_plan(2000, np.random.SeedSequence(1), chunk_shots=1000)
        store = _DictStore({0: ChunkSummary(1000, 4), 1: ChunkSummary(999, 2)})
        assert plan.replay(store, 0) == (1000, 4)
        assert plan.replay(store, 1) is None  # a stale layout is a miss
        assert plan.replay(_DictStore(), 0) is None
        assert plan.replay(None, 0) is None

    def test_chunk_step_replays_without_running(self):
        plan = chunk_plan(2000, np.random.SeedSequence(1), chunk_shots=1000)
        store = _DictStore({1: ChunkSummary(1000, 5)})

        def run(shots, stream):
            raise AssertionError("a replayed chunk must not run")

        assert chunk_step(plan, 1, store, run) == ((1000, 5), False)
        assert store.puts == []

    def test_chunk_step_runs_and_publishes_a_miss(self):
        plan = chunk_plan(2000, np.random.SeedSequence(1), chunk_shots=1000)
        store = _DictStore({0: ChunkSummary(7, 1)})
        calls = []

        def run(shots, stream):
            calls.append((shots, stream))
            return shots, 3

        assert chunk_step(plan, 0, store, run) == ((1000, 3), True)
        assert calls == [(1000, plan.streams[0])]
        assert store.puts == [(0, 1000, 3)]
        assert chunk_step(plan, 0, None, run) == ((1000, 3), True)

    def test_consume_without_target_stops_at_the_plan_end(self):
        rule = StoppingRule(max_shots=3000)
        progress = parallel.AdaptiveEstimate()
        assert not progress.consume(1000, 10, True, rule, planned=3)
        assert not progress.consume(1000, 20, False, rule, planned=3)
        assert progress.consume(1000, 30, True, rule, planned=3)
        assert (progress.shots, progress.errors, progress.chunks) == (3000, 60, 3)
        assert progress.chunk_counts == [(1000, 10), (1000, 20), (1000, 30)]
        assert (progress.fresh_chunks, progress.cache_hits) == (2, 1)
        assert not progress.converged
        assert progress.rate == pytest.approx(0.02)

    def test_consume_stops_once_the_rule_converges(self):
        rule = StoppingRule(max_shots=10**6, target_rse=0.2)
        progress = parallel.AdaptiveEstimate()
        assert progress.rate == 0.0
        assert not progress.consume(100, 0, True, rule, planned=1000)
        assert not progress.converged
        assert progress.consume(10_000, 500, False, rule, planned=1000)
        assert progress.converged
        assert (progress.shots, progress.errors) == (10_100, 500)
        assert (progress.fresh_chunks, progress.cache_hits) == (1, 1)


class TestCountWrongEdges:
    def test_zero_shots_count(self):
        batch = SampleBatch(
            detectors=np.zeros((0, 3), dtype=np.uint8),
            observables=np.zeros((0, 2), dtype=np.uint8),
            packed_detectors=np.zeros((0, 1), dtype=np.uint64),
        )
        predictions = np.zeros((0, 2), dtype=np.uint8)
        assert count_wrong(predictions, batch) == 0

    def test_zero_shots_still_validates_shapes(self):
        batch = SampleBatch(
            detectors=np.zeros((0, 3), dtype=np.uint8),
            observables=np.zeros((0, 2), dtype=np.uint8),
            packed_detectors=np.zeros((0, 1), dtype=np.uint64),
        )
        with pytest.raises(ValueError, match="shape"):
            count_wrong(np.zeros((0, 3), dtype=np.uint8), batch)

    def test_count_of_mixed_batch(self):
        batch = SampleBatch(
            detectors=np.zeros((4, 1), dtype=np.uint8),
            observables=np.array([[0], [1], [0], [1]], dtype=np.uint8),
            packed_detectors=np.zeros((4, 1), dtype=np.uint64),
        )
        predictions = np.array([[0], [0], [0], [1]], dtype=np.uint8)
        assert count_wrong(predictions, batch) == 1


# ----------------------------------------------------------------------
# Budget / RunSpec precision knobs
# ----------------------------------------------------------------------
class TestBudgetPrecisionKnobs:
    def test_round_trip_with_precision_fields(self):
        spec = RunSpec(budget=Budget(shots=100, target_rse=0.1, max_shots=9999, confidence=0.9))
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.budget.target_rse == 0.1

    def test_legacy_payload_without_precision_fields_loads(self):
        budget = Budget.from_dict({"shots": 7})
        assert budget.target_rse is None
        assert not budget.adaptive

    def test_plan_shots_defaults_to_shots(self):
        assert Budget(shots=500).plan_shots == 500
        # max_shots is the adaptive ceiling: a fixed-shot budget ignores it.
        assert Budget(shots=500, max_shots=9000).plan_shots == 500
        assert Budget(shots=500, max_shots=9000).stopping_rule().max_shots == 500
        assert Budget(shots=500, target_rse=0.1, max_shots=9000).plan_shots == 9000

    def test_stopping_rule_uses_confidence(self):
        rule = Budget(shots=100, target_rse=0.1, confidence=0.99).stopping_rule()
        assert rule.z == pytest.approx(2.575829, abs=1e-5)
        assert rule.max_shots == 100

    def test_validation(self):
        with pytest.raises(ValueError, match="target_rse"):
            Budget(target_rse=-0.5)
        with pytest.raises(ValueError, match="confidence"):
            Budget(confidence=1.5)
        with pytest.raises(ValueError, match="max_shots"):
            Budget(max_shots=-3)


# ----------------------------------------------------------------------
# The chunk-streaming engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def problem():
    """A small DEM + decoder factory + its DEM sampler + a *maker* of the basis-Z stream.

    ``SeedSequence.spawn`` is stateful (every call advances the child
    counter), so each run must derive its stream fresh from the integer
    seed — exactly what Pipeline/estimator do in production.
    """
    from repro.api.registries import decoders
    from repro.circuits.memory import build_memory_experiment
    from repro.codes import rotated_surface_code
    from repro.noise import brisbane_noise
    from repro.scheduling import lowest_depth_schedule
    from repro.sim import build_detector_error_model
    from repro.sim.estimator import basis_streams

    code = rotated_surface_code(3)
    schedule = lowest_depth_schedule(code)
    experiment = build_memory_experiment(code, schedule, brisbane_noise(), basis="Z")
    dem = build_detector_error_model(experiment.circuit)
    return dem, decoders.build("lookup"), DemSampler(dem=dem), lambda: dict(basis_streams(5))["Z"]


def _fixed_chunk_counts(dem, factory, sampler, stream, shots, chunk_shots):
    """Per-chunk (shots, errors) of the *fixed-shot* run, for comparison."""
    batch, predictions = sample_batches(
        dem, factory, sampler, shots, stream, chunk_shots=chunk_shots
    )
    counts, start = [], 0
    for size in chunk_sizes(shots, chunk_shots):
        stop = start + size
        sub = SampleBatch(
            detectors=batch.detectors[start:stop],
            observables=batch.observables[start:stop],
            packed_detectors=batch.packed_detectors[start:stop],
        )
        counts.append((size, count_wrong(predictions[start:stop], sub)))
        start = stop
    return counts


class TestAdaptiveEngine:
    def test_full_consumption_equals_fixed_run(self, problem):
        """A never-converging target consumes the whole plan bit-identically."""
        dem, factory, sampler, make_stream = problem
        rule = StoppingRule(max_shots=600, target_rse=1e-9)
        estimate = sample_and_decode(
            dem, factory, sampler, make_stream(), rule, chunk_shots=128
        )
        assert estimate.shots == 600
        assert not estimate.converged
        assert estimate.chunk_counts == _fixed_chunk_counts(
            dem, factory, sampler, make_stream(), 600, 128
        )

    def test_early_stop_is_fixed_run_prefix(self, problem):
        """Acceptance: any consumed prefix is bit-identical to the fixed run."""
        dem, factory, sampler, make_stream = problem
        rule = StoppingRule(max_shots=4096, target_rse=0.6, z=1.96)
        estimate = sample_and_decode(
            dem, factory, sampler, make_stream(), rule, chunk_shots=128
        )
        assert estimate.converged
        assert 0 < estimate.chunks < len(chunk_sizes(4096, 128))
        fixed = _fixed_chunk_counts(dem, factory, sampler, make_stream(), 4096, 128)
        assert estimate.chunk_counts == fixed[: estimate.chunks]

    def test_stop_index_is_minimal(self, problem):
        """The engine stops at the *first* chunk where the rule fires."""
        dem, factory, sampler, make_stream = problem
        rule = StoppingRule(max_shots=4096, target_rse=0.6, z=1.96)
        estimate = sample_and_decode(
            dem, factory, sampler, make_stream(), rule, chunk_shots=128
        )
        shots = errors = 0
        for index, (size, wrong) in enumerate(estimate.chunk_counts):
            shots += size
            errors += wrong
            if rule.converged(errors, shots):
                assert index == estimate.chunks - 1
                break
        else:
            pytest.fail("rule never fired on the consumed prefix")

    def test_max_shots_smaller_than_one_chunk(self, problem):
        """Edge case: the plan is a single short chunk, stream unspawned."""
        dem, factory, sampler, make_stream = problem
        rule = StoppingRule(max_shots=100, target_rse=1e-9)
        estimate = sample_and_decode(
            dem, factory, sampler, make_stream(), rule, chunk_shots=1024
        )
        assert estimate.shots == 100
        assert estimate.chunks == 1
        # Single-chunk plans must be bit-identical to the unchunked fixed
        # path (which passes the caller's stream through unspawned).
        batch, predictions = sample_batches(dem, factory, sampler, 100, make_stream())
        assert estimate.errors == count_wrong(predictions, batch)

    def test_zero_max_shots(self, problem):
        dem, factory, sampler, make_stream = problem
        estimate = sample_and_decode(
            dem, factory, sampler, make_stream(), StoppingRule(max_shots=0, target_rse=0.1)
        )
        assert estimate.shots == 0
        assert estimate.rate == 0.0
        assert not estimate.converged

    def test_pool_speculation_is_invariant(self, problem):
        """Speculative pool execution must not change the stopping point."""
        from concurrent.futures import ProcessPoolExecutor

        dem, factory, sampler, make_stream = problem
        rule = StoppingRule(max_shots=2048, target_rse=0.6, z=1.96)
        serial = sample_and_decode(
            dem, factory, sampler, make_stream(), rule, chunk_shots=256
        )
        with ProcessPoolExecutor(max_workers=3) as pool:
            pooled = sample_and_decode(
                dem, factory, sampler, make_stream(), rule, chunk_shots=256, pool=pool, lookahead=3
            )
        assert pooled == serial


# ----------------------------------------------------------------------
# Pipeline adaptive mode + content-addressed cache
# ----------------------------------------------------------------------
ADAPTIVE_SPEC = RunSpec(
    code="surface:d=3",
    decoder="lookup",
    scheduler="lowest_depth",
    seed=3,
    budget=Budget(shots=400, target_rse=0.35, max_shots=4096),
)


class TestAdaptivePipeline:
    def test_fixed_mode_unchanged_by_default(self):
        """target_rse=None keeps the budget non-adaptive (bit-identity of the
        fixed path itself is pinned by test_api_pipeline)."""
        pipeline = Pipeline(ADAPTIVE_SPEC.replace(budget=Budget(shots=400)))
        assert not pipeline.adaptive
        assert pipeline.adaptive_report is None
        # The fixed run streams the same count-only engine, whole plan consumed.
        assert {basis: e.shots for basis, e in pipeline.estimates.items()} == {"Z": 400, "X": 400}
        assert pipeline.rates.shots_by_basis is None and pipeline.rates.converged is None
        assert pipeline.result.to_dict().get("adaptive") is None

    def test_adaptive_rates_and_report(self):
        pipeline = Pipeline(ADAPTIVE_SPEC)
        rates = pipeline.rates
        assert set(rates.shots_by_basis) == {"Z", "X"}
        assert rates.shots == max(rates.shots_by_basis.values())
        assert rates.shots <= 4096
        report = pipeline.adaptive_report
        assert report["target_rse"] == 0.35
        assert report["fresh_chunks"] > 0 and report["cache_hits"] == 0
        payload = pipeline.result.to_dict()
        assert payload["adaptive"]["bases"]["Z"]["shots"] == rates.shots_by_basis["Z"]

    def test_worker_invariance(self):
        serial = Pipeline(ADAPTIVE_SPEC)
        pooled = Pipeline(ADAPTIVE_SPEC.replace(workers=2))
        assert serial.rates == pooled.rates
        assert serial.estimates == pooled.estimates

    def test_artifacts_unavailable_in_adaptive_mode(self):
        pipeline = Pipeline(ADAPTIVE_SPEC)
        with pytest.raises(RuntimeError, match="adaptive"):
            pipeline.syndromes
        with pytest.raises(RuntimeError, match="adaptive"):
            pipeline.predictions

    def test_cache_resume_zero_new_sampling(self, tmp_path):
        """Acceptance: a rerun against a warm cache samples nothing."""
        first = Pipeline(ADAPTIVE_SPEC, cache=tmp_path / "cache")
        report = first.adaptive_report
        assert report["fresh_chunks"] > 0
        resumed = Pipeline(ADAPTIVE_SPEC, cache=tmp_path / "cache")
        resumed_report = resumed.adaptive_report
        assert resumed_report["fresh_chunks"] == 0
        assert resumed_report["cache_hits"] == report["fresh_chunks"]
        assert resumed.rates == first.rates

    def test_cache_refinement_under_tighter_target(self, tmp_path):
        """A tighter target replays every cached chunk, samples only new ones."""
        coarse = Pipeline(ADAPTIVE_SPEC, cache=tmp_path / "cache")
        consumed = coarse.adaptive_report["fresh_chunks"]
        tighter = ADAPTIVE_SPEC.replace(
            budget=ADAPTIVE_SPEC.budget.replace(target_rse=0.2)
        )
        refined = Pipeline(tighter, cache=tmp_path / "cache")
        report = refined.adaptive_report
        assert report["cache_hits"] == consumed
        assert refined.rates.shots >= coarse.rates.shots

    def test_cache_ignores_worker_count(self, tmp_path):
        """The address drops `workers`: a pooled run resumes a serial cache."""
        serial = Pipeline(ADAPTIVE_SPEC, cache=tmp_path / "cache")
        assert serial.adaptive_report["fresh_chunks"] > 0
        pooled = Pipeline(ADAPTIVE_SPEC.replace(workers=2), cache=tmp_path / "cache")
        assert pooled.adaptive_report["fresh_chunks"] == 0

    def test_cache_distinguishes_content_fields(self, tmp_path):
        """A different seed (or decoder, ...) must never share chunks."""
        warm = Pipeline(ADAPTIVE_SPEC, cache=tmp_path / "cache")
        assert warm.adaptive_report["fresh_chunks"] > 0
        other_seed = Pipeline(ADAPTIVE_SPEC.replace(seed=4), cache=tmp_path / "cache")
        assert other_seed.adaptive_report["cache_hits"] == 0


class TestChunkAddress:
    def test_workers_and_precision_knobs_excluded(self):
        base = chunk_address(ADAPTIVE_SPEC, "Z", 0, 1024)
        for variant in (
            ADAPTIVE_SPEC.replace(workers=8),
            ADAPTIVE_SPEC.replace(budget=ADAPTIVE_SPEC.budget.replace(target_rse=0.01)),
            ADAPTIVE_SPEC.replace(budget=ADAPTIVE_SPEC.budget.replace(confidence=0.99)),
        ):
            assert chunk_address(variant, "Z", 0, 1024) == base

    def test_content_fields_included(self):
        base = chunk_address(ADAPTIVE_SPEC, "Z", 0, 1024)
        assert chunk_address(ADAPTIVE_SPEC.replace(seed=9), "Z", 0, 1024) != base
        assert chunk_address(ADAPTIVE_SPEC, "X", 0, 1024) != base
        assert chunk_address(ADAPTIVE_SPEC, "Z", 1, 1024) != base
        assert chunk_address(ADAPTIVE_SPEC, "Z", 0, 512) != base
        bigger_plan = ADAPTIVE_SPEC.replace(
            budget=ADAPTIVE_SPEC.budget.replace(max_shots=8192)
        )
        assert chunk_address(bigger_plan, "Z", 0, 1024) != base

    def test_stale_size_mismatch_treated_as_miss(self, tmp_path, problem):
        """A summary from a different layout must be resampled, not trusted."""
        dem, factory, sampler, make_stream = problem
        cache = ResultCache(tmp_path / "cache")
        store = cache.chunk_store(ADAPTIVE_SPEC, "Z", 1024)
        store.put(0, shots=999, errors=1)  # wrong size for a 100-shot plan
        rule = StoppingRule(max_shots=100, target_rse=1e-9)
        estimate = sample_and_decode(
            dem, factory, sampler, make_stream(), rule, chunk_shots=1024, store=store
        )
        assert estimate.cache_hits == 0
        assert estimate.fresh_chunks == 1


class TestResultCacheMaintenance:
    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 0 and cache.entries() == []
        store = cache.chunk_store(ADAPTIVE_SPEC, "Z", 1024)
        store.put(0, 1024, 3)
        store.put(1, 1024, 5)
        assert len(cache) == 2
        entries = cache.entries()
        assert {entry["errors"] for entry in entries} == {3, 5}
        assert all("key" in entry for entry in entries)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.chunk_store(ADAPTIVE_SPEC, "Z", 1024).put(0, 1024, 3)
        for path in cache._entry_files():
            path.write_text("{not json")
        # A fresh store (fresh process) must treat the torn entry as a miss.
        fresh = cache.chunk_store(ADAPTIVE_SPEC, "Z", 1024)
        assert fresh.get(0) is None

    def test_a_miss_sees_a_later_put_by_another_store(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        store = cache.chunk_store(ADAPTIVE_SPEC, "Z", 1024)
        assert store.get(0) is None
        cache.chunk_store(ADAPTIVE_SPEC, "Z", 1024).put(0, 1024, 3)
        assert store.get(0) == ChunkSummary(shots=1024, errors=3)


# ----------------------------------------------------------------------
# The evaluator samples a fixed budget (its precision settings are retired)
# ----------------------------------------------------------------------
class TestFixedShotEvaluator:
    @pytest.fixture(scope="class")
    def context(self, steane, brisbane, lookup_factory):
        from repro.scheduling import lowest_depth_schedule, trivial_schedule

        return (
            steane,
            brisbane,
            lookup_factory,
            lowest_depth_schedule(steane),
            trivial_schedule(steane),
        )

    def test_evaluate_deterministic(self, context):
        code, noise, factory, schedule, _ = context
        first = ScheduleEvaluator(code, noise, factory, shots=300, seed=4).evaluate(schedule)
        second = ScheduleEvaluator(code, noise, factory, shots=300, seed=4).evaluate(schedule)
        assert first == second
        assert first.shots == 300
        assert first.shots_by_basis is None and first.converged is None

    def test_pooled_matches_serial(self, context):
        code, noise, factory, schedule, other = context
        serial = ScheduleEvaluator(code, noise, factory, shots=300, seed=4)
        expected = [serial.evaluate(schedule), serial.evaluate(other)]
        with ScheduleEvaluator(code, noise, factory, shots=300, seed=4, workers=2) as pooled:
            got = pooled.evaluate_many([schedule, other])
        assert got == expected

    @pytest.mark.parametrize(
        "retired", [{"target_rse": 0.1}, {"max_shots": 2000}, {"confidence": 0.9}]
    )
    def test_precision_settings_are_refused(self, context, retired):
        code, noise, factory, _, _ = context
        (name,) = retired
        with pytest.raises(TypeError, match=name) as raised:
            ScheduleEvaluator(code, noise, factory, **retired)
        assert "\n" not in str(raised.value)

    def test_fixed_mode_unchanged(self, context):
        code, noise, factory, schedule, _ = context
        from repro.sim import estimate_logical_error_rates

        evaluator = ScheduleEvaluator(code, noise, factory, shots=200, seed=4)
        legacy = estimate_logical_error_rates(
            code, schedule, noise, factory, shots=200, seed=4
        )
        rates = evaluator.evaluate(schedule)
        assert (rates.error_x, rates.error_z) == (legacy.error_x, legacy.error_z)
        assert rates.shots_by_basis is None

    def test_validation(self, context):
        """An invalid budget fails at construction, not mid-search."""
        code, noise, factory, _, _ = context
        with pytest.raises(ValueError, match="max_shots"):
            ScheduleEvaluator(code, noise, factory, shots=-5)
        with pytest.raises(ValueError, match="workers"):
            ScheduleEvaluator(code, noise, factory, workers=0)


class TestDefaultChunkGranularityInvariance:
    def test_adaptive_multi_chunk_worker_invariance(self, monkeypatch):
        """Shrunk chunks: adaptive rates still invariant to the worker count."""
        monkeypatch.setattr(parallel, "DEFAULT_CHUNK_SHOTS", 64)
        spec = ADAPTIVE_SPEC.replace(
            budget=ADAPTIVE_SPEC.budget.replace(max_shots=512, target_rse=0.5)
        )
        serial = Pipeline(spec)
        pooled = Pipeline(spec.replace(workers=3))
        assert serial.rates == pooled.rates
        assert serial.estimates == pooled.estimates


class TestEstimatorAdaptiveEntryPoint:
    """estimate_logical_error_rates(rule=...) is THE shared adaptive path."""

    def test_matches_pipeline_and_is_deterministic(self, steane, brisbane, lookup_factory):
        from repro.scheduling import lowest_depth_schedule
        from repro.sim import estimate_logical_error_rates

        schedule = lowest_depth_schedule(steane)
        rule = StoppingRule(max_shots=2000, target_rse=0.4, z=z_for_confidence(0.95))
        rates = estimate_logical_error_rates(
            steane, schedule, brisbane, lookup_factory, rule=rule, seed=4,
        )
        assert set(rates.shots_by_basis) == {"Z", "X"}
        assert rates.shots == max(rates.shots_by_basis.values())
        assert rates.converged is not None
        again = estimate_logical_error_rates(
            steane, schedule, brisbane, lookup_factory, rule=rule, seed=4,
        )
        assert again == rates
        spec = RunSpec(
            code="steane",
            decoder="lookup",
            scheduler="lowest_depth",
            noise="brisbane",
            seed=4,
            budget=Budget(shots=300, target_rse=0.4, max_shots=2000),
        )
        assert Pipeline(spec).rates == estimate_logical_error_rates(
            steane, schedule, brisbane, lookup_factory,
            rule=spec.budget.stopping_rule(), seed=spec.eval_seed(),
        )

    def test_cached_path_is_the_pipeline(self, steane, brisbane, lookup_factory, tmp_path):
        """The estimator takes no chunk store; ``Pipeline(cache=)`` persists
        chunks and a warm rerun samples nothing and returns the same rates."""
        from repro.scheduling import lowest_depth_schedule
        from repro.sim import estimate_logical_error_rates

        rule = StoppingRule(max_shots=2000, target_rse=0.4)
        with pytest.raises(TypeError, match="store_factory"):
            estimate_logical_error_rates(
                steane, lowest_depth_schedule(steane), brisbane, lookup_factory,
                rule=rule, seed=4, store_factory=lambda basis: None,
            )
        spec = RunSpec(
            code="steane", decoder="lookup", scheduler="lowest_depth", seed=4,
            budget=Budget(shots=300, target_rse=0.4, max_shots=2000),
        )
        cache = ResultCache(tmp_path / "cache")
        first = Pipeline(spec, cache=cache)
        assert first.adaptive_report["fresh_chunks"] > 0
        assert len(cache) == first.adaptive_report["fresh_chunks"]
        again = Pipeline(spec, cache=cache)
        assert again.adaptive_report["fresh_chunks"] == 0
        assert again.rates == first.rates


class TestWarmPooledRun:
    def test_fully_cached_pooled_run_starts_no_worker(self, tmp_path, monkeypatch):
        """A warm adaptive Pipeline(workers=2) submits nothing to its pool,
        so the pool forks no process, and it returns the cold run's rates."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spec = ADAPTIVE_SPEC.replace(workers=2)
        cold = Pipeline(spec, cache=tmp_path / "cache")
        assert cold.adaptive_report["fresh_chunks"] > 0
        cold_rates = cold.rates

        submits = []
        original = ProcessPoolExecutor.submit

        def counting_submit(self, *args, **kwargs):
            submits.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        warm = Pipeline(spec, cache=tmp_path / "cache")
        assert warm.rates == cold_rates
        assert warm.adaptive_report["fresh_chunks"] == 0
        assert submits == []
        assert not multiprocessing.active_children()
