"""Tests for RunSpec serialisation, Pipeline staging and seed plumbing."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import Budget, Pipeline, RunSpec
from repro.seeding import (
    as_seed_sequence,
    named_stream,
    spawn_streams,
    stream_to_int,
)
from repro.sim import estimate_logical_error_rates


class TestRunSpec:
    def test_round_trip_dict(self):
        spec = RunSpec(
            code="surface:d=5",
            decoder="lookup:max_order=1",
            scheduler="google",
            budget=Budget(shots=123, synthesis_shots=45),
            seed=9,
            workers=2,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_json(self):
        spec = RunSpec(noise="scaled:p=0.002")
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        payload = json.loads(spec.to_json())
        assert payload["budget"]["shots"] == spec.budget.shots

    def test_budget_accepts_plain_dict(self):
        spec = RunSpec.from_dict({"code": "steane", "budget": {"shots": 10}})
        assert spec.budget == Budget(shots=10)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"codes": "surface"})
        with pytest.raises(ValueError, match="unknown Budget fields"):
            RunSpec.from_dict({"budget": {"shot": 1}})

    def test_frozen(self):
        spec = RunSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.code = "other"

    def test_replace(self):
        spec = RunSpec().replace(code="steane", seed=4)
        assert (spec.code, spec.seed) == ("steane", 4)

    def test_save_load(self, tmp_path):
        spec = RunSpec(code="toric:d=3")
        path = spec.save(tmp_path / "spec.json")
        assert RunSpec.load(path) == spec

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            RunSpec(workers=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("shots", -5, "shots must be >= 0, got -5"),
            ("synthesis_shots", -3, "synthesis_shots must be >= 0, got -3"),
            ("iterations_per_step", 0, "iterations_per_step must be >= 1, got 0"),
            ("max_evaluations", -1, "max_evaluations must be >= 0, got -1"),
        ],
    )
    def test_budget_rejects_out_of_range_field(self, field, value, message):
        with pytest.raises(ValueError) as raised:
            Budget(**{field: value})
        assert str(raised.value) == message

    def test_budget_accepts_zero_counts(self):
        budget = Budget(shots=0, synthesis_shots=0, max_evaluations=0)
        assert (budget.shots, budget.synthesis_shots, budget.max_evaluations) == (0, 0, 0)


class TestSeeding:
    def test_spawn_streams_none_passthrough(self):
        assert spawn_streams(None, 3) == [None, None, None]

    def test_spawn_streams_deterministic(self):
        first = [s.generate_state(2).tolist() for s in spawn_streams(7, 2)]
        second = [s.generate_state(2).tolist() for s in spawn_streams(7, 2)]
        assert first == second
        assert first[0] != first[1]

    def test_named_stream_stable_and_distinct(self):
        synthesis = stream_to_int(named_stream(3, "synthesis"))
        assert synthesis == stream_to_int(named_stream(3, "synthesis"))
        assert synthesis != stream_to_int(named_stream(3, "evaluation"))
        assert synthesis != stream_to_int(named_stream(4, "synthesis"))
        assert named_stream(None, "synthesis") is None

    def test_as_seed_sequence_idempotent(self):
        stream = as_seed_sequence(5)
        assert as_seed_sequence(stream) is stream
        assert as_seed_sequence(None) is None

    def test_estimator_bases_use_independent_streams(self, steane, brisbane, lookup_factory):
        from repro.scheduling import lowest_depth_schedule

        schedule = lowest_depth_schedule(steane)
        first = estimate_logical_error_rates(
            steane, schedule, brisbane, lookup_factory, shots=300, seed=11
        )
        second = estimate_logical_error_rates(
            steane, schedule, brisbane, lookup_factory, shots=300, seed=11
        )
        assert (first.error_x, first.error_z) == (second.error_x, second.error_z)


class TestPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return Pipeline(
            RunSpec(
                code="surface:d=3",
                decoder="lookup",
                scheduler="lowest_depth",
                budget=Budget(shots=400),
                seed=13,
            )
        )

    def test_flat_budget_overrides_in_constructor(self):
        pipeline = Pipeline(code="steane", shots=55, seed=1)
        assert pipeline.spec.budget.shots == 55
        assert pipeline.spec.code == "steane"

    def test_staged_artifacts_cached(self, pipeline):
        assert pipeline.code is pipeline.code
        assert pipeline.schedule is pipeline.schedule
        assert pipeline.dem is pipeline.dem
        assert pipeline.syndromes["Z"] is pipeline.syndromes["Z"]

    def test_artifact_shapes(self, pipeline):
        for basis in ("Z", "X"):
            dem = pipeline.dem[basis]
            batch = pipeline.syndromes[basis]
            assert batch.detectors.shape == (400, dem.num_detectors)
            assert batch.observables.shape == (400, dem.num_observables)
            assert pipeline.predictions[basis].shape == batch.observables.shape

    def test_rates_match_legacy_estimator_bitwise(self, pipeline):
        """Acceptance: Pipeline(...).rates == legacy estimator for a fixed seed."""
        legacy = estimate_logical_error_rates(
            pipeline.code,
            pipeline.schedule,
            pipeline.noise,
            pipeline.decoder_factory,
            shots=400,
            seed=13,
        )
        assert pipeline.rates.error_x == legacy.error_x
        assert pipeline.rates.error_z == legacy.error_z
        assert pipeline.rates.depth == legacy.depth
        assert pipeline.rates.shots == legacy.shots

    def test_rates_match_estimator_across_chunks(self):
        """Above one chunk too: the estimator and Pipeline run the same chunk loop."""
        spec = RunSpec(
            code="surface:d=3",
            scheduler="lowest_depth",
            decoder="mwpm",
            seed=3,
            budget=Budget(shots=2500),
        )
        pipeline = Pipeline(spec)
        rates = estimate_logical_error_rates(
            pipeline.code,
            pipeline.schedule,
            pipeline.noise,
            pipeline.decoder_factory,
            shots=2500,
            seed=spec.eval_seed(),
        )
        assert rates == pipeline.rates

    def test_sampled_syndromes_match_legacy_streams_bitwise(self, pipeline):
        """The staged samples themselves reproduce the estimator's streams."""
        from repro.seeding import spawn_streams
        from repro.sim import sample_detector_error_model

        stream_z, stream_x = spawn_streams(13, 2)
        reference = sample_detector_error_model(pipeline.dem["Z"], 400, seed=stream_z)
        assert np.array_equal(pipeline.syndromes["Z"].detectors, reference.detectors)
        reference_x = sample_detector_error_model(pipeline.dem["X"], 400, seed=stream_x)
        assert np.array_equal(pipeline.syndromes["X"].detectors, reference_x.detectors)

    def test_result_to_dict(self, pipeline):
        payload = pipeline.result.to_dict()
        assert payload["spec"]["code"] == "surface:d=3"
        assert payload["overall"] == pipeline.rates.overall
        assert payload["depth"] == pipeline.schedule.depth
        json.dumps(payload)  # JSON-serialisable end to end

    def test_parallel_workers_deterministic(self):
        spec = RunSpec(
            code="surface:d=3",
            decoder="lookup",
            scheduler="lowest_depth",
            budget=Budget(shots=300),
            seed=3,
            workers=2,
        )
        first = Pipeline(spec)
        second = Pipeline(spec)
        assert first.rates.error_x == second.rates.error_x
        assert first.rates.error_z == second.rates.error_z
        assert first.syndromes["Z"].detectors.shape[0] == 300

    def test_worker_count_invariant_single_chunk(self):
        """Regression: rates must not depend on the worker count (one chunk)."""
        spec = RunSpec(
            code="surface:d=3", decoder="lookup", scheduler="google", seed=2,
            budget=Budget(shots=600),
        )
        serial = Pipeline(spec)
        pooled = Pipeline(spec.replace(workers=3))
        assert serial.rates == pooled.rates
        for basis in ("Z", "X"):
            assert np.array_equal(
                serial.syndromes[basis].detectors, pooled.syndromes[basis].detectors
            )
            assert np.array_equal(serial.predictions[basis], pooled.predictions[basis])

    def test_worker_count_invariant_multi_chunk(self, monkeypatch):
        """Regression: chunk layout and seed streams derive from the shot
        count alone, so workers=1 and workers=3 are bit-identical even when
        the run spans many chunks (the original per-worker sharding broke
        this: changing the worker count changed the sampled rates)."""
        import repro.parallel

        monkeypatch.setattr(repro.parallel, "DEFAULT_CHUNK_SHOTS", 64)
        spec = RunSpec(
            code="surface:d=3", decoder="lookup", scheduler="lowest_depth", seed=5,
            budget=Budget(shots=300),
        )
        serial = Pipeline(spec)
        pooled = Pipeline(spec.replace(workers=3))
        assert serial.rates == pooled.rates
        for basis in ("Z", "X"):
            assert np.array_equal(
                serial.syndromes[basis].detectors, pooled.syndromes[basis].detectors
            )
            assert np.array_equal(
                serial.syndromes[basis].observables, pooled.syndromes[basis].observables
            )
            assert np.array_equal(serial.predictions[basis], pooled.predictions[basis])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_shots(self, workers):
        """shots=0 must yield empty batches and zero rates on every path
        (previously crashed merging an empty shard list)."""
        pipeline = Pipeline(
            code="surface:d=3",
            decoder="lookup",
            scheduler="lowest_depth",
            shots=0,
            seed=0,
            workers=workers,
        )
        assert pipeline.rates.error_x == 0.0
        assert pipeline.rates.error_z == 0.0
        assert pipeline.rates.overall == 0.0
        for basis in ("Z", "X"):
            batch = pipeline.syndromes[basis]
            assert batch.detectors.shape == (0, pipeline.dem[basis].num_detectors)
            assert pipeline.predictions[basis].shape == (
                0,
                pipeline.dem[basis].num_observables,
            )

    def test_synthesis_scheduler_exposes_result(self):
        pipeline = Pipeline(
            code="steane",
            decoder="lookup",
            scheduler="alphasyndrome",
            shots=120,
            synthesis_shots=50,
            iterations_per_step=1,
            max_evaluations=4,
            seed=0,
        )
        assert pipeline.synthesis is not None
        assert pipeline.synthesis.evaluations > 0
        pipeline.schedule.validate()
        payload = pipeline.result.to_dict()
        assert "synthesis_evaluations" in payload

    def test_fixed_scheduler_has_no_synthesis(self, pipeline):
        assert pipeline.synthesis is None

    def test_none_seed_allowed(self):
        pipeline = Pipeline(code="steane", decoder="lookup", shots=50, seed=None)
        assert pipeline.rates.shots == 50
