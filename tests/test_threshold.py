"""Tests for the threshold workload (suite + crossing analysis)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.threshold import estimate_crossing, suppression_ratio
from repro.api.spec import Budget
from repro.experiments import available_suites, threshold_crossing
from repro.experiments.suite import SuiteConfig, SuiteRunner, run_suite
from repro.experiments.threshold import threshold_rows


class TestCrossingEstimator:
    def test_interpolates_bracketed_crossing(self):
        # Curves cross at exactly p=1e-2 by construction.
        ps = [1e-3, 1e-2, 1e-1]
        small = [1e-2, 1e-1, 1.0]
        large = [1e-3, 1e-1, 10.0]
        crossing = estimate_crossing(ps, small, large)
        assert crossing == pytest.approx(1e-2, rel=1e-9)

    def test_interpolation_lands_inside_bracket(self):
        crossing = estimate_crossing(
            [1e-3, 1e-2], [1e-2, 1e-1], [2e-3, 3e-1]
        )
        assert 1e-3 < crossing < 1e-2

    def test_no_crossing_returns_none(self):
        assert estimate_crossing([1e-3, 1e-2], [0.1, 0.2], [0.01, 0.02]) is None

    def test_zero_rate_points_skipped(self):
        crossing = estimate_crossing(
            [1e-3, 2e-3, 1e-2, 1e-1],
            [0.0, 1e-2, 1e-1, 1.0],
            [0.0, 1e-3, 1e-1, 10.0],
        )
        assert crossing == pytest.approx(1e-2, rel=1e-9)

    def test_coincident_point_amid_suppression_is_not_a_crossing(self):
        """A lone d0 == 0 point with suppression continuing after it is
        measurement coincidence, not a crossing."""
        assert (
            estimate_crossing(
                [1e-3, 1e-2, 1e-1], [1e-2, 1e-1, 1.0], [1e-2, 1e-2, 1e-1]
            )
            is None
        )

    def test_terminal_touch_reports_last_point(self):
        assert estimate_crossing(
            [1e-3, 1e-2], [1e-2, 1e-1], [1e-3, 1e-1]
        ) == pytest.approx(1e-2)

    def test_touch_then_rise_crosses_at_touch_point(self):
        assert estimate_crossing(
            [1e-3, 1e-2, 1e-1], [1e-2, 1e-1, 1.0], [1e-3, 1e-1, 10.0]
        ) == pytest.approx(1e-2)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            estimate_crossing([1e-3], [0.1], [0.2])
        with pytest.raises(ValueError):
            estimate_crossing([1e-3, 1e-2], [0.1], [0.2, 0.3])

    def test_suppression_ratio_zero_conventions(self):
        assert suppression_ratio(0.0, 0.0) == 1.0
        assert suppression_ratio(0.0, 0.1) == math.inf
        assert suppression_ratio(0.1, 0.0) == 0.0
        assert suppression_ratio(0.1, 0.05) == pytest.approx(0.5)


class TestThresholdSuite:
    CONFIG = SuiteConfig(budget=Budget(shots=128), seed=3, quick=True)

    def test_registered(self):
        assert "threshold" in available_suites()

    def test_row_shape(self):
        rows = threshold_rows(self.CONFIG, error_rates=[1e-3, 1e-2])
        assert [row.key for row in rows] == ["p=0.001", "p=0.01"]
        assert [run.name for run in rows[0].runs] == ["d3", "d5"]
        assert rows[0].runs[0].spec.noise == "scaled:p=0.001"
        assert rows[0].runs[1].spec.code == "surface:d=5"

    def test_noise_template_covers_biased_scenarios(self):
        rows = threshold_rows(
            self.CONFIG, error_rates=[1e-3], noise_template="biased:p={p},eta=10"
        )
        assert rows[0].runs[0].spec.noise == "biased:p=0.001,eta=10"

    def test_runs_end_to_end_and_renders(self, tmp_path):
        result = run_suite(
            "threshold",
            self.CONFIG.replace(budget=Budget(shots=64)),
            store=tmp_path,
        )
        assert len(result.rows) == 3  # quick sweep
        for row in result.rows:
            assert set(row) == {"p", "err_d3", "err_d5", "ratio", "suppressed"}
        assert result.text_path is not None and result.text_path.exists()
        rendered = result.text_path.read_text()
        assert "err_d3" in rendered and "ratio" in rendered

    def test_rows_resume_from_store(self, tmp_path):
        config = self.CONFIG.replace(budget=Budget(shots=64))
        first = run_suite("threshold", config, store=tmp_path)
        again = run_suite("threshold", config, store=tmp_path)
        assert [o.loaded for o in first.outcomes] == [False] * 3
        assert [o.loaded for o in again.outcomes] == [True] * 3
        assert again.rows == first.rows

    def test_threshold_crossing_from_rows(self):
        rows = [
            {"p": 1e-3, "err_d3": 1e-2, "err_d5": 1e-3, "ratio": 0.1, "suppressed": True},
            {"p": 1e-2, "err_d3": 1e-1, "err_d5": 1e-1, "ratio": 1.0, "suppressed": False},
            {"p": 1e-1, "err_d3": 1.0, "err_d5": 10.0, "ratio": 10.0, "suppressed": False},
        ]
        crossing = threshold_crossing(rows)
        assert crossing == pytest.approx(1e-2, rel=1e-9)
        assert threshold_crossing([]) is None

    def test_runner_returns_one_row_per_swept_rate(self):
        config = SuiteConfig(budget=Budget(shots=32), seed=0)
        rows = SuiteRunner(config).run_rows(
            threshold_rows(config, error_rates=[8e-3], distances=(3, 5))
        )
        assert len(rows) == 1 and rows[0]["p"] == 8e-3

    def test_zero_small_rate_publishes_json_safe_ratio(self):
        """ratio must never be Infinity in the published JSON artifacts."""
        import json

        from repro.experiments.threshold import _derive_threshold

        class _FakeRates:
            def __init__(self, overall):
                self.overall = overall

        class _FakeView:
            def rates(self, name):
                return _FakeRates({"d3": 0.0, "d5": 0.25}[name])

        row = _derive_threshold(_FakeView(), physical_error=1e-3, distances=(3, 5))
        assert row["ratio"] is None
        json.loads(json.dumps(row, allow_nan=False))  # strict JSON round-trip

    def test_default_decoder_corrects_every_single_fault_at_d5(self):
        """The suite's decoder choice rests on this: bposd decodes every
        single (hyperedge) fault of the d=5 memory DEM exactly, where
        matching decoders mis-correct some and flatten the curves."""
        import numpy as np

        from repro.api import Pipeline

        pipeline = Pipeline(
            code="surface:d=5", noise="scaled:p=0.001", scheduler="google", decoder="bposd"
        )
        dem = pipeline.dem["Z"]
        decoder = pipeline.decoder_factory(dem)
        for mechanism in dem.mechanisms:
            syndrome = np.zeros((1, dem.num_detectors), dtype=np.uint8)
            for detector in mechanism.detectors:
                syndrome[0, detector] = 1
            expected = np.zeros(dem.num_observables, dtype=np.uint8)
            for observable in mechanism.observables:
                expected[observable] = 1
            assert np.array_equal(decoder.decode_batch(syndrome)[0], expected)

    def test_adaptive_budget_applies(self, tmp_path):
        """target_rse flows through to every threshold run (counters populated)."""
        config = SuiteConfig(
            budget=Budget(shots=256, target_rse=0.9, max_shots=256), seed=3, quick=True
        )
        runner = SuiteRunner(config, cache=tmp_path / "cache")
        rows = runner.run_rows(threshold_rows(config, error_rates=[3.2e-2]))
        assert rows and 0 < rows[0]["err_d3"] < 1
