"""Tests for the noise models, the space-time model and statistics helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    estimate_space_time,
    geometric_mean,
    relative_reduction,
    space_time_reduction,
    wilson_interval,
)
from repro.noise import (
    BRISBANE_IDLE_ERROR,
    BRISBANE_TWO_QUBIT_ERROR,
    brisbane_noise,
    depolarizing_noise,
    non_uniform_noise,
    scaled_noise,
)


class TestNoiseModels:
    def test_brisbane_defaults_match_paper(self):
        gate, idle, *_ = brisbane_noise().channels
        assert gate.p == pytest.approx(0.0074)
        assert idle.p == pytest.approx(0.0052)
        assert BRISBANE_TWO_QUBIT_ERROR == pytest.approx(0.0074)
        assert BRISBANE_IDLE_ERROR == pytest.approx(0.0052)

    def test_scaled_noise(self):
        gate, idle, *_ = scaled_noise(1e-4).channels
        assert gate.p == pytest.approx(1e-4)
        assert idle.p == pytest.approx(1e-4)

    def test_per_qubit_idle_rate(self):
        noise = depolarizing_noise(0.0074, 0.001, per_qubit_idle={2: 0.01})
        assert noise.ops("idle", (2,))[0].probability == pytest.approx(0.01)
        assert noise.ops("idle", (3,))[0].probability == pytest.approx(0.001)

    def test_non_uniform_noise_varies_ancillas(self):
        ancillas = list(range(10, 18))
        noise = non_uniform_noise(ancillas, variance=0.5, seed=3)
        rates = [noise.ops("gate", (a, 0))[0].probability for a in ancillas]
        assert len(set(rates)) > 1
        base = BRISBANE_TWO_QUBIT_ERROR
        assert all(0.4 * base < rate < 1.6 * base for rate in rates)

    def test_non_uniform_noise_reproducible(self):
        first = non_uniform_noise([1, 2, 3], seed=5)
        second = non_uniform_noise([1, 2, 3], seed=5)
        assert first.channels[0].per_qubit == second.channels[0].per_qubit


class TestSpaceTime:
    def test_round_time_formula(self, steane):
        estimate = estimate_space_time(steane, depth=10)
        # 10 * 0.6 us + 4 us = 10 us; 7 data + 6 ancilla = 13 qubits.
        assert estimate.round_time_us == pytest.approx(10.0)
        assert estimate.physical_qubits == 13
        assert estimate.volume_us_qubits == pytest.approx(130.0)

    def test_reduction(self, steane, color_d5):
        small = estimate_space_time(steane, depth=10)
        large = estimate_space_time(color_d5, depth=12)
        reduction = space_time_reduction(small, large)
        assert 0.0 < reduction < 1.0

    def test_as_row_keys(self, steane):
        row = estimate_space_time(steane, depth=4, logical_error_rate=1e-3).as_row()
        assert {"code", "qubits", "depth", "time_us", "volume", "logical_error_rate"} <= set(row)


class TestStats:
    def test_wilson_interval_contains_point_estimate(self):
        low, high = wilson_interval(10, 100)
        assert low < 0.1 < high

    def test_wilson_interval_bounds(self):
        low, high = wilson_interval(0, 50)
        assert low == pytest.approx(0.0, abs=1e-9)
        assert 0 < high < 0.15

    def test_wilson_requires_positive_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_relative_reduction(self):
        assert relative_reduction(1.0, 4.0) == pytest.approx(0.75)
        assert relative_reduction(1.0, 0.0) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
