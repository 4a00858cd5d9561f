"""Tests for detector-error-model extraction and vectorised sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, Instruction, build_memory_experiment
from repro.noise import NoiseModel, brisbane_noise
from repro.scheduling import lowest_depth_schedule
from repro.sim import (
    build_detector_error_model,
    sample_detector_error_model,
    simulate_circuit,
)


def _single_qubit_circuit(probability: float) -> Circuit:
    """Reset, noisy idle, two measurements with a detector and observable."""
    circuit = Circuit()
    circuit.reset(0)
    circuit.x_error(probability, 0)
    first = circuit.measure(0)[0]
    second = circuit.measure(0)[0]
    circuit.detector([first, second])
    circuit.observable(0, [second])
    return circuit


class TestDEMExtraction:
    def test_no_noise_gives_empty_dem(self):
        circuit = _single_qubit_circuit(0.0)
        dem = build_detector_error_model(circuit)
        assert dem.num_mechanisms == 0

    def test_single_x_error_signature(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.x_error(0.25, 0)
        index = circuit.measure(0)[0]
        circuit.detector([index])
        circuit.observable(0, [index])
        dem = build_detector_error_model(circuit)
        assert dem.num_mechanisms == 1
        mechanism = dem.mechanisms[0]
        assert mechanism.probability == pytest.approx(0.25)
        assert mechanism.detectors == frozenset({0})
        assert mechanism.observables == frozenset({0})

    def test_detector_cancellation_between_rounds(self):
        # An X error *before* both measurements flips both, so the detector
        # (their XOR) stays quiet while the observable flips.
        circuit = Circuit()
        circuit.reset(0)
        circuit.x_error(0.1, 0)
        first = circuit.measure(0)[0]
        second = circuit.measure(0)[0]
        circuit.detector([first, second])
        circuit.observable(0, [second])
        dem = build_detector_error_model(circuit)
        assert dem.num_mechanisms == 1
        assert dem.mechanisms[0].detectors == frozenset()
        assert dem.mechanisms[0].observables == frozenset({0})

    def test_mechanisms_with_identical_symptoms_are_merged(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.x_error(0.1, 0)
        circuit.x_error(0.2, 0)
        index = circuit.measure(0)[0]
        circuit.detector([index])
        dem = build_detector_error_model(circuit)
        assert dem.num_mechanisms == 1
        expected = 0.1 * 0.8 + 0.2 * 0.9
        assert dem.mechanisms[0].probability == pytest.approx(expected)

    def test_depolarize1_splits_into_pauli_components(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.append(Instruction("DEPOLARIZE1", (0,), probability=0.3))
        index = circuit.measure(0)[0]
        circuit.detector([index])
        dem = build_detector_error_model(circuit)
        # X and Y components flip the Z measurement and merge into one
        # mechanism; the Z component is invisible.
        assert dem.num_mechanisms == 1
        expected = 0.1 * 0.9 + 0.1 * 0.9
        assert dem.mechanisms[0].probability == pytest.approx(expected)

    def test_check_and_observable_matrices(self, steane, brisbane):
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(steane, schedule, brisbane, basis="Z")
        dem = build_detector_error_model(experiment.circuit)
        assert dem.check_matrix.shape == (dem.num_detectors, dem.num_mechanisms)
        assert dem.observable_matrix.shape == (dem.num_observables, dem.num_mechanisms)
        assert dem.num_detectors == 2 * steane.num_stabilizers
        assert dem.num_mechanisms > 0
        assert (dem.priors > 0).all() and (dem.priors < 1).all()

    def test_hook_errors_produce_multi_detector_mechanisms(self, steane, brisbane):
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(steane, schedule, brisbane, basis="Z")
        dem = build_detector_error_model(experiment.circuit)
        assert any(len(m.detectors) >= 2 for m in dem.mechanisms)


class TestSampler:
    def test_zero_noise_samples_are_silent(self):
        dem = build_detector_error_model(_single_qubit_circuit(0.0))
        batch = sample_detector_error_model(dem, 100, seed=0)
        assert not batch.detectors.any()
        assert not batch.observables.any()

    def test_shapes(self, steane, brisbane):
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(steane, schedule, brisbane, basis="Z")
        dem = build_detector_error_model(experiment.circuit)
        batch = sample_detector_error_model(dem, 50, seed=1)
        assert batch.detectors.shape == (50, dem.num_detectors)
        assert batch.observables.shape == (50, dem.num_observables)
        assert batch.num_shots == 50

    def test_sampling_is_reproducible(self, steane, brisbane):
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(steane, schedule, brisbane, basis="Z")
        dem = build_detector_error_model(experiment.circuit)
        first = sample_detector_error_model(dem, 64, seed=9)
        second = sample_detector_error_model(dem, 64, seed=9)
        assert np.array_equal(first.detectors, second.detectors)

    def test_probability_statistics(self):
        dem = build_detector_error_model(_single_qubit_circuit(0.3))
        batch = sample_detector_error_model(dem, 4000, seed=2)
        observed = batch.observables.mean()
        assert 0.25 < observed < 0.35

    def test_faults_consistent_with_detectors(self, steane, brisbane):
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(steane, schedule, brisbane, basis="Z")
        dem = build_detector_error_model(experiment.circuit)
        batch = sample_detector_error_model(dem, 30, seed=3)
        # The sampler's own single draw: one uniform per (shot, mechanism).
        fired = np.random.default_rng(3).random((30, dem.num_mechanisms)) < dem.priors
        wide = fired.astype(np.int64)
        recomputed = (wide @ dem.check_matrix.T.astype(np.int64)) % 2
        assert np.array_equal(recomputed.astype(np.uint8), batch.detectors)
        flipped = (wide @ dem.observable_matrix.T.astype(np.int64)) % 2
        assert np.array_equal(flipped.astype(np.uint8), batch.observables)


class TestDEMAgainstTableau:
    def test_observable_flip_rates_agree_with_direct_simulation(self, steane):
        """The DEM sampler and the tableau simulator must agree statistically."""
        noise = NoiseModel(two_qubit_error=0.05, idle_error=0.0)
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(steane, schedule, noise, basis="Z")
        dem = build_detector_error_model(experiment.circuit)
        batch = sample_detector_error_model(dem, 3000, seed=4)
        dem_rate = batch.observables.mean()

        shots = 250
        flips = 0
        for seed in range(shots):
            _, _, observables = simulate_circuit(experiment.circuit, seed=seed)
            flips += observables[0]
        tableau_rate = flips / shots
        # Agreement within loose statistical tolerance (binomial noise on 250
        # shots plus the first-order independence approximation of the DEM).
        assert abs(dem_rate - tableau_rate) < 0.08
