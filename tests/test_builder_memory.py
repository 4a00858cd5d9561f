"""Tests for the syndrome-round and memory-experiment circuit builders."""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Pipeline, RunSpec
from repro.circuits import (
    Circuit,
    ancilla_qubits,
    append_logical_measurement,
    append_syndrome_round,
    build_memory_experiment,
)
from repro.noise import depolarizing_noise
from repro.scheduling import lowest_depth_schedule, trivial_schedule
from repro.sim import simulate_circuit


class TestSyndromeRound:
    def test_one_measurement_per_stabilizer(self, steane):
        circuit = Circuit()
        schedule = lowest_depth_schedule(steane)
        record = append_syndrome_round(circuit, steane, schedule, noise=None)
        assert len(record.measurements) == steane.num_stabilizers
        assert circuit.num_measurements == steane.num_stabilizers

    def test_gate_count_matches_total_checks(self, steane):
        circuit = Circuit()
        schedule = lowest_depth_schedule(steane)
        append_syndrome_round(circuit, steane, schedule, noise=None)
        cpaulis = [inst for inst in circuit.instructions if inst.name == "CPAULI"]
        assert len(cpaulis) == sum(s.weight for s in steane.stabilizers)

    def test_noiseless_round_has_no_noise_channels(self, steane):
        circuit = Circuit()
        append_syndrome_round(circuit, steane, lowest_depth_schedule(steane), noise=None)
        assert all(not inst.is_noise() for inst in circuit.instructions)

    def test_noisy_round_attaches_two_qubit_noise_to_every_check(self, steane, brisbane):
        circuit = Circuit()
        append_syndrome_round(circuit, steane, lowest_depth_schedule(steane), noise=brisbane)
        cpaulis = sum(1 for inst in circuit.instructions if inst.name == "CPAULI")
        depolarize2 = sum(1 for inst in circuit.instructions if inst.name == "DEPOLARIZE2")
        assert depolarize2 == cpaulis

    def test_idle_noise_present_when_enabled(self, steane, brisbane):
        circuit = Circuit()
        append_syndrome_round(circuit, steane, lowest_depth_schedule(steane), noise=brisbane)
        assert any(inst.name == "DEPOLARIZE1" for inst in circuit.instructions)

    def test_idle_noise_absent_when_disabled(self, steane):
        noise = depolarizing_noise(0.01, 0.0)
        circuit = Circuit()
        append_syndrome_round(circuit, steane, lowest_depth_schedule(steane), noise=noise)
        assert not any(inst.name == "DEPOLARIZE1" for inst in circuit.instructions)

    def test_tick_count_equals_depth(self, steane):
        circuit = Circuit()
        schedule = lowest_depth_schedule(steane)
        append_syndrome_round(circuit, steane, schedule, noise=None)
        assert circuit.num_ticks == schedule.depth

    def test_measures_the_intended_stabilizer_values(self, steane):
        """Measuring a state twice yields identical syndrome outcomes."""
        circuit = Circuit()
        circuit.reset(*range(steane.num_qubits))
        schedule = lowest_depth_schedule(steane)
        first = append_syndrome_round(circuit, steane, schedule, noise=None)
        second = append_syndrome_round(circuit, steane, schedule, noise=None)
        for seed in range(3):
            measurements, _, _ = simulate_circuit(circuit, seed=seed)
            for stabilizer in first.measurements:
                assert (
                    measurements[first.measurements[stabilizer]]
                    == measurements[second.measurements[stabilizer]]
                )

    def test_ancilla_indices_do_not_clash_with_data(self, steane):
        assert min(ancilla_qubits(steane)) == steane.num_qubits


class TestLogicalMeasurement:
    def test_repeated_logical_measurement_is_deterministic(self, steane):
        circuit = Circuit()
        circuit.reset(*range(steane.num_qubits))
        ancilla = steane.num_qubits + steane.num_stabilizers
        first = append_logical_measurement(circuit, steane, steane.logical_xs[0], ancilla)
        second = append_logical_measurement(circuit, steane, steane.logical_xs[0], ancilla + 1)
        for seed in range(3):
            measurements, _, _ = simulate_circuit(circuit, seed=seed)
            assert measurements[first] == measurements[second]

    def test_logical_z_on_zero_state_reads_plus_one(self, surface_d3):
        circuit = Circuit()
        circuit.reset(*range(surface_d3.num_qubits))
        ancilla = surface_d3.num_qubits + surface_d3.num_stabilizers
        index = append_logical_measurement(circuit, surface_d3, surface_d3.logical_zs[0], ancilla)
        measurements, _, _ = simulate_circuit(circuit, seed=0)
        assert measurements[index] == 0


class TestMemoryExperiment:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_detector_and_observable_counts(self, steane, brisbane, basis):
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(steane, schedule, brisbane, basis=basis)
        assert experiment.circuit.num_detectors == 2 * steane.num_stabilizers
        assert experiment.circuit.num_observables == steane.num_logical_qubits

    def test_detectors_deterministic_without_noise(self, steane, surface_d3, brisbane):
        for code in (steane, surface_d3):
            schedule = trivial_schedule(code)
            experiment = build_memory_experiment(code, schedule, brisbane, basis="Z")
            noiseless = experiment.circuit.without_noise()
            for seed in range(3):
                _, detectors, observables = simulate_circuit(noiseless, seed=seed)
                assert all(value == 0 for value in detectors)
                assert all(value == 0 for value in observables.values())

    def test_detectors_deterministic_for_non_css_code(self, five_qubit, brisbane):
        schedule = trivial_schedule(five_qubit)
        experiment = build_memory_experiment(five_qubit, schedule, brisbane, basis="X")
        noiseless = experiment.circuit.without_noise()
        _, detectors, observables = simulate_circuit(noiseless, seed=1)
        assert all(value == 0 for value in detectors)
        assert all(value == 0 for value in observables.values())

    def test_multi_logical_codes_get_one_observable_each(self, toric_d3, brisbane):
        schedule = lowest_depth_schedule(toric_d3)
        experiment = build_memory_experiment(toric_d3, schedule, brisbane, basis="Z")
        assert experiment.circuit.num_observables == 2

    def test_multiple_noisy_rounds(self, steane, brisbane):
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(
            steane, schedule, brisbane, basis="Z", noisy_rounds=3
        )
        assert experiment.circuit.num_detectors == 4 * steane.num_stabilizers

    def test_invalid_arguments(self, steane, brisbane):
        schedule = lowest_depth_schedule(steane)
        with pytest.raises(ValueError):
            build_memory_experiment(steane, schedule, brisbane, basis="Y")
        with pytest.raises(ValueError):
            build_memory_experiment(steane, schedule, brisbane, noisy_rounds=0)

    def test_noise_only_in_noisy_rounds(self, steane, brisbane):
        schedule = lowest_depth_schedule(steane)
        experiment = build_memory_experiment(steane, schedule, brisbane, basis="Z")
        noise_channels = [inst for inst in experiment.circuit.instructions if inst.is_noise()]
        # One DEPOLARIZE2 per check plus idle channels — but only one round's worth.
        assert len(noise_channels) > 0
        cpaulis = sum(
            1 for inst in experiment.circuit.instructions if inst.name == "CPAULI"
        )
        depolarize2 = sum(
            1 for inst in experiment.circuit.instructions if inst.name == "DEPOLARIZE2"
        )
        total_checks = sum(s.weight for s in steane.stabilizers)
        logical_weight = 2 * sum(p.weight for p in steane.logical_zs)
        assert cpaulis == 3 * total_checks + logical_weight
        assert depolarize2 == total_checks


DEPOLARIZING = "depolarizing:two_qubit=0.004,idle=0.002,measurement=0.001,reset=0.0005"


class TestInstructionStreamPinned:
    """The memory circuits' instruction streams, pinned by digest.

    ``str(circuit)`` lists every instruction with its qubits, probabilities
    and record targets, so a builder change that moves one instruction,
    record index or detector shows here before it moves a DEM.
    """

    DIGESTS = {
        ("surface:d=3", "lowest_depth", "Z"): (
            "c3fbe3977250d5f45922a9e77460a0b00d758e9e91b97396ef16173e8af746c5"
        ),
        ("surface:d=3", "lowest_depth", "X"): (
            "8092c823f24d682f3e067325ffc822c12bde13ff8098ca7a828046ddcdac5f1e"
        ),
        ("bb_18", "ibm_bb", "Z"): (
            "8a6034cdcc18e0f6c7135e81491fc88f3cab29d180e39cb1545695e987c18977"
        ),
        ("bb_18", "ibm_bb", "X"): (
            "038309e19dcf23e98685655eaf732905da6a86f25b638d1a3126105231180101"
        ),
        ("color:d=3", "lowest_depth", "Z"): (
            "ba46c0909234c4ead7775fc1a962d44b444dcf5ea0e01ff50fb21a7b3a147ac6"
        ),
        ("color:d=3", "lowest_depth", "X"): (
            "c399b770202b6d2f6895ea0ceb15f92413e4a052a0fb7f58cea12618d27ab9c7"
        ),
    }

    # ``surface:d=3`` / ``lowest_depth`` under every other noise spec (and
    # Brisbane over two noisy rounds), keyed by (noise, rounds, basis).
    NOISE_DIGESTS = {
        ("biased:p=0.001,eta=10", 1, "Z"): (
            "2a2dbd5b35b80a8cef5db9b231429b95c6537ded345a7e2383ff6cac0f70937b"
        ),
        ("biased:p=0.001,eta=10", 1, "X"): (
            "702470aea0ee9eaf00585c91e6d88bc3f9c1cf142eadf913b8dc0403cb55d324"
        ),
        ("dephasing:p=0.001", 1, "Z"): (
            "f33a903403ed944bec9174d80b6deb8cbb452a0e3f501b53d057d209760f0c4b"
        ),
        ("dephasing:p=0.001", 1, "X"): (
            "d0cc7e0a2216bbd4fa9b9c88e75d824c6f51357b8382e9f8eb3882a0c11feb55"
        ),
        (DEPOLARIZING, 1, "Z"): (
            "0d91ac1662e48270d71415fdc6b70ef7c1ed628d40161d019b9bcf2daac73225"
        ),
        (DEPOLARIZING, 1, "X"): (
            "ae01af79f5cb299ed621d44ea2f0c2fb5057bd29caeae2b6b161e109f177044d"
        ),
        ("nonuniform:variance=0.5,seed=7", 1, "Z"): (
            "09e4b9483a879635b7ccfa3dfd07d566eda6d85901cc87268f506555d71b3093"
        ),
        ("nonuniform:variance=0.5,seed=7", 1, "X"): (
            "9123c8bf7d208526e84fd1191f9b21c3fcf5af7cbe42baa684c4497afd165c1c"
        ),
        ("brisbane", 2, "Z"): (
            "44b9f88469b60456d6e7ecd989fd667b2aa8d2d17bf8aafd0f36392a262b93ea"
        ),
        ("brisbane", 2, "X"): (
            "5e4bb843c6ae9058d304c7c388a40cf87c34db1eb0cb314d4c00782ac094cfc4"
        ),
    }

    @pytest.mark.parametrize(
        "code, scheduler, noise, rounds",
        [
            pytest.param(code, scheduler, "brisbane", 1, id=f"{code}-{scheduler}")
            for code, scheduler in (
                ("surface:d=3", "lowest_depth"),
                ("bb_18", "ibm_bb"),
                ("color:d=3", "lowest_depth"),
            )
        ]
        + [
            pytest.param("surface:d=3", "lowest_depth", noise, rounds, id=f"{noise}-r{rounds}")
            for noise, rounds in sorted({key[:2] for key in NOISE_DIGESTS})
        ],
    )
    def test_str_digest(self, code, scheduler, noise, rounds):
        spec = RunSpec(code=code, scheduler=scheduler, noise=noise, rounds=rounds)
        circuits = Pipeline(spec).circuit
        for basis in ("Z", "X"):
            digest = hashlib.sha256(str(circuits[basis]).encode()).hexdigest()
            if (noise, rounds) == ("brisbane", 1):
                assert digest == self.DIGESTS[code, scheduler, basis], basis
            else:
                assert digest == self.NOISE_DIGESTS[noise, rounds, basis], basis

    def test_round_records_are_consecutive(self, steane, brisbane):
        circuit = Circuit()
        circuit.measure(0)
        record = append_syndrome_round(
            circuit, steane, lowest_depth_schedule(steane), noise=brisbane
        )
        assert sorted(record.measurements.values()) == list(
            range(1, 1 + steane.num_stabilizers)
        )
        assert circuit.num_measurements == 1 + steane.num_stabilizers
