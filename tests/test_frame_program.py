"""The moment-fused frame program against the per-instruction oracle.

:class:`repro.sim.frames.FrameProgram` compiles a circuit by moment: it
skips the dead prefix before the first noise instruction, fuses disjoint
``CPAULI`` gates with one check Pauli (moving them back past disjoint noise),
fuses consecutive resets and same-basis measurements, and hands each run
of noise instructions to ``compile_noise`` as one list.  The oracle in
``tests/oracles/frame_program_reference.py`` is the original program: one
op per instruction, each noise instruction a run of its own.  Both of the
kernel's consumers — the DEM builder and :class:`FrameSampler` — must give
bit-identical output on either program: equal mechanism lists, and equal
batches for a fixed seed.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.frame_program_reference import ReferenceFrameProgram
from test_dem_kernel import random_circuits

import repro.sim.dem
import repro.sim.frames
from repro.circuits import build_memory_experiment
from repro.circuits.circuit import Circuit, Instruction
from repro.codes import hexagonal_color_code, rotated_surface_code, toric_code
from repro.noise import brisbane_noise
from repro.scheduling import lowest_depth_schedule, random_order_schedule
from repro.sim.dem import build_detector_error_model
from repro.sim.frames import FrameProgram, FrameSampler

_CODES = {
    "surface": rotated_surface_code(3),
    "hexagonal_color": hexagonal_color_code(3),
    "toric": toric_code(3),
}


def _reference_dem(circuit: Circuit):
    with mock.patch.object(repro.sim.dem, "FrameProgram", ReferenceFrameProgram):
        return build_detector_error_model(circuit)


def _reference_batch(circuit: Circuit, shots: int, seed: int):
    with mock.patch.object(repro.sim.frames, "FrameProgram", ReferenceFrameProgram):
        sampler = FrameSampler(circuit)
    return sampler.sample(shots, seed=seed)


def _assert_same_outputs(circuit: Circuit, *, shots: int = 200, seed: int = 11) -> None:
    expected = _reference_dem(circuit)
    actual = build_detector_error_model(circuit)
    assert (actual.num_detectors, actual.num_observables) == (
        expected.num_detectors,
        expected.num_observables,
    )
    assert actual.mechanisms == expected.mechanisms
    reference = _reference_batch(circuit, shots, seed)
    batch = FrameSampler(circuit).sample(shots, seed=seed)
    assert np.array_equal(batch.detectors, reference.detectors)
    assert np.array_equal(batch.observables, reference.observables)
    assert np.array_equal(batch.packed_detectors, reference.packed_detectors)


def _kinds(circuit: Circuit) -> list[str]:
    return [op[0] for op in FrameProgram(circuit, list).ops]


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(random_circuits())
    def test_random_circuits(self, circuit):
        _assert_same_outputs(circuit)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_circuits(min_qubits=65, max_qubits=72))
    def test_random_circuits_beyond_one_word_of_qubits(self, circuit):
        _assert_same_outputs(circuit, shots=70)

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(sorted(_CODES)),
        st.sampled_from("ZX"),
        st.integers(0, 10_000),
    )
    def test_memory_circuits_of_random_schedules(self, code_name, basis, seed):
        code = _CODES[code_name]
        schedule = random_order_schedule(code, rng=random.Random(seed))
        circuit = build_memory_experiment(code, schedule, brisbane_noise(), basis=basis).circuit
        _assert_same_outputs(circuit, seed=seed)


class TestMoments:
    def test_surface_d3_memory_circuit_is_a_few_moments(self):
        code = rotated_surface_code(3)
        circuit = build_memory_experiment(
            code, lowest_depth_schedule(code), brisbane_noise(), basis="Z"
        ).circuit
        kinds = _kinds(circuit)
        assert len(kinds) <= 40
        # Everything before the first noise instruction is elided.
        assert kinds[0] == "noise"

    def _gates_around_noise(self, noisy_qubit: int) -> Circuit:
        circuit = Circuit()
        circuit.reset(*range(6))
        circuit.x_error(0.1, 0)
        circuit.cx(0, 1)
        circuit.x_error(0.2, noisy_qubit)
        circuit.cx(2, 3)
        circuit.measure(*range(6))
        for measurement in range(6):
            circuit.detector([measurement])
        return circuit

    def test_cpauli_behind_noise_on_a_shared_qubit_is_not_fused(self):
        circuit = self._gates_around_noise(noisy_qubit=2)
        assert _kinds(circuit) == ["noise", "cpauli", "noise", "cpauli", "measure"]
        # The X error on qubit 2 reaches qubit 3 only through the second CX.
        mechanisms = build_detector_error_model(circuit).mechanisms
        assert [sorted(m.detectors) for m in mechanisms] == [[0, 1], [2, 3]]
        _assert_same_outputs(circuit)

    def test_cpauli_moves_back_past_disjoint_noise(self):
        circuit = self._gates_around_noise(noisy_qubit=5)
        assert _kinds(circuit) == ["noise", "cpauli", "noise", "measure"]
        program = FrameProgram(circuit, list)
        _, controls, targets, _, _ = program.ops[1]
        assert (controls.tolist(), targets.tolist()) == ([0, 2], [1, 3])
        # The noise the second gate moved past keeps its place after the op.
        assert [instruction.qubits for instruction in program.ops[2][1]] == [(5,)]
        _assert_same_outputs(circuit)

    def test_different_check_paulis_stay_apart(self):
        circuit = Circuit()
        circuit.reset(0, 1, 2, 3)
        circuit.x_error(0.1, 0, 2)
        circuit.cx(0, 1)
        circuit.cz(2, 3)
        circuit.cx(2, 1)
        circuit.measure(0, 1, 2, 3)
        assert _kinds(circuit) == ["noise", "cpauli", "cpauli", "cpauli", "measure"]

    def test_resets_and_same_basis_measurements_fuse(self):
        circuit = Circuit()
        circuit.reset(0, 1)
        circuit.x_error(0.1, 0, 1)
        circuit.measure(0)
        circuit.tick()
        circuit.measure(1)
        circuit.measure(0, basis="X")
        circuit.reset(0)
        circuit.reset(1, basis="X")
        circuit.z_error(0.1, 0, 1)
        circuit.measure(0, 1, basis="X")
        program = FrameProgram(circuit, list)
        assert [op[0] for op in program.ops] == [
            "noise", "measure", "measure", "reset", "noise", "measure",
        ]
        assert [op[1].tolist() for op in program.ops if op[0] == "measure"] == [
            [0, 1], [0], [0, 1],
        ]
        assert [op[3] for op in program.ops if op[0] == "measure"] == [0, 2, 3]

    def test_dead_prefix_advances_the_record(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.h(0)
        circuit.measure(0, basis="X")
        circuit.x_error(0.25, 0)
        circuit.measure(0)
        circuit.detector([1])
        assert _kinds(circuit) == ["noise", "measure"]
        (mechanism,) = build_detector_error_model(circuit).mechanisms
        assert (mechanism.probability, sorted(mechanism.detectors)) == (0.25, [0])
        _assert_same_outputs(circuit)

    def test_dead_prefix_still_refuses_a_one_qubit_cpauli(self):
        circuit = Circuit()
        circuit.reset(0, 1)
        circuit.instructions.append(Instruction("CPAULI", (1, 1), pauli="X"))
        circuit.x_error(0.1, 0)
        circuit.measure(0, 1)
        message = r"^CPAULI needs two distinct qubits, got 1 twice$"
        with pytest.raises(ValueError, match=message):
            build_detector_error_model(circuit)
        with pytest.raises(ValueError, match=message):
            FrameSampler(circuit)

    def test_noise_run_compiles_as_one_list(self):
        circuit = Circuit()
        circuit.reset(0, 1)
        circuit.x_error(0.1, 0)
        circuit.tick()
        circuit.depolarize2(0.1, 0, 1)
        circuit.h(1)
        circuit.z_error(0.1, 1)
        circuit.measure(0, 1)
        runs = []
        FrameProgram(circuit, runs.append)
        assert [[instruction.name for instruction in run] for run in runs] == [
            ["X_ERROR", "DEPOLARIZE2"],
            ["Z_ERROR"],
        ]
