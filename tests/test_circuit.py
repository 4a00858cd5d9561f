"""Tests for the Clifford circuit IR."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.circuits import Circuit, Instruction
from repro.io.stim_text import load_stim_circuit


class TestInstructionValidation:
    def test_unknown_instruction_rejected(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.append(Instruction("BOGUS", (0,)))

    def test_noise_needs_probability(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.append(Instruction("X_ERROR", (0,)))

    def test_noise_probability_bounds(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.append(Instruction("DEPOLARIZE1", (0,), probability=1.5))

    def test_cpauli_needs_two_qubits_and_letter(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.append(Instruction("CPAULI", (0,), pauli="X"))
        with pytest.raises(ValueError):
            circuit.append(Instruction("CPAULI", (0, 1), pauli="Q"))

    def test_depolarize2_needs_pairs(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.append(Instruction("DEPOLARIZE2", (0, 1, 2), probability=0.1))


class TestBookkeeping:
    def test_measurement_indices_are_sequential(self):
        circuit = Circuit()
        first = circuit.measure(0, 1)
        second = circuit.measure(2)
        assert first == [0, 1]
        assert second == [2]
        assert circuit.num_measurements == 3

    def test_detector_indices(self):
        circuit = Circuit()
        circuit.measure(0)
        circuit.measure(1)
        assert circuit.detector([0]) == 0
        assert circuit.detector([0, 1]) == 1
        assert circuit.num_detectors == 2
        assert circuit.detectors() == [(0,), (0, 1)]

    def test_observables_merge_by_index(self):
        circuit = Circuit()
        circuit.measure(0, 1, 2)
        circuit.observable(0, [0])
        circuit.observable(0, [1])
        circuit.observable(1, [2])
        merged = circuit.observables()
        assert merged[0] == (0, 1)
        assert merged[1] == (2,)
        assert circuit.num_observables == 2

    def test_observable_include_cancels_duplicates(self):
        circuit = Circuit()
        circuit.measure(0)
        circuit.observable(0, [0])
        circuit.observable(0, [0])
        assert circuit.observables()[0] == ()

    def test_num_qubits_from_highest_index(self):
        circuit = Circuit()
        circuit.h(0)
        circuit.cx(3, 7)
        assert circuit.num_qubits == 8

    def test_num_ticks(self):
        circuit = Circuit()
        circuit.tick()
        circuit.h(0)
        circuit.tick()
        assert circuit.num_ticks == 2

    def test_zero_probability_noise_is_dropped(self):
        circuit = Circuit()
        circuit.depolarize1(0.0, 0)
        circuit.depolarize2(0.0, 0, 1)
        circuit.x_error(0.0, 0)
        assert len(circuit) == 0

    def test_without_noise_strips_channels_only(self):
        circuit = Circuit()
        circuit.h(0)
        circuit.depolarize1(0.1, 0)
        circuit.cx(0, 1)
        circuit.depolarize2(0.1, 0, 1)
        circuit.measure(1)
        stripped = circuit.without_noise()
        assert len(stripped) == 3
        assert all(not inst.is_noise() for inst in stripped.instructions)
        # The original circuit is untouched.
        assert len(circuit) == 5

    def test_iadd_concatenates_instructions(self):
        first = Circuit()
        first.h(0)
        second = Circuit()
        second.h(1)
        first += second
        assert len(first) == 2

    def test_str_rendering_mentions_gates(self):
        circuit = Circuit()
        circuit.cpauli(0, 1, "Z")
        circuit.depolarize2(0.01, 0, 1)
        text = str(circuit)
        assert "CPAULI" in text and "DEPOLARIZE2" in text


def _recount(circuit: Circuit) -> tuple[int, int, int]:
    """``(num_qubits, num_measurements, num_detectors)`` by a plain scan."""
    instructions = circuit.instructions
    qubits = [q for inst in instructions for q in inst.qubits]
    return (
        max(qubits) + 1 if qubits else 0,
        sum(len(inst.qubits) for inst in instructions if inst.name in ("M", "MX")),
        sum(inst.name == "DETECTOR" for inst in instructions),
    )


def _totals(circuit: Circuit) -> tuple[int, int, int]:
    return circuit.num_qubits, circuit.num_measurements, circuit.num_detectors


class TestRunningTotals:
    """The running totals always equal a recount of the instruction list."""

    def _grown(self) -> Circuit:
        circuit = Circuit()
        assert _totals(circuit) == (0, 0, 0)
        circuit.reset(0, 1)
        assert _totals(circuit) == _recount(circuit)
        circuit.x_error(0.1, 4)
        assert circuit.measure(0, 1) == [0, 1]
        assert circuit.detector([0]) == 0
        assert _totals(circuit) == _recount(circuit) == (5, 2, 1)
        return circuit

    def test_appends(self):
        circuit = self._grown()
        circuit.measure(2, basis="X")
        circuit.detector([1, 2])
        assert _totals(circuit) == _recount(circuit) == (5, 3, 2)

    def test_in_place_add(self):
        circuit = self._grown()
        other = Circuit()
        other.cx(3, 8)
        other.measure(8)
        other.detector([0])
        assert _totals(other) == (9, 1, 1)
        circuit += other
        assert _totals(circuit) == _recount(circuit) == (9, 3, 2)

    def test_constructed_from_a_list(self):
        circuit = Circuit(instructions=list(self._grown().instructions))
        assert _totals(circuit) == _recount(circuit) == (5, 2, 1)

    def test_without_noise(self):
        quiet = self._grown().without_noise()
        assert _totals(quiet) == _recount(quiet) == (2, 2, 1)

    def test_direct_list_edits(self):
        circuit = self._grown()
        circuit.instructions.append(Instruction("M", (6,)))
        assert _totals(circuit) == _recount(circuit) == (7, 3, 1)
        circuit.instructions.insert(0, Instruction("DETECTOR", targets=(0,)))
        assert _totals(circuit) == _recount(circuit) == (7, 3, 2)
        del circuit.instructions[-1]
        assert _totals(circuit) == _recount(circuit) == (5, 2, 2)
        circuit.instructions = [Instruction("H", (3,))]
        assert _totals(circuit) == _recount(circuit) == (4, 0, 0)

    def test_stim_import(self):
        circuit = load_stim_circuit(Path(__file__).parent / "data" / "stim" / "memory_d3.stim")
        assert _totals(circuit) == _recount(circuit)
        assert circuit.num_measurements > 0 and circuit.num_detectors > 0
