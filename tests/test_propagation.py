"""Tests for Pauli fault propagation through the circuit IR.

Every propagation rule is checked on the packed frame kernel and on the
reference sparse-Pauli propagator kept in ``tests/oracles``, which must
agree.
"""

from __future__ import annotations

from oracles.dem_reference import SparsePauli, measurement_flips

from repro.circuits import Circuit
from repro.circuits.circuit import Instruction
from repro.sim.dem import build_detector_error_model


def flips(circuit: Circuit, start_index: int, qubit: int, letter: str) -> set[int]:
    """Measurements flipped by ``letter`` on ``qubit`` injected after
    instruction ``start_index``: found by the frame kernel (one fault in a
    DEM build with one detector per measurement) and asserted equal to the
    reference propagator's answer."""
    probe = Circuit(list(circuit.instructions))
    probe.instructions.insert(
        start_index + 1, Instruction(f"{letter}_ERROR", (qubit,), probability=0.5)
    )
    for measurement in range(probe.num_measurements):
        probe.detector([measurement])
    mechanisms = build_detector_error_model(probe).mechanisms
    found = set(mechanisms[0].detectors) if mechanisms else set()
    assert found == measurement_flips(circuit, start_index, qubit, letter)
    return found


def _z_check_circuit() -> Circuit:
    """Ancilla 2 measures Z0 Z1 via phase kickback (RX, CZ, CZ, MX)."""
    circuit = Circuit()
    circuit.reset(0, 1)
    circuit.reset(2, basis="X")
    circuit.cpauli(2, 0, "Z")
    circuit.cpauli(2, 1, "Z")
    circuit.measure(2, basis="X")
    return circuit


class TestSingleQubitRules:
    def test_x_flips_z_measurement(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.measure(0)
        assert flips(circuit, 0, 0, "X") == {0}

    def test_z_does_not_flip_z_measurement(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.measure(0)
        assert flips(circuit, 0, 0, "Z") == set()

    def test_z_flips_x_measurement(self):
        circuit = Circuit()
        circuit.reset(0, basis="X")
        circuit.measure(0, basis="X")
        assert flips(circuit, 0, 0, "Z") == {0}

    def test_hadamard_exchanges_x_and_z(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.h(0)
        circuit.measure(0)
        # Z before the H becomes X at the measurement -> flips.
        assert flips(circuit, 0, 0, "Z") == {0}
        # X before the H becomes Z -> no flip.
        assert flips(circuit, 0, 0, "X") == set()

    def test_reset_clears_fault(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.reset(0)
        circuit.measure(0)
        assert flips(circuit, 0, 0, "X") == set()

    def test_fault_before_start_index_ignored(self):
        circuit = Circuit()
        circuit.reset(0)
        circuit.measure(0)
        circuit.measure(0)
        # Injecting after the first measurement only flips the second.
        assert flips(circuit, 1, 0, "X") == {1}


class TestControlledPauliRules:
    def test_x_on_control_propagates_check_pauli(self):
        circuit = _z_check_circuit()
        circuit.measure(0, 1, basis="X")
        # Inject X on the ancilla after the first CZ (instruction index 2):
        # it propagates a Z onto data qubit 1 through the remaining CZ, which
        # flips qubit 1's X-basis readout but not qubit 0's, and leaves the
        # ancilla's own MX readout unflipped (an X does not flip MX).
        assert flips(circuit, 2, 2, "X") == {2}

    def test_z_on_control_flips_its_own_readout(self):
        circuit = _z_check_circuit()
        assert flips(circuit, 2, 2, "Z") == {0}

    def test_hook_error_hits_later_data_checks_only(self):
        """An ancilla fault mid-way through an X-stabilizer measurement
        propagates X onto exactly the data qubits whose checks come later."""
        circuit = Circuit()
        circuit.reset(0, 1, 2, 3)
        circuit.reset(4, basis="X")
        for data in (0, 1, 2, 3):
            circuit.cpauli(4, data, "X")
        circuit.measure(4, basis="X")
        data_measurements = circuit.measure(0, 1, 2, 3)
        # Fault after the second check (instruction index: R,RX,CP,CP -> 3).
        flipped = flips(circuit, 3, 4, "X")
        flipped_data = {m - 1 for m in flipped if m in set(data_measurements)}
        assert flipped_data == {2, 3}

    def test_anticommuting_data_fault_kicks_back_onto_ancilla(self):
        circuit = _z_check_circuit()
        # X on data qubit 0 before its CZ anticommutes with the Z check and
        # flips the ancilla's X readout.
        assert 0 in flips(circuit, 1, 0, "X")

    def test_commuting_data_fault_invisible_to_ancilla(self):
        circuit = _z_check_circuit()
        assert flips(circuit, 1, 0, "Z") == set()

    def test_swap_moves_fault(self):
        circuit = Circuit()
        circuit.reset(0, 1)
        circuit.swap(0, 1)
        circuit.measure(1)
        assert flips(circuit, 0, 0, "X") == {0}
        assert flips(circuit, 0, 1, "X") == set()


class TestSparsePauli:
    def test_multiplication_cancels(self):
        pauli = SparsePauli.single(3, "X")
        pauli.multiply_by(3, 1, 0)
        assert pauli.is_identity()

    def test_y_composition(self):
        pauli = SparsePauli.single(0, "X")
        pauli.multiply_by(0, 0, 1)
        assert pauli.get(0) == (1, 1)

    def test_copy_independent(self):
        pauli = SparsePauli.single(0, "X")
        clone = pauli.copy()
        clone.multiply_by(0, 1, 0)
        assert not pauli.is_identity()
        assert clone.is_identity()
