"""Reference stabilizer tableau: the dense uint8 storage backend.

This is the original ``(2n, n)`` uint8 storage of the Aaronson–Gottesman
tableau, kept as the oracle for the bit-packed
:class:`repro.sim.tableau.TableauSimulator`.  It subclasses the same
:class:`repro.sim.tableau._TableauBase`, so the gate composition, the
measurement branches and the order in which the RNG is consumed are shared;
only the storage primitives differ.  For equal seeds both must produce
identical measurement records, detector values and final tableaux.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.tableau import _TableauBase

__all__ = ["DenseTableauSimulator", "simulate_circuit_dense"]


class DenseTableauSimulator(_TableauBase):
    """Dense uint8 reference backend.

    Same row-operation algebra as the packed simulator on plain
    ``(2n, n)`` bit matrices; kept as the conformance baseline the packed
    backend is regression-tested against.
    """

    def __init__(self, num_qubits: int, *, seed=None) -> None:
        super().__init__(num_qubits, seed=seed)
        size = 2 * num_qubits
        self.x_bits = np.zeros((size, num_qubits), dtype=np.uint8)
        self.z_bits = np.zeros((size, num_qubits), dtype=np.uint8)
        for qubit in range(num_qubits):
            self.x_bits[qubit, qubit] = 1                # destabilizers X_i
            self.z_bits[num_qubits + qubit, qubit] = 1   # stabilizers Z_i

    # ------------------------------------------------------------------
    # Elementary gates
    # ------------------------------------------------------------------
    def hadamard(self, qubit: int) -> None:
        x_col = self.x_bits[:, qubit].copy()
        z_col = self.z_bits[:, qubit].copy()
        self.signs ^= x_col & z_col
        self.x_bits[:, qubit] = z_col
        self.z_bits[:, qubit] = x_col

    def phase(self, qubit: int) -> None:
        x_col = self.x_bits[:, qubit]
        z_col = self.z_bits[:, qubit]
        self.signs ^= x_col & z_col
        self.z_bits[:, qubit] = z_col ^ x_col

    def cnot(self, control: int, target: int) -> None:
        x_c = self.x_bits[:, control]
        z_c = self.z_bits[:, control]
        x_t = self.x_bits[:, target]
        z_t = self.z_bits[:, target]
        self.signs ^= x_c & z_t & (x_t ^ z_c ^ 1)
        self.x_bits[:, target] = x_t ^ x_c
        self.z_bits[:, control] = z_c ^ z_t

    def x_gate(self, qubit: int) -> None:
        self.signs ^= self.z_bits[:, qubit]

    def z_gate(self, qubit: int) -> None:
        self.signs ^= self.x_bits[:, qubit]

    # ------------------------------------------------------------------
    # Measurement storage primitives
    # ------------------------------------------------------------------
    def _x_column(self, qubit: int) -> np.ndarray:
        return self.x_bits[:, qubit]

    def _g_sums(self, source_row: int, target_x, target_z) -> np.ndarray:
        """Vectorised ``sum_q g(source, target)`` over one or many target rows."""
        x1 = self.x_bits[source_row].astype(np.int64)
        z1 = self.z_bits[source_row].astype(np.int64)
        x2 = np.asarray(target_x, dtype=np.int64)
        z2 = np.asarray(target_z, dtype=np.int64)
        g = (
            x1 * z1 * (z2 - x2)
            + x1 * (1 - z1) * z2 * (2 * x2 - 1)
            + (1 - x1) * z1 * x2 * (1 - 2 * z2)
        )
        return g.sum(axis=-1)

    def _multiply_rows_by(self, rows: np.ndarray, pivot: int) -> None:
        g_sum = self._g_sums(pivot, self.x_bits[rows], self.z_bits[rows])
        exponent = g_sum + 2 * (int(self.signs[pivot]) + self.signs[rows].astype(np.int64))
        self.signs[rows] = ((exponent % 4) // 2).astype(np.uint8)
        self.x_bits[rows] ^= self.x_bits[pivot]
        self.z_bits[rows] ^= self.z_bits[pivot]

    def _promote_pivot(self, pivot: int, qubit: int) -> None:
        n = self.num_qubits
        self.x_bits[pivot - n] = self.x_bits[pivot]
        self.z_bits[pivot - n] = self.z_bits[pivot]
        self.signs[pivot - n] = self.signs[pivot]
        self.x_bits[pivot] = 0
        self.z_bits[pivot] = 0
        self.z_bits[pivot, qubit] = 1

    def _deterministic_outcome(self, x_column: np.ndarray) -> int:
        n = self.num_qubits
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        sign = 0
        for destab_row in np.nonzero(x_column[:n])[0]:
            stab_row = int(destab_row) + n
            g_sum = int(self._g_sums(stab_row, scratch_x, scratch_z))
            sign = ((g_sum + 2 * (int(self.signs[stab_row]) + sign)) % 4) // 2
            scratch_x ^= self.x_bits[stab_row]
            scratch_z ^= self.z_bits[stab_row]
        return int(sign)


def simulate_circuit_dense(
    circuit: Circuit, *, seed=None
) -> tuple[list[int], list[int], dict[int, int]]:
    """:func:`repro.sim.tableau.simulate_circuit` on the dense backend."""
    simulator = DenseTableauSimulator(circuit.num_qubits, seed=seed)
    measurements = simulator.run(circuit)
    detector_values = [
        int(sum(measurements[m] for m in members) % 2)
        for members in circuit.detectors()
    ]
    observable_values = {
        index: int(sum(measurements[m] for m in members) % 2)
        for index, members in circuit.observables().items()
    }
    return measurements, detector_values, observable_values
