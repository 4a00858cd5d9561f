"""Aaronson–Gottesman stabilizer tableau simulator (bit-packed).

A Clifford simulator used both as the verification reference and as the
circuit-level fallback sampler: it executes the circuit IR exactly
(including measurement randomness), which lets the test suite confirm that

* detectors declared by the builders are deterministic under zero noise,
* syndrome circuits really measure the intended stabilizers, and
* the DEM-based sampler agrees with direct simulation when noise is
  injected as explicit Pauli gates.

The implementation follows the CHP construction: ``2n`` rows of X/Z bit
matrices plus sign bits, the first ``n`` rows being destabilizers and the
next ``n`` rows stabilizers.

:class:`TableauSimulator` stores the X/Z matrices as little-endian packed
``uint64`` words (:mod:`repro.sim.bitops` layout), with rowsum phases
computed by word-wide popcount masks
(:func:`repro.sim.bitops.rowsum_g_exponents`) and gates as
single-bit-column updates.  64 qubits advance per word operation in every
row update.

The gate algebra, the measurement branches and the RNG order (one
``integers(0, 2)`` draw per random measurement, plus the per-instruction
noise draws) live once in :class:`_TableauBase`.  The dense uint8
reference ``tests/oracles/tableau_reference.py`` subclasses it too, so
for equal seeds the two produce identical measurement records bit for
bit — that equivalence is pinned by ``tests/test_tableau_packed.py``.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit, Instruction
from repro.sim.bitops import (
    WORD_BITS,
    get_bit_column,
    packed_words,
    rowsum_g_exponents,
    unpack_rows,
    xor_bit_column,
)

__all__ = [
    "TableauSimulator",
    "simulate_circuit",
]

_WORD_DTYPE = np.dtype("<u8")


class _TableauBase:
    """Shared gate algebra, measurement skeleton and RNG discipline.

    Subclasses provide the storage primitives (single-qubit/two-qubit gate
    column updates, ``_x_column``, the vectorised rowsum
    ``_multiply_rows_by`` and ``_deterministic_outcome``); everything else —
    gate composition, the measurement branches, and crucially the *order*
    in which ``self.rng`` is consumed — lives here once, so the packed
    simulator and the dense test oracle cannot drift apart.
    """

    def __init__(self, num_qubits: int, *, seed=None) -> None:
        self.num_qubits = num_qubits
        # ``default_rng`` passes an existing Generator through unchanged,
        # which is what lets a batch driver share one stream across shots.
        self.rng = np.random.default_rng(seed)
        self.signs = np.zeros(2 * num_qubits, dtype=np.uint8)
        self.measurement_record: list[int] = []

    # ------------------------------------------------------------------
    # Storage primitives (subclass responsibility)
    # ------------------------------------------------------------------
    def hadamard(self, qubit: int) -> None:
        raise NotImplementedError

    def phase(self, qubit: int) -> None:
        raise NotImplementedError

    def cnot(self, control: int, target: int) -> None:
        raise NotImplementedError

    def x_gate(self, qubit: int) -> None:
        raise NotImplementedError

    def z_gate(self, qubit: int) -> None:
        raise NotImplementedError

    def _x_column(self, qubit: int) -> np.ndarray:
        """The X bit of ``qubit`` in every tableau row (0/1 vector)."""
        raise NotImplementedError

    def _multiply_rows_by(self, rows: np.ndarray, pivot: int) -> None:
        """Left-multiply every row in ``rows`` by row ``pivot`` (CHP rowsum)."""
        raise NotImplementedError

    def _promote_pivot(self, pivot: int, qubit: int) -> None:
        """Move the pivot stabilizer to its destabilizer slot; set it to Z_qubit."""
        raise NotImplementedError

    def _deterministic_outcome(self, x_column: np.ndarray) -> int:
        """Sign of the stabilizer product fixing a deterministic measurement."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Composed gates
    # ------------------------------------------------------------------
    def cz(self, control: int, target: int) -> None:
        self.hadamard(target)
        self.cnot(control, target)
        self.hadamard(target)

    def y_gate(self, qubit: int) -> None:
        self.x_gate(qubit)
        self.z_gate(qubit)

    def cpauli(self, control: int, target: int, pauli: str) -> None:
        if pauli == "X":
            self.cnot(control, target)
        elif pauli == "Z":
            self.cz(control, target)
        else:  # Y = S X S^dagger up to phase: use S_target^dag CX S_target
            self.phase(target)
            self.phase(target)
            self.phase(target)
            self.cnot(control, target)
            self.phase(target)

    def swap(self, first: int, second: int) -> None:
        self.cnot(first, second)
        self.cnot(second, first)
        self.cnot(first, second)

    # ------------------------------------------------------------------
    # Measurement and reset
    # ------------------------------------------------------------------
    def measure_z(self, qubit: int, *, forced: int | None = None) -> int:
        n = self.num_qubits
        x_column = self._x_column(qubit)
        stabilizer_rows = np.nonzero(x_column[n:])[0]
        if stabilizer_rows.size:
            # Outcome is random: rowsum every other anticommuting row by the
            # pivot.  The updates are independent (the pivot row itself never
            # changes), so they happen as one vectorised gather.
            pivot = int(stabilizer_rows[0]) + n
            rows = np.nonzero(x_column)[0]
            rows = rows[rows != pivot]
            if rows.size:
                self._multiply_rows_by(rows, pivot)
            self._promote_pivot(pivot, qubit)
            outcome = int(self.rng.integers(0, 2)) if forced is None else forced
            self.signs[pivot] = outcome
            self.measurement_record.append(outcome)
            return outcome
        # Deterministic outcome: accumulate the product of stabilizers.
        outcome = self._deterministic_outcome(x_column)
        self.measurement_record.append(outcome)
        return outcome

    def measure_x(self, qubit: int) -> int:
        self.hadamard(qubit)
        outcome = self.measure_z(qubit)
        self.hadamard(qubit)
        return outcome

    def reset_z(self, qubit: int) -> None:
        outcome = self.measure_z(qubit)
        self.measurement_record.pop()
        if outcome:
            self.x_gate(qubit)

    def reset_x(self, qubit: int) -> None:
        self.reset_z(qubit)
        self.hadamard(qubit)

    # ------------------------------------------------------------------
    # Circuit execution
    # ------------------------------------------------------------------
    def run_instruction(self, instruction: Instruction) -> None:
        name = instruction.name
        if name == "H":
            for qubit in instruction.qubits:
                self.hadamard(qubit)
        elif name == "S":
            for qubit in instruction.qubits:
                self.phase(qubit)
        elif name == "X":
            for qubit in instruction.qubits:
                self.x_gate(qubit)
        elif name == "Y":
            for qubit in instruction.qubits:
                self.y_gate(qubit)
        elif name == "Z":
            for qubit in instruction.qubits:
                self.z_gate(qubit)
        elif name == "CPAULI":
            self.cpauli(instruction.qubits[0], instruction.qubits[1], instruction.pauli)
        elif name == "SWAP":
            for first, second in zip(instruction.qubits[::2], instruction.qubits[1::2]):
                self.swap(first, second)
        elif name == "R":
            for qubit in instruction.qubits:
                self.reset_z(qubit)
        elif name == "RX":
            for qubit in instruction.qubits:
                self.reset_x(qubit)
        elif name == "M":
            for qubit in instruction.qubits:
                self.measure_z(qubit)
        elif name == "MX":
            for qubit in instruction.qubits:
                self.measure_x(qubit)
        elif name in ("X_ERROR", "Z_ERROR", "Y_ERROR"):
            gate = {"X": self.x_gate, "Z": self.z_gate, "Y": self.y_gate}[name[0]]
            for qubit in instruction.qubits:
                if self.rng.random() < instruction.probability:
                    gate(qubit)
        elif name == "DEPOLARIZE1":
            for qubit in instruction.qubits:
                if self.rng.random() < instruction.probability:
                    choice = self.rng.integers(0, 3)
                    (self.x_gate, self.y_gate, self.z_gate)[choice](qubit)
        elif name == "DEPOLARIZE2":
            pairs = list(zip(instruction.qubits[::2], instruction.qubits[1::2]))
            for first, second in pairs:
                if self.rng.random() < instruction.probability:
                    index = int(self.rng.integers(1, 16))
                    self._apply_two_qubit_pauli(first, second, index)
        elif name == "PAULI_CHANNEL_1":
            gates = (self.x_gate, self.y_gate, self.z_gate)
            for qubit in instruction.qubits:
                choice = self._sample_channel_index(instruction.probabilities)
                if choice is not None:
                    gates[choice](qubit)
        elif name == "PAULI_CHANNEL_2":
            pairs = list(zip(instruction.qubits[::2], instruction.qubits[1::2]))
            for first, second in pairs:
                choice = self._sample_channel_index(instruction.probabilities)
                if choice is not None:
                    # Probability tuples follow TWO_QUBIT_PAULIS order, which
                    # enumerates pair index 1..15 (II skipped).
                    self._apply_two_qubit_pauli(first, second, choice + 1)
        # TICK / DETECTOR / OBSERVABLE are annotations.

    def _sample_channel_index(self, probabilities) -> int | None:
        """Draw which (if any) Pauli of a general channel fires this shot."""
        draw = self.rng.random()
        cumulative = 0.0
        for index, probability in enumerate(probabilities):
            cumulative += probability
            if draw < cumulative:
                return index
        return None

    def _apply_two_qubit_pauli(self, first: int, second: int, index: int) -> None:
        first_letter = index // 4
        second_letter = index % 4
        gates = (None, self.x_gate, self.y_gate, self.z_gate)
        if gates[first_letter] is not None:
            gates[first_letter](first)
        if gates[second_letter] is not None:
            gates[second_letter](second)

    def run(self, circuit: Circuit) -> list[int]:
        """Execute the circuit; returns the measurement record (0/1 list)."""
        for instruction in circuit.instructions:
            self.run_instruction(instruction)
        return list(self.measurement_record)


class TableauSimulator(_TableauBase):
    """Bit-packed stabilizer simulator over ``num_qubits`` qubits (all |0>).

    X/Z matrices are ``(2n, words)`` little-endian ``uint64`` arrays in the
    :mod:`repro.sim.bitops` layout; rowsum phases come from the popcount
    masks of :func:`repro.sim.bitops.rowsum_g_exponents`, so every row
    update touches 64 qubits per word operation.
    """

    def __init__(self, num_qubits: int, *, seed=None) -> None:
        super().__init__(num_qubits, seed=seed)
        self.num_words = packed_words(num_qubits)
        size = 2 * num_qubits
        self.x_words = np.zeros((size, self.num_words), dtype=_WORD_DTYPE)
        self.z_words = np.zeros((size, self.num_words), dtype=_WORD_DTYPE)
        one = np.uint64(1)
        for qubit in range(num_qubits):
            word, bit = divmod(qubit, WORD_BITS)
            self.x_words[qubit, word] |= one << np.uint64(bit)               # destabilizers X_i
            self.z_words[num_qubits + qubit, word] |= one << np.uint64(bit)  # stabilizers Z_i

    # Unpacked views, for conformance tests and debugging.
    @property
    def x_bits(self) -> np.ndarray:
        return unpack_rows(self.x_words, self.num_qubits)

    @property
    def z_bits(self) -> np.ndarray:
        return unpack_rows(self.z_words, self.num_qubits)

    # ------------------------------------------------------------------
    # Elementary gates (single bit-column updates)
    # ------------------------------------------------------------------
    def hadamard(self, qubit: int) -> None:
        x_col = get_bit_column(self.x_words, qubit)
        z_col = get_bit_column(self.z_words, qubit)
        self.signs ^= x_col & z_col
        swap_mask = x_col ^ z_col
        xor_bit_column(self.x_words, qubit, swap_mask)
        xor_bit_column(self.z_words, qubit, swap_mask)

    def phase(self, qubit: int) -> None:
        x_col = get_bit_column(self.x_words, qubit)
        z_col = get_bit_column(self.z_words, qubit)
        self.signs ^= x_col & z_col
        xor_bit_column(self.z_words, qubit, x_col)

    def cnot(self, control: int, target: int) -> None:
        x_c = get_bit_column(self.x_words, control)
        z_c = get_bit_column(self.z_words, control)
        x_t = get_bit_column(self.x_words, target)
        z_t = get_bit_column(self.z_words, target)
        self.signs ^= x_c & z_t & (x_t ^ z_c ^ 1)
        xor_bit_column(self.x_words, target, x_c)
        xor_bit_column(self.z_words, control, z_t)

    def x_gate(self, qubit: int) -> None:
        self.signs ^= get_bit_column(self.z_words, qubit)

    def z_gate(self, qubit: int) -> None:
        self.signs ^= get_bit_column(self.x_words, qubit)

    # ------------------------------------------------------------------
    # Measurement storage primitives
    # ------------------------------------------------------------------
    def _x_column(self, qubit: int) -> np.ndarray:
        return get_bit_column(self.x_words, qubit)

    def _multiply_rows_by(self, rows: np.ndarray, pivot: int) -> None:
        g_sum = rowsum_g_exponents(
            self.x_words[pivot], self.z_words[pivot],
            self.x_words[rows], self.z_words[rows],
        )
        exponent = g_sum + 2 * (int(self.signs[pivot]) + self.signs[rows].astype(np.int64))
        self.signs[rows] = ((exponent % 4) // 2).astype(np.uint8)
        self.x_words[rows] ^= self.x_words[pivot]
        self.z_words[rows] ^= self.z_words[pivot]

    def _promote_pivot(self, pivot: int, qubit: int) -> None:
        n = self.num_qubits
        self.x_words[pivot - n] = self.x_words[pivot]
        self.z_words[pivot - n] = self.z_words[pivot]
        self.signs[pivot - n] = self.signs[pivot]
        self.x_words[pivot] = 0
        self.z_words[pivot] = 0
        word, bit = divmod(qubit, WORD_BITS)
        self.z_words[pivot, word] = np.uint64(1) << np.uint64(bit)

    def _deterministic_outcome(self, x_column: np.ndarray) -> int:
        n = self.num_qubits
        scratch_x = np.zeros(self.num_words, dtype=_WORD_DTYPE)
        scratch_z = np.zeros(self.num_words, dtype=_WORD_DTYPE)
        sign = 0
        # Sequential by construction: each rowsum's phase depends on the
        # scratch row accumulated so far.  Each step is still one word-wide
        # kernel call rather than a per-qubit Python loop.
        for destab_row in np.nonzero(x_column[:n])[0]:
            stab_row = int(destab_row) + n
            g_sum = int(
                rowsum_g_exponents(
                    self.x_words[stab_row], self.z_words[stab_row], scratch_x, scratch_z
                )
            )
            sign = ((g_sum + 2 * (int(self.signs[stab_row]) + sign)) % 4) // 2
            scratch_x ^= self.x_words[stab_row]
            scratch_z ^= self.z_words[stab_row]
        return int(sign)


def simulate_circuit(
    circuit: Circuit, *, seed=None
) -> tuple[list[int], list[int], dict[int, int]]:
    """Run ``circuit`` once; return (measurements, detector values, observable values)."""
    simulator = TableauSimulator(circuit.num_qubits, seed=seed)
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
