"""Reference DEM builder: one mechanism at a time through sparse Paulis.

This is the original detector-error-model extraction, kept as the oracle
for :func:`repro.sim.dem.build_detector_error_model`.  Every
stochastic Pauli noise channel is decomposed into elementary fault
mechanisms; each mechanism is propagated on its own through the rest of
the circuit as a dict-backed :class:`SparsePauli`, its measurement flips
are mapped onto detectors and observables, and mechanisms with identical
symptoms are merged in enumeration order with
``e * (1 - p) + p * (1 - e)``.  The result is sorted by
``(sorted(detectors), sorted(observables))``.

It is O(mechanisms x circuit length) in Python — slow, but simple enough
to trust.  The production builder must reproduce its mechanism list
exactly: same order, probabilities equal under ``==``.
"""

from __future__ import annotations

from repro.circuits.circuit import (
    GATE_NAMES,
    NOISE_NAMES,
    ONE_QUBIT_PAULIS,
    TWO_QUBIT_PAULIS,
    Circuit,
    Instruction,
)
from repro.sim.dem import DemDecompositionError, DetectorErrorModel, ErrorMechanism

__all__ = [
    "SparsePauli",
    "propagate_fault",
    "measurement_flips",
    "build_detector_error_model",
]

_DECOMPOSABLE_NAMES = frozenset(GATE_NAMES | NOISE_NAMES | {"TICK", "DETECTOR", "OBSERVABLE"})

_LETTER_BITS = {"X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


class SparsePauli:
    """A Pauli operator stored as ``{qubit: (x_bit, z_bit)}`` (no sign)."""

    __slots__ = ("components",)

    def __init__(self, components: dict[int, tuple[int, int]] | None = None) -> None:
        self.components: dict[int, tuple[int, int]] = dict(components or {})

    @classmethod
    def single(cls, qubit: int, letter: str) -> "SparsePauli":
        return cls({qubit: _LETTER_BITS[letter]})

    def get(self, qubit: int) -> tuple[int, int]:
        return self.components.get(qubit, (0, 0))

    def set(self, qubit: int, x_bit: int, z_bit: int) -> None:
        if x_bit == 0 and z_bit == 0:
            self.components.pop(qubit, None)
        else:
            self.components[qubit] = (x_bit, z_bit)

    def multiply_by(self, qubit: int, x_bit: int, z_bit: int) -> None:
        """XOR-in a Pauli on ``qubit`` (sign discarded)."""
        current_x, current_z = self.get(qubit)
        self.set(qubit, current_x ^ x_bit, current_z ^ z_bit)

    def is_identity(self) -> bool:
        return not self.components

    def copy(self) -> "SparsePauli":
        return SparsePauli(self.components)


def _apply_instruction(pauli: SparsePauli, instruction: Instruction) -> None:
    """Conjugate ``pauli`` through one non-measurement instruction, in place."""
    name = instruction.name
    if name == "H":
        for qubit in instruction.qubits:
            x_bit, z_bit = pauli.get(qubit)
            if x_bit or z_bit:
                pauli.set(qubit, z_bit, x_bit)
    elif name == "S":
        for qubit in instruction.qubits:
            x_bit, z_bit = pauli.get(qubit)
            if x_bit:
                pauli.set(qubit, x_bit, z_bit ^ 1)
    elif name == "CPAULI":
        control, target = instruction.qubits
        target_x, target_z = _LETTER_BITS[instruction.pauli]
        control_bits = pauli.get(control)
        target_bits = pauli.get(target)
        # X (or Y) on the control propagates the check Pauli onto the target.
        if control_bits[0]:
            pauli.multiply_by(target, target_x, target_z)
        # A target Pauli anticommuting with the check Pauli propagates Z onto
        # the control (phase kickback of the controlled-Pauli).
        anticommutes = (target_bits[0] * target_z + target_bits[1] * target_x) % 2
        if anticommutes:
            pauli.multiply_by(control, 0, 1)
    elif name == "SWAP":
        for first, second in zip(instruction.qubits[::2], instruction.qubits[1::2]):
            first_bits = pauli.get(first)
            second_bits = pauli.get(second)
            pauli.set(first, *second_bits)
            pauli.set(second, *first_bits)
    elif name in ("R", "RX"):
        for qubit in instruction.qubits:
            pauli.set(qubit, 0, 0)
    # Pauli gates (X/Y/Z), noise channels and annotations commute with the
    # tracked frame up to sign and are ignored.


def propagate_fault(circuit: Circuit, start_index: int, initial: SparsePauli) -> set[int]:
    """Measurement-record indices flipped by a fault injected *after*
    instruction ``start_index``."""
    pauli = initial.copy()
    flipped: set[int] = set()
    measurement_index = 0
    for position, instruction in enumerate(circuit.instructions):
        if instruction.name in ("M", "MX"):
            if position <= start_index:
                measurement_index += len(instruction.qubits)
                continue
            for qubit in instruction.qubits:
                x_bit, z_bit = pauli.get(qubit)
                anticommutes = x_bit if instruction.name == "M" else z_bit
                if anticommutes:
                    flipped.add(measurement_index)
                measurement_index += 1
            continue
        if position <= start_index:
            continue
        _apply_instruction(pauli, instruction)
    return flipped


def measurement_flips(circuit: Circuit, start_index: int, qubit: int, letter: str) -> set[int]:
    """Convenience wrapper: flips caused by a single-qubit fault."""
    return propagate_fault(circuit, start_index, SparsePauli.single(qubit, letter))


def _pair_pauli(first: int, second: int, letter_a: str, letter_b: str) -> SparsePauli:
    pauli = SparsePauli()
    if letter_a != "I":
        pauli.multiply_by(first, *_LETTER_BITS[letter_a])
    if letter_b != "I":
        pauli.multiply_by(second, *_LETTER_BITS[letter_b])
    return pauli


def _mechanism_paulis(instruction: Instruction) -> list[tuple[float, SparsePauli]]:
    """Decompose a noise instruction into (probability, Pauli) mechanisms."""
    name = instruction.name
    probability = instruction.probability
    mechanisms: list[tuple[float, SparsePauli]] = []
    if name in ("X_ERROR", "Z_ERROR", "Y_ERROR"):
        for qubit in instruction.qubits:
            mechanisms.append((probability, SparsePauli.single(qubit, name[0])))
    elif name == "DEPOLARIZE1":
        share = probability / 3.0
        for qubit in instruction.qubits:
            for letter in ONE_QUBIT_PAULIS:
                mechanisms.append((share, SparsePauli.single(qubit, letter)))
    elif name == "DEPOLARIZE2":
        share = probability / 15.0
        for first, second in zip(instruction.qubits[::2], instruction.qubits[1::2]):
            for letter_a, letter_b in TWO_QUBIT_PAULIS:
                mechanisms.append((share, _pair_pauli(first, second, letter_a, letter_b)))
    elif name == "PAULI_CHANNEL_1":
        for qubit in instruction.qubits:
            for letter, share in zip(ONE_QUBIT_PAULIS, instruction.probabilities):
                mechanisms.append((share, SparsePauli.single(qubit, letter)))
    elif name == "PAULI_CHANNEL_2":
        for first, second in zip(instruction.qubits[::2], instruction.qubits[1::2]):
            for (letter_a, letter_b), share in zip(TWO_QUBIT_PAULIS, instruction.probabilities):
                mechanisms.append((share, _pair_pauli(first, second, letter_a, letter_b)))
    else:
        raise DemDecompositionError(
            f"noise instruction {name!r} has no first-order fault decomposition"
        )
    return mechanisms


def build_detector_error_model(circuit: Circuit) -> DetectorErrorModel:
    """The reference DEM of ``circuit`` (see the module docstring)."""
    for instruction in circuit.instructions:
        if instruction.name not in _DECOMPOSABLE_NAMES:
            raise DemDecompositionError(
                f"instruction {instruction.name!r} cannot be decomposed into a "
                "detector error model"
            )
    detector_members = circuit.detectors()
    observable_members = circuit.observables()

    measurement_to_detectors: dict[int, list[int]] = {}
    for detector_index, members in enumerate(detector_members):
        for measurement in members:
            measurement_to_detectors.setdefault(measurement, []).append(detector_index)
    measurement_to_observables: dict[int, list[int]] = {}
    for observable_index, members in observable_members.items():
        for measurement in members:
            measurement_to_observables.setdefault(measurement, []).append(observable_index)

    merged: dict[tuple[frozenset[int], frozenset[int]], float] = {}
    for position, instruction in enumerate(circuit.instructions):
        if not instruction.is_noise():
            continue
        for probability, pauli in _mechanism_paulis(instruction):
            if probability <= 0:
                continue
            detectors: set[int] = set()
            observables: set[int] = set()
            for measurement in propagate_fault(circuit, position, pauli):
                for detector in measurement_to_detectors.get(measurement, ()):
                    detectors.symmetric_difference_update({detector})
                for observable in measurement_to_observables.get(measurement, ()):
                    observables.symmetric_difference_update({observable})
            if not detectors and not observables:
                continue
            key = (frozenset(detectors), frozenset(observables))
            existing = merged.get(key, 0.0)
            merged[key] = existing * (1 - probability) + probability * (1 - existing)

    mechanisms = [
        ErrorMechanism(probability, detectors, observables)
        for (detectors, observables), probability in sorted(
            merged.items(), key=lambda item: (sorted(item[0][0]), sorted(item[0][1]))
        )
    ]
    return DetectorErrorModel(
        num_detectors=len(detector_members),
        num_observables=circuit.num_observables,
        mechanisms=mechanisms,
    )
