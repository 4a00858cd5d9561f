"""Tick-based Clifford circuit intermediate representation.

The instruction set is a small, stim-flavoured subset sufficient for
syndrome-measurement experiments:

``R`` / ``RX``
    reset qubits to ``|0>`` / ``|+>``.
``M`` / ``MX``
    measure qubits in the Z / X basis (each measured qubit appends one
    measurement record entry).
``H``, ``S``, ``X``, ``Y``, ``Z``
    single-qubit Cliffords / Paulis.
``CPAULI``
    controlled-Pauli with the first qubit as control and the second as
    target; the ``pauli`` argument selects X (CNOT), Z (CZ) or Y.
``SWAP``
    qubit exchange.
``X_ERROR`` / ``Z_ERROR`` / ``Y_ERROR``
    single-qubit Pauli noise channels with probability ``p``.
``DEPOLARIZE1`` / ``DEPOLARIZE2``
    single- / two-qubit depolarizing channels.
``PAULI_CHANNEL_1`` / ``PAULI_CHANNEL_2``
    general stochastic Pauli channels carrying one probability per
    non-identity Pauli (3 for one qubit, 15 for a pair, in
    :data:`ONE_QUBIT_PAULIS` / :data:`TWO_QUBIT_PAULIS` order); the
    channel realisation of biased noise (``repro.noise.models``).
``TICK``
    timing barrier (purely annotational).
``DETECTOR``
    parity of a set of measurement-record indices that is deterministic in
    the absence of noise.
``OBSERVABLE``
    parity of measurement-record indices defining a logical observable.

Measurement-record indices are absolute (0-based, in order of appearance),
which keeps the builders simple; :class:`CircuitBuilder`-style helpers in
``repro.circuits.builder`` track them for callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Instruction",
    "Circuit",
    "GATE_NAMES",
    "NOISE_NAMES",
    "ANNOTATION_NAMES",
    "ONE_QUBIT_PAULIS",
    "TWO_QUBIT_PAULIS",
]

GATE_NAMES = frozenset(
    {"R", "RX", "M", "MX", "H", "S", "X", "Y", "Z", "CPAULI", "SWAP"}
)
NOISE_NAMES = frozenset(
    {
        "X_ERROR",
        "Z_ERROR",
        "Y_ERROR",
        "DEPOLARIZE1",
        "DEPOLARIZE2",
        "PAULI_CHANNEL_1",
        "PAULI_CHANNEL_2",
    }
)
#: Annotations: no frame op, no record entry.
ANNOTATION_NAMES = frozenset({"TICK", "DETECTOR", "OBSERVABLE"})
_KNOWN_NAMES = GATE_NAMES | NOISE_NAMES | ANNOTATION_NAMES

#: Canonical non-identity Pauli order of ``PAULI_CHANNEL_1`` probabilities.
ONE_QUBIT_PAULIS = ("X", "Y", "Z")
#: Canonical non-identity Pauli-pair order of ``PAULI_CHANNEL_2``
#: probabilities (first letter outer, ``I, X, Y, Z`` inner, ``II`` skipped)
#: — shared with the DEM decomposition so channel weights and fault
#: mechanisms can never disagree on ordering.
TWO_QUBIT_PAULIS = tuple(
    (first, second)
    for first in ("I", "X", "Y", "Z")
    for second in ("I", "X", "Y", "Z")
    if not (first == "I" and second == "I")
)

#: Per-(qubit group) probability count of the general Pauli channels.
_PAULI_CHANNEL_SIZES = {"PAULI_CHANNEL_1": 3, "PAULI_CHANNEL_2": 15}


@dataclass
class Instruction:
    """One circuit instruction.

    Attributes
    ----------
    name:
        Instruction mnemonic (see module docstring).
    qubits:
        Qubit indices the instruction acts on (empty for annotations).
    probability:
        Error probability for single-probability noise channels, ``None``
        otherwise.
    pauli:
        Pauli letter for ``CPAULI`` instructions.
    targets:
        Measurement-record indices for ``DETECTOR`` / ``OBSERVABLE``.
    index:
        Observable index for ``OBSERVABLE`` instructions.
    probabilities:
        Per-Pauli probability tuple for ``PAULI_CHANNEL_1`` (3 entries,
        :data:`ONE_QUBIT_PAULIS` order) and ``PAULI_CHANNEL_2`` (15
        entries, :data:`TWO_QUBIT_PAULIS` order); ``None`` otherwise.
    """

    name: str
    qubits: tuple[int, ...] = ()
    probability: float | None = None
    pauli: str | None = None
    targets: tuple[int, ...] = ()
    index: int | None = None
    probabilities: tuple[float, ...] | None = None

    def is_noise(self) -> bool:
        return self.name in NOISE_NAMES

    def __str__(self) -> str:
        parts = [self.name]
        if self.pauli:
            parts.append(f"[{self.pauli}]")
        if self.probability is not None:
            parts.append(f"({self.probability:g})")
        if self.probabilities is not None:
            parts.append("(" + ",".join(f"{p:g}" for p in self.probabilities) + ")")
        if self.qubits:
            parts.append(" ".join(str(q) for q in self.qubits))
        if self.targets:
            parts.append("rec[" + ",".join(str(t) for t in self.targets) + "]")
        if self.index is not None:
            parts.append(f"obs={self.index}")
        return " ".join(parts)


class _Tally:
    """Qubit, measurement and detector totals over a prefix of an instruction list.

    The totals cover ``instructions[:seen]``; :meth:`catch_up` counts only
    the instructions appended since, which keeps a circuit built by
    appending linear however often it asks for its totals.
    """

    __slots__ = ("instructions", "seen", "last", "highest", "measurements", "detectors")

    def __init__(self, instructions: list[Instruction]) -> None:
        self.instructions = instructions
        self.seen = 0
        self.last = None
        self.highest = -1
        self.measurements = 0
        self.detectors = 0

    def follows(self, instructions: list[Instruction]) -> bool:
        """True when ``instructions`` only grew at the end since the last count."""
        return (
            instructions is self.instructions
            and self.seen <= len(instructions)
            and (not self.seen or instructions[self.seen - 1] is self.last)
        )

    def catch_up(self) -> "_Tally":
        instructions = self.instructions
        for instruction in instructions[self.seen :]:
            name = instruction.name
            if instruction.qubits:
                self.highest = max(self.highest, max(instruction.qubits))
            if name in ("M", "MX"):
                self.measurements += len(instruction.qubits)
            elif name == "DETECTOR":
                self.detectors += 1
        self.seen = len(instructions)
        self.last = instructions[-1] if instructions else None
        return self


@dataclass
class Circuit:
    """An ordered list of instructions plus derived bookkeeping.

    ``num_qubits``, ``num_measurements`` and ``num_detectors`` are kept as
    running totals: a query counts only the instructions appended since the
    previous one, whether through :meth:`append` or directly on
    ``instructions``.  Any other edit of the list that moves its last
    counted instruction (an insert, a removal, a new list) starts a fresh
    count.
    """

    instructions: list[Instruction] = field(default_factory=list)
    _tally: _Tally | None = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def append(self, instruction: Instruction) -> None:
        self._check(instruction)
        self.instructions.append(instruction)

    def _check(self, instruction: Instruction) -> None:
        name = instruction.name
        if name not in _KNOWN_NAMES:
            raise ValueError(f"unknown instruction {name!r}")
        if name in _PAULI_CHANNEL_SIZES:
            expected = _PAULI_CHANNEL_SIZES[name]
            probabilities = instruction.probabilities
            if probabilities is None or len(probabilities) != expected:
                raise ValueError(f"{name} needs exactly {expected} probabilities")
            if any(p < 0 for p in probabilities) or sum(probabilities) > 1 + 1e-12:
                raise ValueError(f"{name} probabilities must be >= 0 and sum to <= 1")
        elif name in NOISE_NAMES:
            if instruction.probability is None or not 0 <= instruction.probability <= 1:
                raise ValueError(f"{name} needs a probability in [0, 1]")
        if name == "CPAULI":
            if instruction.pauli not in ("X", "Y", "Z"):
                raise ValueError("CPAULI needs pauli in {'X', 'Y', 'Z'}")
            if len(instruction.qubits) != 2:
                raise ValueError("CPAULI acts on exactly two qubits")
            if instruction.qubits[0] == instruction.qubits[1]:
                raise ValueError("CPAULI needs two distinct qubits")
        if name in ("SWAP", "DEPOLARIZE2", "PAULI_CHANNEL_2") and len(instruction.qubits) % 2:
            raise ValueError(f"{name} needs an even number of qubits")

    # Convenience emitters -------------------------------------------------
    def reset(self, *qubits: int, basis: str = "Z") -> None:
        self.append(Instruction("RX" if basis == "X" else "R", tuple(qubits)))

    def measure(self, *qubits: int, basis: str = "Z") -> list[int]:
        """Measure qubits, returning the new measurement-record indices."""
        start = self.num_measurements
        self.append(Instruction("MX" if basis == "X" else "M", tuple(qubits)))
        return list(range(start, start + len(qubits)))

    def h(self, *qubits: int) -> None:
        self.append(Instruction("H", tuple(qubits)))

    def s(self, *qubits: int) -> None:
        self.append(Instruction("S", tuple(qubits)))

    def cpauli(self, control: int, target: int, pauli: str) -> None:
        self.append(Instruction("CPAULI", (control, target), pauli=pauli))

    def cx(self, control: int, target: int) -> None:
        self.cpauli(control, target, "X")

    def cz(self, control: int, target: int) -> None:
        self.cpauli(control, target, "Z")

    def swap(self, first: int, second: int) -> None:
        self.append(Instruction("SWAP", (first, second)))

    def tick(self) -> None:
        self.append(Instruction("TICK"))

    def depolarize1(self, probability: float, *qubits: int) -> None:
        if probability > 0 and qubits:
            self.append(
                Instruction("DEPOLARIZE1", tuple(qubits), probability=probability)
            )

    def depolarize2(self, probability: float, first: int, second: int) -> None:
        if probability > 0:
            self.append(
                Instruction("DEPOLARIZE2", (first, second), probability=probability)
            )

    def x_error(self, probability: float, *qubits: int) -> None:
        if probability > 0 and qubits:
            self.append(Instruction("X_ERROR", tuple(qubits), probability=probability))

    def z_error(self, probability: float, *qubits: int) -> None:
        if probability > 0 and qubits:
            self.append(Instruction("Z_ERROR", tuple(qubits), probability=probability))

    def pauli_channel_1(self, probabilities, *qubits: int) -> None:
        """General single-qubit Pauli channel (X/Y/Z probability triple)."""
        if sum(probabilities) > 0 and qubits:
            self.append(
                Instruction(
                    "PAULI_CHANNEL_1", tuple(qubits), probabilities=tuple(probabilities)
                )
            )

    def pauli_channel_2(self, probabilities, first: int, second: int) -> None:
        """General two-qubit Pauli channel (15 pair probabilities)."""
        if sum(probabilities) > 0:
            self.append(
                Instruction(
                    "PAULI_CHANNEL_2", (first, second), probabilities=tuple(probabilities)
                )
            )

    def append_noise_op(self, op) -> None:
        """Append one :class:`repro.noise.models.NoiseOp`-like object.

        Zero-probability ops are skipped entirely (no instruction is
        appended), matching the behaviour of the dedicated emitters, so a
        model whose rate is zero adds nothing to the stream.  ``op`` is
        duck-typed (``name``, ``qubits``, ``probability``,
        ``probabilities``) so this module never imports the noise layer.
        """
        probabilities = getattr(op, "probabilities", None)
        if probabilities is not None:
            if sum(probabilities) > 0 and op.qubits:
                self.append(
                    Instruction(
                        op.name, tuple(op.qubits), probabilities=tuple(probabilities)
                    )
                )
            return
        probability = op.probability or 0.0
        if probability > 0 and op.qubits:
            self.append(Instruction(op.name, tuple(op.qubits), probability=probability))

    def detector(self, measurement_indices: list[int]) -> int:
        """Append a detector; returns its index."""
        index = self.num_detectors
        self.append(Instruction("DETECTOR", targets=tuple(measurement_indices)))
        return index

    def observable(self, observable_index: int, measurement_indices: list[int]) -> None:
        self.append(
            Instruction(
                "OBSERVABLE", targets=tuple(measurement_indices), index=observable_index
            )
        )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    def _totals(self) -> _Tally:
        tally = self._tally
        if tally is None or not tally.follows(self.instructions):
            tally = self._tally = _Tally(self.instructions)
        return tally.catch_up()

    @property
    def num_qubits(self) -> int:
        return self._totals().highest + 1

    @property
    def num_measurements(self) -> int:
        return self._totals().measurements

    @property
    def num_detectors(self) -> int:
        return self._totals().detectors

    @property
    def num_observables(self) -> int:
        indices = {
            inst.index for inst in self.instructions if inst.name == "OBSERVABLE"
        }
        return (max(indices) + 1) if indices else 0

    @property
    def num_ticks(self) -> int:
        return sum(1 for inst in self.instructions if inst.name == "TICK")

    def detectors(self) -> list[tuple[int, ...]]:
        """Return the measurement-index tuples of all detectors, in order."""
        return [
            inst.targets for inst in self.instructions if inst.name == "DETECTOR"
        ]

    def observables(self) -> dict[int, tuple[int, ...]]:
        """Return ``{observable index: measurement indices}`` (XOR-merged)."""
        merged: dict[int, set[int]] = {}
        for inst in self.instructions:
            if inst.name != "OBSERVABLE":
                continue
            bucket = merged.setdefault(inst.index, set())
            bucket.symmetric_difference_update(inst.targets)
        return {key: tuple(sorted(value)) for key, value in merged.items()}

    def without_noise(self) -> "Circuit":
        """Return a copy of the circuit with all noise channels removed."""
        return Circuit(
            [inst for inst in self.instructions if not inst.is_noise()]
        )

    def __iadd__(self, other: "Circuit") -> "Circuit":
        for instruction in other.instructions:
            self.append(instruction)
        return self

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        return "\n".join(str(inst) for inst in self.instructions)
