"""Detector error model (DEM) extraction.

Every stochastic Pauli noise channel in a circuit is decomposed into
elementary *fault mechanisms* (a single Pauli applied with some
probability).  The mapping from mechanisms to the detectors and logical
observables they flip is found in one forward pass of the packed frame
kernel (:class:`repro.sim.frames.FrameProgram`): each mechanism owns one
bit column of the ``(num_qubits, words)`` X/Z frames — the
:mod:`repro.sim.bitops` layout with mechanisms in place of shots — and at
its run of noise instructions every mechanism's Pauli is XOR-ed into its
own column in one vectorised step.  The resulting list of
``(probability, detectors, observables)`` triples is the detector error
model, exactly analogous to stim's DEM.

Mechanisms with identical symptoms are merged in enumeration order
(instruction, then qubit or pair, then Pauli; probabilities combine as
``p = p1 (1 - p2) + p2 (1 - p1)``), and mechanisms that flip nothing are
dropped.  The DEM doubles as the decoding problem: ``check_matrix`` (H),
``observable_matrix`` (L) and ``priors`` are what every decoder in
``repro.decoders`` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import (
    GATE_NAMES,
    NOISE_NAMES,
    ONE_QUBIT_PAULIS,
    TWO_QUBIT_PAULIS,
    Circuit,
)
from repro.sim.bitops import WORD_BITS, pack_rows, packed_words, unpack_rows
from repro.sim.frames import FrameProgram

__all__ = [
    "DemDecompositionError",
    "ErrorMechanism",
    "DetectorErrorModel",
    "build_detector_error_model",
]

#: Instruction names the first-order fault decomposition understands.  The
#: frame kernel silently ignores anything else, which would make a
#: DEM built from a richer circuit silently wrong — so decomposition checks
#: membership up front and refuses loudly instead.
_DECOMPOSABLE_NAMES = frozenset(GATE_NAMES | NOISE_NAMES | {"TICK", "DETECTOR", "OBSERVABLE"})


class DemDecompositionError(ValueError):
    """A circuit instruction cannot be decomposed into DEM mechanisms.

    Raised instead of building a silently incomplete model.  Circuit-level
    samplers (``sampler="frames"``) do not require DEM decomposition for
    sampling, so callers with richer circuits can route around this.
    """


@dataclass(frozen=True)
class ErrorMechanism:
    """One independent error mechanism of the DEM."""

    probability: float
    detectors: frozenset[int]
    observables: frozenset[int]


@dataclass
class DetectorErrorModel:
    """A collection of independent error mechanisms plus decoding matrices."""

    num_detectors: int
    num_observables: int
    mechanisms: list[ErrorMechanism] = field(default_factory=list)

    @property
    def num_mechanisms(self) -> int:
        return len(self.mechanisms)

    @property
    def priors(self) -> np.ndarray:
        return np.array([m.probability for m in self.mechanisms], dtype=np.float64)

    @property
    def check_matrix(self) -> np.ndarray:
        """Detector-by-mechanism incidence matrix H (uint8)."""
        matrix = np.zeros((self.num_detectors, self.num_mechanisms), dtype=np.uint8)
        for column, mechanism in enumerate(self.mechanisms):
            for detector in mechanism.detectors:
                matrix[detector, column] = 1
        return matrix

    @property
    def observable_matrix(self) -> np.ndarray:
        """Observable-by-mechanism incidence matrix L (uint8)."""
        matrix = np.zeros((self.num_observables, self.num_mechanisms), dtype=np.uint8)
        for column, mechanism in enumerate(self.mechanisms):
            for observable in mechanism.observables:
                matrix[observable, column] = 1
        return matrix

    def is_graphlike(self) -> bool:
        """True when every mechanism flips at most two detectors."""
        return all(len(m.detectors) <= 2 for m in self.mechanisms)


_PAIRS = tuple(first + second for first, second in TWO_QUBIT_PAULIS)


def _channel(instruction) -> tuple[tuple[str, ...], list[float]]:
    """``(letters, probabilities)`` of a noise instruction's elementary Paulis.

    Letters follow the canonical orders shared with the circuit IR
    (``PAULI_CHANNEL_1/2`` probability tuples are defined in exactly this
    order), one letter per qubit of the group.
    """
    name = instruction.name
    probability = instruction.probability
    if name in ("X_ERROR", "Z_ERROR", "Y_ERROR"):
        return (name[0],), [probability]
    if name == "DEPOLARIZE1":
        return ONE_QUBIT_PAULIS, [probability / 3.0] * 3
    if name == "PAULI_CHANNEL_1":
        return ONE_QUBIT_PAULIS, list(instruction.probabilities)
    if name == "DEPOLARIZE2":
        return _PAIRS, [probability / 15.0] * 15
    if name == "PAULI_CHANNEL_2":
        return _PAIRS, list(instruction.probabilities)
    raise DemDecompositionError(
        f"noise instruction {name!r} has no first-order fault decomposition"
    )


def _masks(letters) -> list[tuple[int, int]]:
    """Per qubit of a group, the Paulis acting on it as X and as Z.

    Bit ``l`` of ``masks[h][0]`` (``[1]``) is set when ``letters[l]`` has
    an X (Z) component on qubit ``h`` of its group.
    """
    return [
        tuple(
            sum(1 << index for index, pauli in enumerate(letters) if pauli[half] in flip)
            for flip in ("XY", "YZ")
        )
        for half in range(len(letters[0]))
    ]


#: Masks of every channel with all of its Paulis kept.
_FULL_MASKS = {
    letters: _masks(letters) for letters in [("X",), ("Y",), ("Z",), ONE_QUBIT_PAULIS, _PAIRS]
}


def _inject(op, frame_x, frame_z) -> None:
    rows, first, last, packed = op
    frame_x[rows, first:last] ^= packed[:, 0]
    frame_z[rows, first:last] ^= packed[:, 1]


def build_detector_error_model(circuit: Circuit) -> DetectorErrorModel:
    """Extract the detector error model of ``circuit``.

    The circuit's detectors and observables are defined over absolute
    measurement indices; each noise channel is expanded into elementary
    Pauli mechanisms, propagated forward together (one frame column each),
    mapped onto detector/observable flips and merged by symptom.
    """
    for instruction in circuit.instructions:
        if instruction.name not in _DECOMPOSABLE_NAMES:
            raise DemDecompositionError(
                f"instruction {instruction.name!r} cannot be decomposed into a "
                "detector error model: fault propagation only understands the "
                "stochastic-Pauli instruction set"
            )
    # Mechanisms take consecutive frame columns in enumeration order —
    # instruction, then qubit (or pair), then Pauli; zero-probability Paulis
    # skipped.
    probabilities: list[float] = []

    def compile_noise(run):
        """The packed X/Z rows that put each mechanism of a noise run in its column.

        The run's instructions are adjacent in the program, so all their
        mechanisms go in with one injection block.
        """
        first = len(probabilities) // WORD_BITS
        # Each touched qubit's X and Z rows as integers, bit i for column
        # 64 * first + i; a qubit hit twice XORs both letters into one row.
        rows: dict[int, list[int]] = {}
        for instruction in run:
            letters, shares = _channel(instruction)
            kept = [index for index, p in enumerate(shares) if p > 0]
            qubits = instruction.qubits
            if not kept or not qubits:
                continue
            if len(kept) == len(letters):
                masks = _FULL_MASKS[letters]
            else:
                letters = [letters[index] for index in kept]
                shares = [shares[index] for index in kept]
                masks = _masks(letters)
            arity = len(letters[0])
            shift = len(probabilities) - WORD_BITS * first
            probabilities.extend(shares * (len(qubits) // arity))
            for index, qubit in enumerate(qubits):
                group, half = divmod(index, arity)
                row = rows.setdefault(qubit, [0, 0])
                offset = shift + group * len(letters)
                row[0] ^= masks[half][0] << offset
                row[1] ^= masks[half][1] << offset
        if not rows:
            return None
        words = packed_words(len(probabilities) - WORD_BITS * first)
        packed = np.frombuffer(
            b"".join(bits.to_bytes(8 * words, "little") for row in rows.values() for bits in row),
            dtype="<u8",
        ).reshape(len(rows), 2, words)
        return np.fromiter(rows, dtype=np.intp, count=len(rows)), first, first + words, packed

    program = FrameProgram(circuit, compile_noise)
    num_detectors = len(program.detector_groups)
    num_observables = len(program.observable_groups)
    model = DetectorErrorModel(num_detectors=num_detectors, num_observables=num_observables)
    count = len(probabilities)
    if not count or not num_detectors + num_observables:
        return model
    detector_rows, observable_rows = program.run(packed_words(count), _inject)
    # One packed symptom row per mechanism: its detector bits, then its
    # observable bits.
    symptoms = pack_rows(unpack_rows(np.vstack([detector_rows, observable_rows]), count).T)
    fired = np.flatnonzero(symptoms.any(axis=1))
    if not fired.size:
        return model
    # Group equal symptoms: each packed row viewed as one opaque key.
    rows = np.ascontiguousarray(symptoms[fired])
    _, first, group = np.unique(
        rows.view(np.dtype((np.void, rows.strides[0]))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    keys = rows[first]
    # Fold each symptom's probabilities in enumeration order.
    merged = [0.0] * len(keys)
    for key, p in zip(group.tolist(), np.asarray(probabilities)[fired].tolist()):
        merged[key] = merged[key] * (1 - p) + p * (1 - merged[key])
    key_rows, key_columns = np.nonzero(unpack_rows(keys, num_detectors + num_observables))
    bounds = np.cumsum(np.bincount(key_rows, minlength=len(keys))).tolist()
    hits = key_columns.tolist()
    entries = []
    for start, stop, probability in zip([0] + bounds, bounds, merged):
        symptom = hits[start:stop]
        detectors = [h for h in symptom if h < num_detectors]
        observables = [h - num_detectors for h in symptom if h >= num_detectors]
        entries.append((detectors, observables, probability))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    model.mechanisms = [
        ErrorMechanism(probability, frozenset(detectors), frozenset(observables))
        for detectors, observables, probability in entries
    ]
    return model
