"""Detector error model (DEM) extraction.

Every stochastic Pauli noise channel in a circuit is decomposed into
elementary *fault mechanisms* (a single Pauli applied with some
probability).  Which detectors and logical observables a mechanism flips
is read off *detector sensitivities*, propagated backward once through the
compiled circuit (:class:`repro.sim.frames.FrameProgram`), as stim does
(Gidney, arXiv:2103.02202).  The sensitivity frames ``sx``/``sz`` are
``(num_qubits + 1, words)`` little-endian ``uint64`` rows in the
:mod:`repro.sim.bitops` layout with detectors, then observables, in place
of shots: bit ``k`` of ``sz[q]`` (``sx[q]``) is set when an X (Z) error on
qubit ``q`` at the current point flips detector (or observable) ``k``.
Walking the ops in reverse, a measurement XORs its record's detector and
observable bits into the Z row (X row for ``MX``) of its qubit, a reset
clears its rows, a gate applies the forward frame update (every gate op is
an involution up to sign), and each noise op keeps a snapshot.  The last
row is an all-zero sentinel that stands in for the missing second qubit
of a single-qubit mechanism, so a mechanism's symptom is one gathered
expression over its run's snapshot::

    x1 & sz[q1]  ^  z1 & sx[q1]  ^  x2 & sz[q2]  ^  z2 & sx[q2]

Mechanisms with identical symptoms are merged in enumeration order
(instruction, then qubit or pair, then Pauli; probabilities combine as
``p = p1 (1 - p2) + p2 (1 - p1)``), mechanisms that flip nothing are
dropped, and the rest are sorted by ``(sorted detectors, sorted
observables)``.  The model itself is array-native: priors plus detector
and observable incidence in CSR form.  The DEM doubles as the decoding
problem: ``check_matrix`` (H), ``observable_matrix`` (L) and ``priors``
are what every decoder in ``repro.decoders`` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from repro.circuits.circuit import (
    ANNOTATION_NAMES,
    GATE_NAMES,
    NOISE_NAMES,
    ONE_QUBIT_PAULIS,
    TWO_QUBIT_PAULIS,
    Circuit,
)
from repro.sim.bitops import _WORD_DTYPE, WORD_BITS, packed_words, unpack_rows
from repro.sim.frames import (
    _PAIR_FIRST_X,
    _PAIR_FIRST_Z,
    _PAIR_SECOND_X,
    _PAIR_SECOND_Z,
    FrameProgram,
    apply_gate,
)

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
_DECOMPOSABLE_NAMES = GATE_NAMES | NOISE_NAMES | ANNOTATION_NAMES


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


def _frozen(array, dtype) -> np.ndarray:
    array = np.array(array, dtype=dtype)
    array.flags.writeable = False
    return array


def _csr(sets: "list[list[int]]") -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of a list of sorted index lists."""
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    return indptr, np.fromiter(
        (index for members in sets for index in members), dtype=np.int64, count=int(indptr[-1])
    )


class DetectorErrorModel:
    """Independent error mechanisms as arrays, plus the decoding matrices.

    The state is ``priors`` (one probability per mechanism) and the
    detector and observable incidence in CSR form: mechanism ``m`` flips
    the detectors ``detector_indices[detector_indptr[m]:detector_indptr[m + 1]]``
    (ascending), and likewise for observables.  All four arrays are
    read-only.  ``DetectorErrorModel(num_detectors, num_observables,
    mechanisms)`` builds the arrays from a list of :class:`ErrorMechanism`;
    :meth:`from_arrays` takes them as they are.  The derived views
    (``check_matrix``, ``observable_matrix``, ``mechanisms`` and the
    per-row mechanism lists the sampler reduces over) are computed once, on
    first use, and are not pickled.
    """

    __hash__ = None  # compared by value, so unhashable

    def __init__(
        self,
        num_detectors: int,
        num_observables: int,
        mechanisms: "list[ErrorMechanism] | None" = None,
    ) -> None:
        mechanisms = list(mechanisms or ())
        self._set_state(
            num_detectors,
            num_observables,
            [m.probability for m in mechanisms],
            *_csr([sorted(m.detectors) for m in mechanisms]),
            *_csr([sorted(m.observables) for m in mechanisms]),
        )

    @classmethod
    def from_arrays(
        cls,
        num_detectors: int,
        num_observables: int,
        priors,
        detector_indptr,
        detector_indices,
        observable_indptr,
        observable_indices,
    ) -> "DetectorErrorModel":
        """A model over the given arrays (copied to read-only storage)."""
        model = cls.__new__(cls)
        model._set_state(
            num_detectors,
            num_observables,
            priors,
            detector_indptr,
            detector_indices,
            observable_indptr,
            observable_indices,
        )
        return model

    def _set_state(self, num_detectors, num_observables, priors, *incidence) -> None:
        self.num_detectors = int(num_detectors)
        self.num_observables = int(num_observables)
        self.priors = _frozen(priors, np.float64)
        (
            self.detector_indptr,
            self.detector_indices,
            self.observable_indptr,
            self.observable_indices,
        ) = (_frozen(array, np.int64) for array in incidence)
        count = self.priors.size
        if self.detector_indptr.size != count + 1 or self.observable_indptr.size != count + 1:
            raise ValueError(f"incidence pointers must have {count + 1} entries")

    def _state(self) -> tuple:
        return (
            self.num_detectors,
            self.num_observables,
            self.priors,
            self.detector_indptr,
            self.detector_indices,
            self.observable_indptr,
            self.observable_indices,
        )

    def __reduce__(self):
        # The arrays only: derived views are rebuilt on first use.
        return (DetectorErrorModel.from_arrays, self._state())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectorErrorModel):
            return NotImplemented
        mine, theirs = self._state(), other._state()
        return mine[:2] == theirs[:2] and all(
            np.array_equal(a, b) for a, b in zip(mine[2:], theirs[2:])
        )

    def __repr__(self) -> str:
        return (
            f"DetectorErrorModel(num_detectors={self.num_detectors}, "
            f"num_observables={self.num_observables}, num_mechanisms={self.num_mechanisms})"
        )

    @property
    def num_mechanisms(self) -> int:
        return self.priors.size

    @cached_property
    def mechanisms(self) -> list[ErrorMechanism]:
        """The mechanisms as :class:`ErrorMechanism` objects, in model order."""
        detectors = self.detector_indices.tolist()
        observables = self.observable_indices.tolist()
        d_ptr = self.detector_indptr.tolist()
        o_ptr = self.observable_indptr.tolist()
        return [
            ErrorMechanism(
                probability,
                frozenset(detectors[d_ptr[m] : d_ptr[m + 1]]),
                frozenset(observables[o_ptr[m] : o_ptr[m + 1]]),
            )
            for m, probability in enumerate(self.priors.tolist())
        ]

    def _incidence_matrix(self, rows: int, indptr, indices) -> np.ndarray:
        matrix = np.zeros((rows, self.num_mechanisms), dtype=np.uint8)
        matrix[indices, np.repeat(np.arange(self.num_mechanisms), np.diff(indptr))] = 1
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def check_matrix(self) -> np.ndarray:
        """Detector-by-mechanism incidence matrix H (uint8, read-only)."""
        return self._incidence_matrix(
            self.num_detectors, self.detector_indptr, self.detector_indices
        )

    @cached_property
    def observable_matrix(self) -> np.ndarray:
        """Observable-by-mechanism incidence matrix L (uint8, read-only)."""
        return self._incidence_matrix(
            self.num_observables, self.observable_indptr, self.observable_indices
        )

    def _by_row(self, rows: int, indptr, indices) -> list[np.ndarray]:
        if rows == 0:  # np.split would still return one (empty) group
            return []
        owners = np.repeat(np.arange(self.num_mechanisms), np.diff(indptr))
        order = np.argsort(indices, kind="stable")
        bounds = np.cumsum(np.bincount(indices, minlength=rows))[:-1]
        return np.split(owners[order], bounds)

    @cached_property
    def detector_mechanisms(self) -> list[np.ndarray]:
        """Per detector, the ascending indices of the mechanisms that flip it (rows of H)."""
        return self._by_row(self.num_detectors, self.detector_indptr, self.detector_indices)

    @cached_property
    def observable_mechanisms(self) -> list[np.ndarray]:
        """Per observable, the ascending indices of the mechanisms that flip it (rows of L)."""
        return self._by_row(self.num_observables, self.observable_indptr, self.observable_indices)

    def is_graphlike(self) -> bool:
        """True when every mechanism flips at most two detectors."""
        return bool(np.all(np.diff(self.detector_indptr) <= 2))


#: Letter index of each Pauli (``I`` is 0); a mechanism's letter class is
#: ``4 * first + second``, the pair index of :mod:`repro.sim.frames`.
_LETTER = {"I": 0, "X": 1, "Y": 2, "Z": 3}
_PAIR_CLASSES = tuple(4 * _LETTER[first] + _LETTER[second] for first, second in TWO_QUBIT_PAULIS)
_SINGLE_CLASSES = {letter: 4 * _LETTER[letter] for letter in ONE_QUBIT_PAULIS}

#: Per letter class, all-ones where the Pauli has that component: X on the
#: first qubit, Z on the first, X on the second, Z on the second.
_CLASS_MASKS = tuple(
    np.where(bits, np.uint64(~np.uint64(0)), np.uint64(0)).astype(_WORD_DTYPE)
    for bits in (_PAIR_FIRST_X, _PAIR_FIRST_Z, _PAIR_SECOND_X, _PAIR_SECOND_Z)
)


def _channel(instruction) -> "tuple[int, tuple[int, ...], tuple[float, ...]] | None":
    """``(arity, letter classes, probabilities)`` of a noise instruction.

    Elementary Paulis follow the canonical orders shared with the circuit
    IR (``PAULI_CHANNEL_1/2`` probability tuples are defined in exactly
    this order); zero-probability Paulis are dropped, and a channel with
    none left is ``None``.
    """
    name = instruction.name
    probability = instruction.probability
    if name in ("X_ERROR", "Z_ERROR", "Y_ERROR"):
        arity, classes, shares = 1, (_SINGLE_CLASSES[name[0]],), (probability,)
    elif name == "DEPOLARIZE1":
        arity, classes, shares = 1, tuple(_SINGLE_CLASSES.values()), (probability / 3.0,) * 3
    elif name == "PAULI_CHANNEL_1":
        arity, classes = 1, tuple(_SINGLE_CLASSES.values())
        shares = tuple(instruction.probabilities)
    elif name == "DEPOLARIZE2":
        arity, classes, shares = 2, _PAIR_CLASSES, (probability / 15.0,) * 15
    elif name == "PAULI_CHANNEL_2":
        arity, classes, shares = 2, _PAIR_CLASSES, tuple(instruction.probabilities)
    else:
        raise DemDecompositionError(
            f"noise instruction {name!r} has no first-order fault decomposition"
        )
    kept = [index for index, share in enumerate(shares) if share > 0]
    if not kept:
        return None
    return arity, tuple(classes[i] for i in kept), tuple(shares[i] for i in kept)


class _NoiseRecords:
    """The ``compile_noise`` consumer: every run's instructions, as channel indices.

    ``compile_noise(run)`` is called once per noise run, in circuit order;
    it returns the run's index (its snapshot slot in the backward replay),
    or ``None`` when the run has no mechanism.  :meth:`mechanisms` expands
    the records into one row per mechanism in enumeration order.
    """

    def __init__(self) -> None:
        #: ``(arity, letter classes, probabilities)`` of each distinct channel.
        self.channels: list[tuple] = []
        # Channel key -> index into ``channels``; -1 for a channel with no
        # mechanism.
        self._index: dict[tuple, int] = {}
        # Per recorded instruction: channel, run, and its qubits.
        self.channel: list[int] = []
        self.run: list[int] = []
        self.qubits: list[tuple[int, ...]] = []
        self.runs = 0

    def __call__(self, run) -> "int | None":
        count = len(self.channel)
        for instruction in run:
            key = (instruction.name, instruction.probability, instruction.probabilities)
            index = self._index.get(key)
            if index is None:
                channel = _channel(instruction)
                index = self._index[key] = len(self.channels) if channel else -1
                if channel:
                    self.channels.append(channel)
            if index >= 0 and instruction.qubits:
                self.channel.append(index)
                self.qubits.append(instruction.qubits)
        added = len(self.channel) - count
        if not added:
            return None
        self.run.extend([self.runs] * added)
        self.runs += 1
        return self.runs - 1

    def mechanisms(self, sentinel: int) -> tuple[np.ndarray, ...]:
        """``(run, first qubit, second qubit, letter class, probability)`` arrays.

        One entry per mechanism, in enumeration order; a single-qubit
        mechanism's second qubit is ``sentinel``.
        """
        arity = np.array([channel[0] for channel in self.channels], dtype=np.intp)
        letters = np.array([len(channel[1]) for channel in self.channels], dtype=np.intp)
        # Every channel's letter classes and probabilities, laid end to end.
        offset = np.cumsum(letters) - letters
        classes = np.fromiter((c for channel in self.channels for c in channel[1]), dtype=np.intp)
        shares = np.fromiter((p for channel in self.channels for p in channel[2]), dtype=float)
        qubits = np.fromiter(chain.from_iterable(self.qubits), dtype=np.intp)
        channel = np.asarray(self.channel, dtype=np.intp)
        widths = np.fromiter(map(len, self.qubits), dtype=np.intp, count=len(self.qubits))
        # Groups (a qubit, or a pair) of every instruction, in order.
        groups = widths // arity[channel]
        group_channel = np.repeat(channel, groups)
        group_run = np.repeat(np.asarray(self.run, dtype=np.intp), groups)
        group_arity = arity[group_channel]
        group_start = np.cumsum(group_arity) - group_arity
        pairs = group_arity == 2
        seconds = np.full(group_start.size, sentinel, dtype=np.intp)
        seconds[pairs] = qubits[group_start[pairs] + 1]
        # Mechanisms: each group once per kept Pauli of its channel.
        count = letters[group_channel]
        group = np.repeat(np.arange(group_channel.size), count)
        first = np.cumsum(count) - count
        slot = np.arange(group.size) + np.repeat(offset[group_channel] - first, count)
        firsts = qubits[group_start]
        return group_run[group], firsts[group], seconds[group], classes[slot], shares[slot]


def _measurement_masks(program, words: int) -> np.ndarray:
    """Per measurement record, the packed bits of the detectors and observables it feeds.

    Detectors take bits ``0..D-1`` and observables ``D..D+O-1``.  A record
    listed twice by one group cancels, as in the forward XOR.
    """
    groups = program.detector_groups + program.observable_groups
    sizes = [len(group) for group in groups]
    records = np.fromiter(
        (record for group in groups for record in group), dtype=np.intp, count=sum(sizes)
    )
    bits = np.repeat(np.arange(len(groups)), sizes)
    masks = np.zeros((program.num_measurements, words), dtype=_WORD_DTYPE)
    np.bitwise_xor.at(
        masks,
        (records, bits // WORD_BITS),
        np.left_shift(np.uint64(1), (bits % WORD_BITS).astype(np.uint64)),
    )
    return masks


def _sensitivity_snapshots(program, runs: int, words: int) -> tuple[np.ndarray, np.ndarray]:
    """Replay ``program.ops`` backward; the X/Z sensitivity frames at each noise run.

    Returns ``(runs, num_qubits + 1, words)`` snapshots, indexed by the
    run index ``compile_noise`` gave the noise op.  Only ``ops``,
    ``num_qubits``, ``num_measurements`` and the detector/observable
    groups are read, so any program speaking that protocol replays.
    """
    masks = _measurement_masks(program, words)
    rows = program.num_qubits + 1  # the last row stays zero: the sentinel
    sx = np.zeros((rows, words), dtype=_WORD_DTYPE)
    sz = np.zeros((rows, words), dtype=_WORD_DTYPE)
    snapshot_x = np.zeros((runs, rows, words), dtype=_WORD_DTYPE)
    snapshot_z = np.zeros((runs, rows, words), dtype=_WORD_DTYPE)
    for op in reversed(program.ops):
        kind = op[0]
        if kind == "noise":
            snapshot_x[op[1]] = sx
            snapshot_z[op[1]] = sz
        elif kind == "measure":
            # An error anticommuting with the readout basis flips the
            # record.  One fused op may list a qubit twice, so the
            # records accumulate with an unbuffered XOR.
            _, qubits, x_basis, start = op
            np.bitwise_xor.at(sx if x_basis else sz, qubits, masks[start : start + qubits.size])
        else:
            apply_gate(op, sx, sz)
    return snapshot_x, snapshot_z


def _fold(group: np.ndarray, probabilities: np.ndarray, groups: int) -> np.ndarray:
    """Merge each group's probabilities in order.

    ``group`` is sorted, and each group's members come in enumeration
    order.  They are laid out as a ``(groups, largest)`` matrix padded
    with zeros, and column ``k`` folds into every group at once with
    ``e * (1 - p) + p * (1 - e)``: the same float operations in the same
    order as a sequential fold, and a zero pad leaves ``e`` unchanged
    exactly.
    """
    members = _padded_members(group, probabilities, groups, 0.0)
    complements = 1 - members
    merged = members[:, 0].copy()
    for p, q in zip(members.T[1:], complements.T[1:]):
        merged = merged * q + p * (1 - merged)
    return merged


def _padded_members(rows: np.ndarray, values: np.ndarray, count: int, pad) -> np.ndarray:
    """``(count, width)`` matrix of each row's values in order, padded with ``pad``.

    ``rows`` must be sorted; ``values[i]`` belongs to row ``rows[i]``.
    """
    sizes = np.bincount(rows, minlength=count)
    padded = np.full((count, int(sizes.max(initial=0))), pad, dtype=values.dtype)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    padded[rows, rank] = values
    return padded


def build_detector_error_model(circuit: Circuit) -> DetectorErrorModel:
    """Extract the detector error model of ``circuit``.

    The circuit's detectors and observables are defined over absolute
    measurement indices; each noise channel is expanded into elementary
    Pauli mechanisms, whose detector/observable flips are read off the
    backward sensitivity replay (see the module docstring), then merged by
    symptom and put in canonical order.
    """
    for instruction in circuit.instructions:
        if instruction.name not in _DECOMPOSABLE_NAMES:
            raise DemDecompositionError(
                f"instruction {instruction.name!r} cannot be decomposed into a "
                "detector error model: fault propagation only understands the "
                "stochastic-Pauli instruction set"
            )
    records = _NoiseRecords()
    program = FrameProgram(circuit, records)
    num_detectors = len(program.detector_groups)
    num_observables = len(program.observable_groups)
    width = num_detectors + num_observables
    if not records.runs or not width:
        return DetectorErrorModel(num_detectors, num_observables)
    words = packed_words(width)
    snapshot_x, snapshot_z = _sensitivity_snapshots(program, records.runs, words)
    run, first, second, letter, probabilities = records.mechanisms(program.num_qubits)
    x1, z1, x2, z2 = (masks[letter, None] for masks in _CLASS_MASKS)
    symptoms = (
        (snapshot_z[run, first] & x1)
        ^ (snapshot_x[run, first] & z1)
        ^ (snapshot_z[run, second] & x2)
        ^ (snapshot_x[run, second] & z2)
    )
    fired = np.flatnonzero(symptoms.any(axis=1))
    if not fired.size:
        return DetectorErrorModel(num_detectors, num_observables)
    keys, merged = _merge_symptoms(symptoms[fired], probabilities[fired])
    return _canonical_model(keys, merged, num_detectors, num_observables)


def _merge_symptoms(rows: np.ndarray, probabilities: np.ndarray):
    """Distinct packed symptom rows and each one's merged probability.

    The sort is stable, so each group's members stay in enumeration order
    for the fold.
    """
    by_symptom = np.lexsort(rows.T[::-1])
    rows = rows[by_symptom]
    starts = np.ones(rows.shape[0], dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
    keys = rows[starts]
    return keys, _fold(np.cumsum(starts) - 1, probabilities[by_symptom], keys.shape[0])


def _canonical_model(keys, merged, num_detectors: int, num_observables: int):
    """The model over distinct symptoms, sorted by ``(detectors, observables)``.

    Each side is its ascending index list, and a prefix sorts first — hence
    the -1 padding.
    """
    bits = keys.shape[1] * WORD_BITS
    key_rows, key_columns = np.divmod(np.flatnonzero(unpack_rows(keys, bits)), bits)
    is_detector = key_columns < num_detectors
    count = keys.shape[0]
    detectors = _padded_members(key_rows[is_detector], key_columns[is_detector], count, -1)
    observables = _padded_members(
        key_rows[~is_detector], key_columns[~is_detector] - num_detectors, count, -1
    )
    order = np.lexsort(np.hstack([detectors, observables])[:, ::-1].T)
    detectors, observables = detectors[order], observables[order]
    return DetectorErrorModel.from_arrays(
        num_detectors,
        num_observables,
        merged[order],
        np.concatenate([[0], np.cumsum(np.count_nonzero(detectors >= 0, axis=1))]),
        detectors[detectors >= 0],
        np.concatenate([[0], np.cumsum(np.count_nonzero(observables >= 0, axis=1))]),
        observables[observables >= 0],
    )
