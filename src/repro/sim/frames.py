"""Batched Pauli-frame propagation: circuit-level sampling at scale.

A Pauli frame tracks, per qubit, the X/Z deviation of a noisy run from the
noiseless reference execution of the same circuit.  For stochastic Pauli
noise on Clifford circuits this is exact (the same fact the DEM
decomposition rests on), but where the DEM linearises each fault
independently, the frame simulator carries the *full correlated* frame of
every shot through the circuit — so it stays correct for workloads the DEM
cannot express, at batch speed.

:class:`FrameProgram` is the one Pauli-propagation kernel of the package:
the circuit compiled moment by moment into a short op list and replayed
over packed frames.  :class:`FrameSampler` puts shots in the bit columns
and realises noise with random draws, replaying the ops forward;
:func:`repro.sim.dem.build_detector_error_model` replays the same ops
backward with detectors and observables in the bit columns (detector
sensitivities), through the same gate update :func:`apply_gate`.  Compilation
splits an instruction that repeats a qubit into consecutive pieces over
disjoint qubits (stim's in-order semantics: ``H 0 0`` is H twice), refuses
DETECTOR/OBSERVABLE targets outside the measurement record, and then fuses
what commutes: nothing before the first noise instruction emits an op (the
frames are still zero there), disjoint ``CPAULI`` gates with one check
Pauli share an op, consecutive resets and same-basis measurements share
an op, and each run of noise instructions reaches the consumer as one
list, in circuit order.  Both paths read every circuit the same way and
fail on the same malformed ones with the same message.

:class:`FrameSampler` carries ``N`` shots at once: the X/Z frames are
``(num_qubits, ceil(N / 64))`` little-endian ``uint64`` arrays in the
:mod:`repro.sim.bitops` layout — shots packed along the word axis — and
every op becomes one vectorised pass over those rows:

* Clifford gates permute/XOR whole frame rows (H swaps a qubit's X and Z
  rows; a ``CPAULI`` op XORs each control's X row into its target per the
  check Pauli and kicks a Z back onto the control when the target
  anticommutes);
* each noise instruction of a run draws its Bernoulli/categorical
  realisations for all shots in one ``rng`` call and XORs the packed draws
  into the frame rows;
* measurements snapshot the measured qubits' X rows (Z rows for ``MX``) —
  the frame bit that anticommutes with the readout basis *is* the
  measurement flip — and resets clear the frame rows.

Detector/observable parities then reduce over the recorded measurement
rows with :func:`repro.sim.bitops.xor_reduce_rows`, still packed, and the
batch hands the decoder its syndromes in packed form with zero repacking.

:class:`TableauSampler` is the per-shot reference on the same interface: a
full stabilizer-tableau run per shot (spec ``"tableau"``).  It is the slow,
maximally-trusted baseline the frame propagator is benchmarked and
cross-validated against.

Determinism: a sampler's output is a pure function of ``(shots, seed)``.
All randomness flows through one ``np.random.default_rng(seed)`` generator
consumed in circuit order, so fixed seeds give bit-identical batches —
which is what lets the chunked parallel engine (:mod:`repro.parallel`)
keep its worker-count-invariance and cache guarantees unchanged.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.circuit import ANNOTATION_NAMES, NOISE_NAMES, Circuit
from repro.sim.bitops import _WORD_DTYPE, pack_rows, packed_words, unpack_rows, xor_reduce_rows
from repro.sim.sampler import SampleBatch
from repro.sim.tableau import simulate_circuit

__all__ = ["FrameProgram", "FrameSampler", "TableauSampler"]


#: X/Z bits of each Pauli letter (the ``CPAULI`` check Pauli).
_CHECK_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

#: Pair index 0..15 (letters I,X,Y,Z; first*4 + second) -> X/Z flip of each
#: half.  Index 0 is II (no flip); indices 1..15 follow the canonical
#: ``TWO_QUBIT_PAULIS`` enumeration shared with the tableau simulator and
#: the DEM decomposition.
_PAIR_FIRST_X = np.array([(i // 4) in (1, 2) for i in range(16)], dtype=bool)
_PAIR_FIRST_Z = np.array([(i // 4) in (2, 3) for i in range(16)], dtype=bool)
_PAIR_SECOND_X = np.array([(i % 4) in (1, 2) for i in range(16)], dtype=bool)
_PAIR_SECOND_Z = np.array([(i % 4) in (2, 3) for i in range(16)], dtype=bool)


#: Instructions whose qubits come in (first, second) pairs.
_PAIR_NAMES = frozenset({"CPAULI", "SWAP", "DEPOLARIZE2", "PAULI_CHANNEL_2"})


def _qubit_array(qubits) -> np.ndarray:
    return np.asarray(qubits, dtype=np.intp)


def _disjoint_runs(instruction) -> list:
    """Split ``instruction`` into consecutive copies over disjoint qubit groups.

    An instruction that repeats a qubit acts on its targets in order, as in
    stim: ``H 0 0`` is H twice and ``SWAP 0 1 1 2`` moves qubit 0's frame to
    qubit 2.  An op updates all its rows at once, so a run ends before the
    first group (qubit or pair) that shares a qubit with an earlier group of
    the run.  A pair on one qubit stays whole: its two halves are applied
    one after the other.
    """
    qubits = instruction.qubits
    if len(set(qubits)) == len(qubits):
        return [instruction]
    arity = 2 if instruction.name in _PAIR_NAMES else 1
    runs, start, seen = [], 0, set()
    for index in range(0, len(qubits), arity):
        group = qubits[index : index + arity]
        if seen.intersection(group):
            runs.append(qubits[start:index])
            start, seen = index, set()
        seen.update(group)
    runs.append(qubits[start:])
    return [dataclasses.replace(instruction, qubits=run) for run in runs]


def _check_record_targets(circuit: Circuit, num_measurements: int) -> None:
    """Refuse DETECTOR/OBSERVABLE targets outside the measurement record."""
    detector = 0
    for instruction in circuit.instructions:
        if instruction.name not in ("DETECTOR", "OBSERVABLE"):
            continue
        for target in instruction.targets:
            if not 0 <= target < num_measurements:
                owner = (
                    f"detector {detector}"
                    if instruction.name == "DETECTOR"
                    else f"observable {instruction.index}"
                )
                raise ValueError(
                    f"{owner} targets measurement {target}, outside the record "
                    f"[0, {num_measurements})"
                )
        detector += instruction.name == "DETECTOR"


class FrameProgram:
    """A circuit compiled moment by moment into a short op list over packed frames.

    Gates, resets and measurements compile to kernel ops (index arrays and
    check-Pauli bits precomputed); each maximal run of noise instructions
    compiles to whatever ``compile_noise(run)`` returns for the list, and is
    skipped when that is ``None``.  Compilation fuses instructions into
    moments:

    * nothing before the first noise instruction emits an op — every frame
      is still zero there and ``flips`` starts zeroed — but record indices
      advance and malformed instructions still raise;
    * a ``CPAULI`` joins the latest ``CPAULI`` op with the same check Pauli
      and disjoint qubits, moving back only past noise and ``CPAULI`` ops
      whose qubits are disjoint from its own (disjoint ops commute, so the
      frames are exact); any other op is a barrier;
    * consecutive resets fuse, and so do consecutive measurements in one
      basis (their record indices are contiguous);
    * noise instructions never move, so a consumer sees its noise in
      circuit order: the sampler's RNG stream and the DEM's mechanism
      enumeration are those of one op per instruction.

    :meth:`run` replays the ops over ``(num_qubits, words)`` frames and
    hands every noise op back to the caller; :class:`FrameSampler`
    realises noise there with random draws per shot.
    :func:`repro.sim.dem.build_detector_error_model` walks the same ops in
    reverse over detector sensitivities instead.
    """

    def __init__(self, circuit: Circuit, compile_noise) -> None:
        self.num_qubits = circuit.num_qubits
        self.num_measurements = circuit.num_measurements
        _check_record_targets(circuit, self.num_measurements)
        self.detector_groups = [list(members) for members in circuit.detectors()]
        observables = circuit.observables()
        self.observable_groups = [
            list(observables.get(index, ())) for index in range(circuit.num_observables)
        ]
        # Moments under construction: ``[kind, qubits touched, *fields]``,
        # with qubit fields kept as lists until they become index arrays.
        # Only noise and CPAULI moments track the qubits they touch.
        moments: list[list] = []
        live = False
        measured = 0
        for whole in circuit.instructions:
            name = whole.name
            # TICK/DETECTOR/OBSERVABLE are annotations: no-ops here.
            if name in ANNOTATION_NAMES:
                continue
            qubits = whole.qubits
            if len(qubits) > 1 and len(set(qubits)) < len(qubits):
                pieces = _disjoint_runs(whole)
            else:
                pieces = (whole,)
            for instruction in pieces:
                qubits = instruction.qubits
                if name in NOISE_NAMES:
                    live = True
                    last = moments[-1] if moments else None
                    if last is not None and last[0] == "noise":
                        last[1].update(qubits)
                        last[2].append(instruction)
                    else:
                        moments.append(["noise", set(qubits), [instruction]])
                elif name == "CPAULI":
                    control, target = qubits
                    if control == target:
                        raise ValueError(f"CPAULI needs two distinct qubits, got {control} twice")
                    if live:
                        _place_cpauli(moments, control, target, instruction.pauli)
                elif name in ("M", "MX"):
                    x_basis = name == "MX"
                    last = moments[-1] if moments else None
                    # Once live, no measurement is elided, so a measurement
                    # right after another continues its record range.
                    if live and last is not None and last[0] == "measure" and last[3] == x_basis:
                        last[2].extend(qubits)
                    elif live:
                        moments.append(["measure", None, list(qubits), x_basis, measured])
                    measured += len(qubits)
                # X/Y/Z gates commute with the frame up to sign, and every
                # gate on the still-zero frames of the dead prefix is a no-op.
                elif not live or not qubits or name in ("X", "Y", "Z"):
                    continue
                elif name in ("R", "RX"):
                    last = moments[-1]
                    if last[0] == "reset":
                        last[2].extend(qubits)
                    else:
                        moments.append(["reset", None, list(qubits)])
                elif name == "H":
                    moments.append(["swapxz", None, qubits])
                elif name == "S":
                    moments.append(["s", None, qubits])
                elif name == "SWAP":
                    moments.append(["swap", None, qubits[::2], qubits[1::2]])
        self.ops: list[tuple] = []
        for kind, _, *fields in moments:
            if kind == "noise":
                noise = compile_noise(fields[0])
                if noise is not None:
                    self.ops.append(("noise", noise))
            elif kind == "cpauli":
                controls, targets, pauli = fields
                check_x, check_z = _CHECK_BITS[pauli]
                self.ops.append(
                    ("cpauli", _qubit_array(controls), _qubit_array(targets), check_x, check_z)
                )
            elif kind == "measure":
                qubits, x_basis, start = fields
                self.ops.append(("measure", _qubit_array(qubits), x_basis, start))
            else:
                self.ops.append((kind, *(_qubit_array(field) for field in fields)))

    def run(self, words: int, apply_noise) -> tuple[np.ndarray, np.ndarray]:
        """Propagate ``words``-wide frames; return packed detector and observable rows.

        ``apply_noise(noise, frame_x, frame_z)`` XORs one compiled noise op
        into the frames in place.
        """
        frame_x = np.zeros((self.num_qubits, words), dtype=_WORD_DTYPE)
        frame_z = np.zeros((self.num_qubits, words), dtype=_WORD_DTYPE)
        flips = np.zeros((self.num_measurements, words), dtype=_WORD_DTYPE)
        for op in self.ops:
            kind = op[0]
            if kind == "noise":
                apply_noise(op[1], frame_x, frame_z)
            elif kind == "measure":
                # The frame bit that anticommutes with the readout basis is
                # the measurement flip.
                _, qubits, x_basis, start = op
                source = frame_z if x_basis else frame_x
                flips[start : start + qubits.size] = source[qubits]
            else:
                apply_gate(op, frame_x, frame_z)
        return (
            xor_reduce_rows(flips, self.detector_groups),
            xor_reduce_rows(flips, self.observable_groups),
        )


def apply_gate(op: tuple, frame_x: np.ndarray, frame_z: np.ndarray) -> None:
    """Apply one gate or reset op to packed Pauli rows, in place.

    The rows may be error frames carried forward or detector sensitivities
    carried backward: every gate op is an involution up to sign (``S`` and
    ``S^dagger`` act alike on X/Z bits), so one update serves both
    directions, and a reset clears its rows either way.  Qubit fields may
    be index arrays or single indices.
    """
    kind = op[0]
    if kind == "cpauli":
        # The pairs of one op are disjoint, so each index array updates
        # distinct rows.
        _, controls, targets, check_x, check_z = op
        # X (or Y) on a control propagates the check Pauli onto its target.
        if check_x:
            frame_x[targets] ^= frame_x[controls]
        if check_z:
            frame_z[targets] ^= frame_x[controls]
        # A target frame anticommuting with the check Pauli kicks a Z onto
        # the control (phase kickback).  The update above leaves the
        # target's anticommutation bit unchanged, so it is read after the
        # fact without a copy.
        if check_x and check_z:
            frame_z[controls] ^= frame_x[targets] ^ frame_z[targets]
        elif check_x:
            frame_z[controls] ^= frame_z[targets]
        else:
            frame_z[controls] ^= frame_x[targets]
    elif kind == "reset":
        _, qubits = op
        frame_x[qubits] = 0
        frame_z[qubits] = 0
    elif kind == "swapxz":
        _, qubits = op
        swapped = frame_x[qubits]
        frame_x[qubits] = frame_z[qubits]
        frame_z[qubits] = swapped
    elif kind == "s":
        _, qubits = op
        frame_z[qubits] ^= frame_x[qubits]
    elif kind == "swap":
        _, firsts, seconds = op
        first_x, first_z = frame_x[firsts], frame_z[firsts]
        frame_x[firsts], frame_z[firsts] = frame_x[seconds], frame_z[seconds]
        frame_x[seconds], frame_z[seconds] = first_x, first_z


def _place_cpauli(moments: list[list], control: int, target: int, pauli: str) -> None:
    """Add one live ``CPAULI`` to the latest op it can join, or open a new op.

    The gate moves back over noise and ``CPAULI`` moments whose qubits are
    disjoint from its pair — it commutes with them — and joins the first
    ``CPAULI`` moment with its check Pauli; anything else stops it.
    """
    for moment in reversed(moments):
        kind, touched = moment[0], moment[1]
        if kind not in ("noise", "cpauli") or control in touched or target in touched:
            break
        if kind == "cpauli" and moment[4] == pauli:
            touched.add(control)
            touched.add(target)
            moment[2].append(control)
            moment[3].append(target)
            return
    moments.append(["cpauli", {control, target}, [control], [target], pauli])


def _compile_noise(run) -> list[tuple]:
    """The sampler's draw ops for one run of noise instructions, in circuit order."""
    return [_draw_op(instruction) for instruction in run]


def _draw_op(instruction) -> tuple:
    """The sampler's op for one noise instruction (thresholds precomputed)."""
    name = instruction.name
    if name in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
        letter = name[0]
        return (
            "flip",
            _qubit_array(instruction.qubits),
            float(instruction.probability),
            letter in ("X", "Y"),
            letter in ("Y", "Z"),
        )
    if name == "DEPOLARIZE1":
        return ("dep1", _qubit_array(instruction.qubits), float(instruction.probability))
    if name == "DEPOLARIZE2":
        return (
            "dep2",
            _qubit_array(instruction.qubits[::2]),
            _qubit_array(instruction.qubits[1::2]),
            float(instruction.probability),
        )
    if name == "PAULI_CHANNEL_1":
        p_x, p_y, p_z = (float(p) for p in instruction.probabilities)
        # One uniform draw per (qubit, shot): [0, px+py) flips X,
        # [px, px+py+pz) flips Z — the overlap [px, px+py) is Y.
        return ("pc1", _qubit_array(instruction.qubits), p_x + p_y, p_x, p_x + p_y + p_z)
    # PAULI_CHANNEL_2
    cumulative = np.cumsum(np.asarray(instruction.probabilities, dtype=np.float64))
    return (
        "pc2",
        _qubit_array(instruction.qubits[::2]),
        _qubit_array(instruction.qubits[1::2]),
        cumulative,
    )


def _draw_noise(ops: list, frame_x, frame_z, rng: np.random.Generator, shots: int) -> None:
    """Realise a run's noise ops in order for every shot and XOR the packed draws in."""
    for op in ops:
        kind = op[0]
        if kind == "flip":
            _, qubits, probability, flip_x, flip_z = op
            draws = pack_rows(rng.random((qubits.size, shots)) < probability)
            if flip_x:
                frame_x[qubits] ^= draws
            if flip_z:
                frame_z[qubits] ^= draws
        elif kind == "dep1":
            _, qubits, probability = op
            fired = rng.random((qubits.size, shots)) < probability
            which = rng.integers(0, 3, size=(qubits.size, shots))
            frame_x[qubits] ^= pack_rows(fired & (which != 2))  # X or Y
            frame_z[qubits] ^= pack_rows(fired & (which != 0))  # Y or Z
        elif kind == "dep2":
            _, firsts, seconds, probability = op
            fired = rng.random((firsts.size, shots)) < probability
            pair = rng.integers(1, 16, size=(firsts.size, shots))
            frame_x[firsts] ^= pack_rows(fired & _PAIR_FIRST_X[pair])
            frame_z[firsts] ^= pack_rows(fired & _PAIR_FIRST_Z[pair])
            frame_x[seconds] ^= pack_rows(fired & _PAIR_SECOND_X[pair])
            frame_z[seconds] ^= pack_rows(fired & _PAIR_SECOND_Z[pair])
        elif kind == "pc1":
            _, qubits, x_below, z_from, z_below = op
            draws = rng.random((qubits.size, shots))
            frame_x[qubits] ^= pack_rows(draws < x_below)
            frame_z[qubits] ^= pack_rows((draws >= z_from) & (draws < z_below))
        else:  # pc2
            _, firsts, seconds, cumulative = op
            draws = rng.random((firsts.size, shots))
            # Categorical draw over the 15 Pauli pairs (+ identity in the
            # remaining tail mass); choice k in 0..14 realises canonical pair
            # index k + 1.
            choice = np.searchsorted(cumulative, draws, side="right")
            pair = np.where(choice < 15, choice + 1, 0)
            frame_x[firsts] ^= pack_rows(_PAIR_FIRST_X[pair])
            frame_z[firsts] ^= pack_rows(_PAIR_FIRST_Z[pair])
            frame_x[seconds] ^= pack_rows(_PAIR_SECOND_X[pair])
            frame_z[seconds] ^= pack_rows(_PAIR_SECOND_Z[pair])


class FrameSampler:
    """Batched Pauli-frame sampler over one circuit (spec ``"frames"``).

    Construction compiles the circuit into a :class:`FrameProgram`;
    :meth:`sample` replays its ops once for all shots, drawing each noise
    instruction's realisations in circuit order.
    Instances are small and picklable, so the chunked process pool ships
    them to workers as-is.
    """

    def __init__(self, circuit: Circuit, dem=None) -> None:
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        self._program = FrameProgram(circuit, _compile_noise)

    def sample(
        self, shots: int, *, seed: "int | np.random.SeedSequence | None" = None
    ) -> SampleBatch:
        """Propagate ``shots`` frames through the circuit; see module docs."""
        shots = int(shots)
        if shots <= 0:
            detectors = np.zeros((0, self.num_detectors), dtype=np.uint8)
            return SampleBatch(
                detectors=detectors,
                observables=np.zeros((0, self.num_observables), dtype=np.uint8),
                packed_detectors=pack_rows(detectors),
            )
        rng = np.random.default_rng(seed)
        detector_rows, observable_rows = self._program.run(
            packed_words(shots),
            lambda ops, frame_x, frame_z: _draw_noise(ops, frame_x, frame_z, rng, shots),
        )
        detectors = np.ascontiguousarray(unpack_rows(detector_rows, shots).T)
        observables = np.ascontiguousarray(unpack_rows(observable_rows, shots).T)
        return SampleBatch(
            detectors=detectors,
            observables=observables,
            packed_detectors=pack_rows(detectors),
        )


class TableauSampler:
    """Per-shot stabilizer-tableau sampler (spec ``"tableau"``).

    Runs one full tableau simulation per shot and reports detector/
    observable values relative to the noiseless reference execution, which
    makes its batches directly comparable to the DEM and frame samplers
    (both report *flips*).  Slow by design — this is the trusted baseline,
    and the denominator of the frame propagator's benchmark speedup.
    """

    def __init__(self, circuit: Circuit, dem=None) -> None:
        self.circuit = circuit
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        # Detector/observable values of the noiseless reference run.  The
        # builders guarantee these are deterministic, so any fixed seed
        # yields the reference (individual measurements may still be
        # random; their detector parities are not).
        _, detector_values, observable_values = simulate_circuit(circuit.without_noise(), seed=0)
        self._reference_detectors = np.asarray(detector_values, dtype=np.uint8)
        self._reference_observables = np.array(
            [observable_values.get(index, 0) for index in range(self.num_observables)],
            dtype=np.uint8,
        )

    def sample(
        self, shots: int, *, seed: "int | np.random.SeedSequence | None" = None
    ) -> SampleBatch:
        shots = int(shots)
        rng = np.random.default_rng(seed)
        detectors = np.zeros((max(shots, 0), self.num_detectors), dtype=np.uint8)
        observables = np.zeros((max(shots, 0), self.num_observables), dtype=np.uint8)
        for shot in range(shots):
            # The shared generator threads one RNG stream through all shots.
            _, detector_values, observable_values = simulate_circuit(self.circuit, seed=rng)
            detectors[shot] = self._reference_detectors ^ np.asarray(
                detector_values, dtype=np.uint8
            )
            for index in range(self.num_observables):
                observables[shot, index] = self._reference_observables[index] ^ int(
                    observable_values.get(index, 0)
                )
        return SampleBatch(
            detectors=detectors,
            observables=observables,
            packed_detectors=pack_rows(detectors),
        )
