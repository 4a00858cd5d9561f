"""Batched Pauli-frame propagation: circuit-level sampling at scale.

A Pauli frame tracks, per qubit, the X/Z deviation of a noisy run from the
noiseless reference execution of the same circuit.  For stochastic Pauli
noise on Clifford circuits this is exact (the same fact the DEM
decomposition rests on, :mod:`repro.sim.propagation`), but where the DEM
linearises each fault independently, the frame simulator carries the *full
correlated* frame of every shot through the circuit — so it stays correct
for workloads the DEM cannot express, at batch speed.

:class:`FrameSampler` carries ``N`` shots at once: the X/Z frames are
``(num_qubits, ceil(N / 64))`` little-endian ``uint64`` arrays in the
:mod:`repro.sim.bitops` layout — shots packed along the word axis — and
every circuit instruction becomes one vectorised pass over those rows:

* Clifford gates permute/XOR whole frame rows (H swaps a qubit's X and Z
  rows; ``CPAULI`` XORs the control's X row into the target per the same
  conjugation rules as :func:`repro.sim.propagation._apply_instruction`);
* noise instructions draw their Bernoulli/categorical realisations for all
  shots in one ``rng`` call and XOR the packed draws into the frame rows;
* measurements snapshot the measured qubit's X row (Z row for ``MX``) —
  the frame bit that anticommutes with the readout basis *is* the
  measurement flip — and resets clear the frame rows.

Detector/observable parities then reduce over the recorded measurement
rows with :func:`repro.sim.bitops.xor_reduce_rows`, still packed, and the
batch hands the decoder its syndromes in packed form with zero repacking.

:class:`TableauSampler` is the per-shot reference on the same interface: a
full stabilizer-tableau run per shot (spec ``"tableau"``, or
``"tableau:dense"`` for the dense storage backend).  It is the slow,
maximally-trusted baseline the frame propagator is benchmarked and
cross-validated against.

Determinism: a sampler's output is a pure function of ``(shots, seed)``.
All randomness flows through one ``np.random.default_rng(seed)`` generator
consumed in circuit order, so fixed seeds give bit-identical batches —
which is what lets the chunked parallel engine (:mod:`repro.parallel`)
keep its worker-count-invariance and cache guarantees unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.bitops import pack_rows, packed_words, unpack_rows, xor_reduce_rows
from repro.sim.sampler import SampleBatch
from repro.sim.tableau import simulate_circuit

__all__ = ["FrameSampler", "TableauSampler"]

_WORD_DTYPE = np.dtype("<u8")

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


def _qubit_array(qubits) -> np.ndarray:
    array = np.asarray(qubits, dtype=np.intp)
    if array.size != np.unique(array).size:
        raise ValueError(f"instruction repeats a qubit: {list(qubits)}")
    return array


class FrameSampler:
    """Batched Pauli-frame sampler over one circuit (spec ``"frames"``).

    Construction compiles the circuit IR into a flat op list (index arrays,
    check-Pauli bits and channel thresholds precomputed); :meth:`sample`
    replays it once per instruction for all shots.  Instances are small and
    picklable, so the chunked process pool ships them to workers as-is.
    """

    def __init__(self, circuit: Circuit, dem=None) -> None:
        self.num_qubits = circuit.num_qubits
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        self.num_measurements = circuit.num_measurements
        self._detector_groups = [list(members) for members in circuit.detectors()]
        observables = circuit.observables()
        self._observable_groups = [
            list(observables.get(index, ())) for index in range(self.num_observables)
        ]
        self._ops = self._compile(circuit)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, circuit: Circuit) -> list:
        ops: list[tuple] = []
        measurement_index = 0
        for instruction in circuit.instructions:
            name = instruction.name
            if name == "H":
                ops.append(("swapxz", _qubit_array(instruction.qubits)))
            elif name == "S":
                ops.append(("s", _qubit_array(instruction.qubits)))
            elif name == "CPAULI":
                control, target = instruction.qubits
                check_x, check_z = _CHECK_BITS[instruction.pauli]
                ops.append(("cpauli", control, target, check_x, check_z))
            elif name == "SWAP":
                ops.append(
                    (
                        "swap",
                        _qubit_array(instruction.qubits[::2]),
                        _qubit_array(instruction.qubits[1::2]),
                    )
                )
            elif name in ("R", "RX"):
                ops.append(("reset", _qubit_array(instruction.qubits)))
            elif name in ("M", "MX"):
                ops.append(
                    (
                        "measure",
                        _qubit_array(instruction.qubits),
                        name == "MX",
                        measurement_index,
                    )
                )
                measurement_index += len(instruction.qubits)
            elif name in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
                letter = name[0]
                ops.append(
                    (
                        "flip",
                        _qubit_array(instruction.qubits),
                        float(instruction.probability),
                        letter in ("X", "Y"),
                        letter in ("Y", "Z"),
                    )
                )
            elif name == "DEPOLARIZE1":
                ops.append(
                    ("dep1", _qubit_array(instruction.qubits), float(instruction.probability))
                )
            elif name == "DEPOLARIZE2":
                ops.append(
                    (
                        "dep2",
                        _qubit_array(instruction.qubits[::2]),
                        _qubit_array(instruction.qubits[1::2]),
                        float(instruction.probability),
                    )
                )
            elif name == "PAULI_CHANNEL_1":
                p_x, p_y, p_z = (float(p) for p in instruction.probabilities)
                # One uniform draw per (qubit, shot): [0, px+py) flips X,
                # [px, px+py+pz) flips Z — the overlap [px, px+py) is Y.
                ops.append(
                    (
                        "pc1",
                        _qubit_array(instruction.qubits),
                        p_x + p_y,
                        p_x,
                        p_x + p_y + p_z,
                    )
                )
            elif name == "PAULI_CHANNEL_2":
                cumulative = np.cumsum(
                    np.asarray(instruction.probabilities, dtype=np.float64)
                )
                ops.append(
                    (
                        "pc2",
                        _qubit_array(instruction.qubits[::2]),
                        _qubit_array(instruction.qubits[1::2]),
                        cumulative,
                    )
                )
            # X/Y/Z gates commute with the frame up to sign; TICK/DETECTOR/
            # OBSERVABLE are annotations.  All are no-ops here.
        return ops

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
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
        words = packed_words(shots)
        frame_x = np.zeros((self.num_qubits, words), dtype=_WORD_DTYPE)
        frame_z = np.zeros((self.num_qubits, words), dtype=_WORD_DTYPE)
        flips = np.zeros((self.num_measurements, words), dtype=_WORD_DTYPE)
        for op in self._ops:
            kind = op[0]
            if kind == "measure":
                _, qubits, x_basis, start = op
                source = frame_z if x_basis else frame_x
                flips[start : start + qubits.size] = source[qubits]
            elif kind == "cpauli":
                _, control, target, check_x, check_z = op
                target_x_old = frame_x[target].copy()
                target_z_old = frame_z[target].copy()
                if check_x:
                    frame_x[target] ^= frame_x[control]
                if check_z:
                    frame_z[target] ^= frame_x[control]
                # A target frame anticommuting with the check Pauli kicks a
                # Z onto the control (same rule as propagation).
                if check_x and check_z:
                    frame_z[control] ^= target_x_old ^ target_z_old
                elif check_x:
                    frame_z[control] ^= target_z_old
                else:
                    frame_z[control] ^= target_x_old
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
            elif kind == "reset":
                _, qubits = op
                frame_x[qubits] = 0
                frame_z[qubits] = 0
            elif kind == "flip":
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
            elif kind == "pc2":
                _, firsts, seconds, cumulative = op
                draws = rng.random((firsts.size, shots))
                # Categorical draw over the 15 Pauli pairs (+ identity in
                # the remaining tail mass); choice k in 0..14 realises
                # canonical pair index k + 1.
                choice = np.searchsorted(cumulative, draws, side="right")
                pair = np.where(choice < 15, choice + 1, 0)
                frame_x[firsts] ^= pack_rows(_PAIR_FIRST_X[pair])
                frame_z[firsts] ^= pack_rows(_PAIR_FIRST_Z[pair])
                frame_x[seconds] ^= pack_rows(_PAIR_SECOND_X[pair])
                frame_z[seconds] ^= pack_rows(_PAIR_SECOND_Z[pair])
        detector_rows = xor_reduce_rows(flips, self._detector_groups)
        observable_rows = xor_reduce_rows(flips, self._observable_groups)
        detectors = np.ascontiguousarray(unpack_rows(detector_rows, shots).T)
        observables = np.ascontiguousarray(unpack_rows(observable_rows, shots).T)
        return SampleBatch(
            detectors=detectors,
            observables=observables,
            packed_detectors=pack_rows(detectors),
        )


class TableauSampler:
    """Per-shot stabilizer-tableau sampler (spec ``"tableau[:mode]"``).

    Runs one full tableau simulation per shot and reports detector/
    observable values relative to the noiseless reference execution, which
    makes its batches directly comparable to the DEM and frame samplers
    (both report *flips*).  Slow by design — this is the trusted baseline,
    and the denominator of the frame propagator's benchmark speedup.
    """

    def __init__(self, circuit: Circuit, dem=None, mode: str = "packed") -> None:
        self.circuit = circuit
        self.mode = mode
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        # Detector/observable values of the noiseless reference run.  The
        # builders guarantee these are deterministic, so any fixed seed
        # yields the reference (individual measurements may still be
        # random; their detector parities are not).
        _, detector_values, observable_values = simulate_circuit(
            circuit.without_noise(), seed=0, mode=mode
        )
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
            _, detector_values, observable_values = simulate_circuit(
                self.circuit, seed=rng, mode=self.mode
            )
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
