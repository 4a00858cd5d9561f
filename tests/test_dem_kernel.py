"""The sensitivity-replay DEM builder against the per-mechanism reference oracle.

:func:`repro.sim.dem.build_detector_error_model` carries detector and
observable sensitivities backward through the compiled circuit once, one
packed bit column per detector or observable, and reads every fault
mechanism's symptom off the snapshot at its noise run.  The
oracle in ``tests/oracles/dem_reference.py`` is the original builder: one
mechanism at a time through dict-backed sparse Paulis.  The two must agree
*exactly* — the same mechanisms in the same order, probabilities equal
under ``==`` — on random circuits covering every IR instruction and on the
paper's memory circuits.  The shared compile step also validates detector
and observable targets, so the DEM and the frame sampler refuse the same
malformed circuits with the same message.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.dem_reference import build_detector_error_model as reference_dem

from repro.api import codes
from repro.circuits import build_memory_experiment
from repro.circuits.circuit import Circuit, Instruction
from repro.io.stim_text import StimFormatError, parse_stim_circuit
from repro.noise import brisbane_noise
from repro.scheduling import google_surface_schedule, lowest_depth_schedule
from repro.sim.dem import build_detector_error_model
from repro.sim.frames import FrameProgram, FrameSampler

# Hypothesis favours the first entry of a ``sampled_from``, so noise and
# non-zero probabilities lead.
_PROBABILITIES = (0.01, 0.1, 1e-3, 0.25, 0.5, 0.0)
_CHANNEL_SHARES = (0.02, 1e-3, 0.05, 0.0, 0.0)
_ONE_QUBIT_NOISE = ("X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1", "PAULI_CHANNEL_1")
_TWO_QUBIT_NOISE = ("DEPOLARIZE2", "PAULI_CHANNEL_2")
_KINDS = (
    _TWO_QUBIT_NOISE
    + _ONE_QUBIT_NOISE
    + ("CPAULI", "H", "S", "SWAP", "X", "Y", "Z", "R", "RX", "M", "MX", "TICK")
)


@st.composite
def _instruction(draw, num_qubits: int) -> Instruction:
    kind = draw(st.sampled_from(_KINDS))
    qubit = st.integers(0, num_qubits - 1)
    # Instructions touch at most 8 qubits, which keeps the oracle quick on
    # wide circuits.
    width = min(num_qubits, 8)
    if kind == "TICK":
        return Instruction(kind)
    # Every instruction but CPAULI may repeat a qubit; the repeats act in
    # order, one occurrence after the other.
    unique = kind == "CPAULI" or draw(st.booleans())
    if kind in ("CPAULI", "SWAP") or kind in _TWO_QUBIT_NOISE:
        if num_qubits < 2:
            return Instruction("TICK")
        size = 2 if kind == "CPAULI" else 2 * draw(st.integers(1, width // 2))
        qubits = draw(st.lists(qubit, min_size=size, max_size=size, unique=unique))
    else:
        qubits = draw(st.lists(qubit, min_size=1, max_size=width + 2, unique=unique))
    qubits = tuple(qubits)
    if kind == "CPAULI":
        return Instruction(kind, qubits, pauli=draw(st.sampled_from("XYZ")))
    if kind == "PAULI_CHANNEL_1":
        shares = draw(st.lists(st.sampled_from(_CHANNEL_SHARES), min_size=3, max_size=3))
        return Instruction(kind, qubits, probabilities=tuple(shares))
    if kind == "PAULI_CHANNEL_2":
        shares = draw(st.lists(st.sampled_from(_CHANNEL_SHARES), min_size=15, max_size=15))
        return Instruction(kind, qubits, probabilities=tuple(shares))
    if kind in _ONE_QUBIT_NOISE or kind in _TWO_QUBIT_NOISE:
        return Instruction(kind, qubits, probability=draw(st.sampled_from(_PROBABILITIES)))
    return Instruction(kind, qubits)


@st.composite
def random_circuits(draw, min_qubits: int = 1, max_qubits: int = 10) -> Circuit:
    """Random circuits over the whole IR, ending in a readout of every qubit.

    Random detectors and (XOR-merged) observables range over the whole
    record; single-measurement detectors on the final readout make most
    faults visible.
    """
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    circuit = Circuit()
    circuit.append(Instruction("R", tuple(range(num_qubits))))
    for instruction in draw(st.lists(_instruction(num_qubits), min_size=4, max_size=40)):
        circuit.append(instruction)
    readout = circuit.measure(*range(num_qubits), basis=draw(st.sampled_from("ZX")))
    record = st.integers(0, circuit.num_measurements - 1)
    for targets in draw(st.lists(st.lists(record, max_size=4), max_size=12)):
        circuit.detector(targets)
    for measurement in readout[:12]:
        circuit.detector([measurement])
    for index, targets in draw(
        st.lists(st.tuples(st.integers(0, 2), st.lists(record, max_size=4)), max_size=3)
    ):
        circuit.observable(index, targets)
    return circuit


def _assert_same_model(circuit: Circuit) -> None:
    expected = reference_dem(circuit)
    actual = build_detector_error_model(circuit)
    assert (actual.num_detectors, actual.num_observables) == (
        expected.num_detectors,
        expected.num_observables,
    )
    # Dataclass equality compares probabilities with ``==``: bit-identical
    # merged floats, in the oracle's order.
    assert actual.mechanisms == expected.mechanisms


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(random_circuits())
    def test_random_circuits(self, circuit):
        _assert_same_model(circuit)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_circuits(min_qubits=65, max_qubits=72))
    def test_random_circuits_beyond_one_word_of_qubits(self, circuit):
        _assert_same_model(circuit)

    def test_many_mechanisms_span_words(self):
        """108 mechanisms whose channels straddle 64-bit word boundaries."""
        circuit = Circuit()
        circuit.append(Instruction("R", tuple(range(5))))
        circuit.append(Instruction("X_ERROR", (0, 1, 2), probability=0.01))
        for first, second in ((0, 1), (2, 3), (3, 4), (4, 0), (1, 1)):
            circuit.append(Instruction("DEPOLARIZE2", (first, second), probability=0.03))
            circuit.append(Instruction("CPAULI", (first, (first + 2) % 5), pauli="X"))
            circuit.append(Instruction("H", (first,)))
        circuit.append(Instruction("PAULI_CHANNEL_2", (0, 4, 2, 3), probabilities=(0.01,) * 15))
        circuit.append(Instruction("M", tuple(range(5))))
        for measurement in range(5):
            circuit.detector([measurement])
        circuit.observable(0, [0, 4])
        _assert_same_model(circuit)

    @pytest.mark.parametrize(
        "code, basis, rounds, scheduler",
        [
            ("surface:d=3", "Z", None, google_surface_schedule),
            ("surface:d=3", "X", None, google_surface_schedule),
            ("surface:d=5", "Z", 5, lowest_depth_schedule),
            ("bb_18", "Z", None, lowest_depth_schedule),
            ("color:d=3", "Z", None, lowest_depth_schedule),
        ],
    )
    def test_memory_circuits(self, code, basis, rounds, scheduler):
        built = codes.build(code)
        options = {} if rounds is None else {"noisy_rounds": rounds}
        experiment = build_memory_experiment(
            built, scheduler(built), brisbane_noise(), basis=basis, **options
        )
        _assert_same_model(experiment.circuit)


def _two_qubit_readout(extra: Instruction) -> Circuit:
    circuit = Circuit()
    circuit.append(Instruction("R", (0, 1)))
    circuit.append(Instruction("X_ERROR", (0,), probability=0.2))
    circuit.append(Instruction("X_ERROR", (1,), probability=0.1))
    circuit.append(Instruction("M", (0, 1)))
    circuit.append(Instruction("DETECTOR", targets=(0,)))
    circuit.instructions.append(extra)  # bypass append checks
    return circuit


class TestRecordTargets:
    """Targets outside ``[0, num_measurements)`` are refused by both paths."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                Instruction("DETECTOR", targets=(-1,)),
                r"^detector 1 targets measurement -1, outside the record \[0, 2\)$",
            ),
            (
                Instruction("DETECTOR", targets=(0, 3)),
                r"^detector 1 targets measurement 3, outside the record \[0, 2\)$",
            ),
            (
                Instruction("OBSERVABLE", targets=(1, -2), index=0),
                r"^observable 0 targets measurement -2, outside the record \[0, 2\)$",
            ),
        ],
    )
    def test_dem_and_frames_fail_the_same_way(self, extra, message):
        circuit = _two_qubit_readout(extra)
        with pytest.raises(ValueError, match=message):
            build_detector_error_model(circuit)
        with pytest.raises(ValueError, match=message):
            FrameSampler(circuit)

    def test_in_range_targets_accepted(self):
        circuit = _two_qubit_readout(Instruction("DETECTOR", targets=(1,)))
        dem = build_detector_error_model(circuit)
        assert [sorted(m.detectors) for m in dem.mechanisms] == [[0], [1]]
        assert FrameSampler(circuit).sample(8, seed=0).detectors.shape == (8, 2)


class TestRepeatedQubits:
    """A repeated qubit acts once per occurrence, in order, as in stim."""

    TEXT = (
        "R 0 1 2\n"
        "X_ERROR(0.1) 0 0 1\n"
        "H 0 0\n"
        "S 1 1\n"
        "SWAP 0 1 1 2\n"
        "DEPOLARIZE2(0.03) 0 1 1 2\n"
        "M 0 0 1 2\n"
        "DETECTOR rec[-4]\n"
        "DETECTOR rec[-3] rec[-2]\n"
        "DETECTOR rec[-1]\n"
        "OBSERVABLE_INCLUDE(0) rec[-2]\n"
    )

    def test_imported_circuit_matches_oracle(self):
        _assert_same_model(parse_stim_circuit(self.TEXT))

    @pytest.mark.parametrize(
        "text",
        [
            "R 0 1\nX_ERROR(0.1) 0\nH 0 0\nM 0 0 1\nDETECTOR rec[-3]\n",
            "R 0\nX_ERROR(0.2) 0\nM 0 0\nDETECTOR rec[-2]\nDETECTOR rec[-1]\n",
            "R 0 1 2\nZ_ERROR(0.1) 0\nH 0\nSWAP 0 1 1 2\nM 0 1 2\nDETECTOR rec[-1]\n",
        ],
    )
    def test_single_repeats_match_oracle(self, text):
        _assert_same_model(parse_stim_circuit(text))

    def test_controlled_gate_on_one_qubit_refused_at_import(self):
        with pytest.raises(StimFormatError, match=r"^line 2: CPAULI needs two distinct qubits$"):
            parse_stim_circuit("R 0\nCX 0 0\n")


class TestReplayEdgeCases:
    """Cases of the backward sensitivity replay, each against the oracle."""

    def test_fused_measurement_lists_a_qubit_twice(self):
        """``M 0`` then ``M 0 1`` fuse into one op with qubit 0 twice; both
        of its records feed detectors, so both must reach qubit 0's row."""
        circuit = parse_stim_circuit(
            "R 0 1\nX_ERROR(0.1) 0\nX_ERROR(0.2) 1\nM 0\nM 0 1\n"
            "DETECTOR rec[-3]\nDETECTOR rec[-2]\nDETECTOR rec[-1]\n"
        )
        measures = [op for op in FrameProgram(circuit, list).ops if op[0] == "measure"]
        assert [op[1].tolist() for op in measures] == [[0, 0, 1]]
        _assert_same_model(circuit)
        # Qubit 0's flip reaches detectors 0 and 1.
        assert [sorted(m.detectors) for m in build_detector_error_model(circuit).mechanisms] == [
            [0, 1],
            [2],
        ]

    def test_noise_after_the_last_measurement_is_dropped(self):
        circuit = parse_stim_circuit(
            "R 0 1\nDEPOLARIZE1(0.1) 0 1\nM 0 1\nDETECTOR rec[-2]\nOBSERVABLE_INCLUDE(0) rec[-1]\n"
            "X_ERROR(0.2) 0 1\nDEPOLARIZE2(0.05) 0 1\n"
        )
        _assert_same_model(circuit)
        assert build_detector_error_model(circuit).num_mechanisms == 2

    def test_noise_run_with_only_zero_probabilities(self):
        circuit = Circuit()
        circuit.append(Instruction("R", (0, 1)))
        circuit.append(Instruction("H", (0,)))
        for instruction in (
            Instruction("X_ERROR", (0, 1), probability=0.0),
            Instruction("DEPOLARIZE1", (1,), probability=0.0),
            Instruction("PAULI_CHANNEL_1", (0,), probabilities=(0.0, 0.0, 0.0)),
            Instruction("DEPOLARIZE2", (0, 1), probability=0.0),
        ):
            circuit.append(instruction)
        circuit.append(Instruction("CPAULI", (0, 1), pauli="X"))
        circuit.append(Instruction("Z_ERROR", (0,), probability=0.125))
        circuit.append(Instruction("H", (0,)))
        circuit.append(Instruction("M", (0, 1)))
        circuit.detector([0])
        circuit.detector([1])
        _assert_same_model(circuit)
        assert [m.probability for m in build_detector_error_model(circuit).mechanisms] == [0.125]

    def test_observable_bits_in_the_second_word(self):
        """64 detectors fill the first word; the observables sit in the second."""
        circuit = Circuit()
        circuit.append(Instruction("R", tuple(range(66))))
        circuit.append(Instruction("DEPOLARIZE1", tuple(range(66)), probability=0.03))
        circuit.append(Instruction("CPAULI", (64, 3), pauli="X"))
        circuit.append(Instruction("DEPOLARIZE2", (65, 1, 2, 64), probability=0.015))
        circuit.append(Instruction("M", tuple(range(66))))
        for measurement in range(64):
            circuit.detector([measurement])
        circuit.observable(0, [64])
        circuit.observable(1, [65, 0])
        _assert_same_model(circuit)
        dem = build_detector_error_model(circuit)
        assert (dem.num_detectors, dem.num_observables) == (64, 2)
        assert {o for m in dem.mechanisms for o in m.observables} == {0, 1}
