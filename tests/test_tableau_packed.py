"""Conformance of the bit-packed tableau backend against the dense reference.

Two layers of pinning:

* **Kernel properties** — hypothesis tests of the new packed row-operation
  kernels (``rowsum_g_exponents``, ``get_bit_column``, ``xor_bit_column``)
  against a scalar reimplementation of the Aaronson–Gottesman ``g``
  function, at widths straddling the word boundary (1/63/64/65/127).
* **Full-simulator conformance** — the packed :class:`TableauSimulator` and
  the dense oracle ``DenseTableauSimulator``
  (``tests/oracles/tableau_reference.py``) must be *bit-identical* on whole
  circuits: same measurement record, same detector/observable values, same
  final tableau, for the same seed.  This holds because both backends share
  one RNG-consumption skeleton; these tests are the regression net pinning
  that contract, including on random Clifford+noise circuits and on
  circuits wider than one 64-bit word.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.tableau_reference import DenseTableauSimulator, simulate_circuit_dense

from repro.api.pipeline import Pipeline
from repro.api.spec import Budget, RunSpec
from repro.circuits.circuit import Circuit, Instruction
from repro.sim.bitops import (
    get_bit_column,
    pack_rows,
    rowsum_g_exponents,
    xor_bit_column,
)
from repro.sim.tableau import TableauSimulator, simulate_circuit

#: Widths straddling the uint64 word boundary (the bitops suite convention).
WIDTHS = [1, 63, 64, 65, 127]


def _g_reference(x1: int, z1: int, x2: int, z2: int) -> int:
    """Scalar Aaronson–Gottesman phase function (the pre-packing reference)."""
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:
        return z2 - x2
    if x1 == 1 and z1 == 0:
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)


def _random_bits(rng, shape):
    return (rng.random(shape) < 0.5).astype(np.uint8)


class TestRowsumKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        width=st.sampled_from(WIDTHS),
        rows=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_g_sum(self, width, rows, seed):
        rng = np.random.default_rng(seed)
        source_x = _random_bits(rng, (1, width))
        source_z = _random_bits(rng, (1, width))
        target_x = _random_bits(rng, (rows, width))
        target_z = _random_bits(rng, (rows, width))
        expected = np.array(
            [
                sum(
                    _g_reference(
                        int(source_x[0, q]),
                        int(source_z[0, q]),
                        int(target_x[r, q]),
                        int(target_z[r, q]),
                    )
                    for q in range(width)
                )
                for r in range(rows)
            ],
            dtype=np.int64,
        )
        got = rowsum_g_exponents(
            pack_rows(source_x)[0],
            pack_rows(source_z)[0],
            pack_rows(target_x),
            pack_rows(target_z),
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_extremes(self, width):
        """All-Y source against all-X / all-Z targets hits the +/-1 branches."""
        ones = np.ones((1, width), dtype=np.uint8)
        zeros = np.zeros((1, width), dtype=np.uint8)
        y_x, y_z = pack_rows(ones), pack_rows(ones)
        # g(Y, X) = -1 per qubit; g(Y, Z) = +1 per qubit.
        assert rowsum_g_exponents(y_x[0], y_z[0], pack_rows(ones), pack_rows(zeros)) == -width
        assert rowsum_g_exponents(y_x[0], y_z[0], pack_rows(zeros), pack_rows(ones)) == width
        # g(anything, I) = 0 and g(I, anything) = 0.
        assert rowsum_g_exponents(y_x[0], y_z[0], pack_rows(zeros), pack_rows(zeros)) == 0
        i_x, i_z = pack_rows(zeros), pack_rows(zeros)
        assert rowsum_g_exponents(i_x[0], i_z[0], pack_rows(ones), pack_rows(ones)) == 0


class TestBitColumns:
    @settings(max_examples=25, deadline=None)
    @given(
        width=st.sampled_from(WIDTHS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_get_and_xor_roundtrip(self, width, seed):
        rng = np.random.default_rng(seed)
        bits = _random_bits(rng, (7, width))
        packed = pack_rows(bits)
        column = int(rng.integers(0, width))
        assert np.array_equal(get_bit_column(packed, column), bits[:, column])
        values = _random_bits(rng, 7)
        xor_bit_column(packed, column, values)
        bits[:, column] ^= values
        assert np.array_equal(get_bit_column(packed, column), bits[:, column])
        # Other columns untouched.
        for other in {0, width - 1, column} - {column}:
            assert np.array_equal(get_bit_column(packed, other), bits[:, other])


def _random_circuit(num_qubits: int, seed: int, *, with_noise: bool) -> Circuit:
    """A random Clifford(+noise) circuit ending in a full measurement."""
    rng = np.random.default_rng(seed)
    circuit = Circuit()
    circuit.append(Instruction("R", tuple(range(num_qubits))))
    gate_pool = ["H", "S", "X", "Y", "Z", "CPAULI", "SWAP", "M", "MX", "R", "RX"]
    if with_noise:
        gate_pool += ["X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1", "DEPOLARIZE2"]
    for _ in range(60):
        name = gate_pool[rng.integers(0, len(gate_pool))]
        qubit = int(rng.integers(0, num_qubits))
        if name == "CPAULI" and num_qubits >= 2:
            other = int(rng.integers(0, num_qubits - 1))
            other += other >= qubit
            pauli = "XYZ"[rng.integers(0, 3)]
            circuit.append(Instruction("CPAULI", (qubit, other), pauli=pauli))
        elif name in ("SWAP", "DEPOLARIZE2") and num_qubits >= 2:
            other = int(rng.integers(0, num_qubits - 1))
            other += other >= qubit
            extra = {"probability": 0.3} if name == "DEPOLARIZE2" else {}
            circuit.append(Instruction(name, (qubit, other), **extra))
        elif name in ("X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1"):
            circuit.append(Instruction(name, (qubit,), probability=0.4))
        elif name in ("H", "S", "X", "Y", "Z", "M", "MX", "R", "RX"):
            circuit.append(Instruction(name, (qubit,)))
    circuit.append(Instruction("M", tuple(range(num_qubits))))
    return circuit


class TestPackedDenseConformance:
    @pytest.mark.parametrize("num_qubits", [1, 2, 5, 63, 65])
    @pytest.mark.parametrize("with_noise", [False, True])
    def test_random_circuits_bit_identical(self, num_qubits, with_noise):
        for seed in range(3):
            circuit = _random_circuit(num_qubits, seed, with_noise=with_noise)
            packed = simulate_circuit(circuit, seed=seed + 100)
            dense = simulate_circuit_dense(circuit, seed=seed + 100)
            assert packed == dense

    def test_final_tableau_state_matches(self):
        circuit = _random_circuit(65, 9, with_noise=True)
        packed = TableauSimulator(65, seed=4)
        dense = DenseTableauSimulator(65, seed=4)
        packed.run(circuit)
        dense.run(circuit)
        assert packed.measurement_record == dense.measurement_record
        assert np.array_equal(packed.x_bits, dense.x_bits)
        assert np.array_equal(packed.z_bits, dense.z_bits)
        assert np.array_equal(packed.signs, dense.signs)

    @pytest.mark.parametrize(
        "code,noise,rounds",
        [
            ("surface:d=3", "brisbane", 1),
            ("surface:d=3", "biased:p=0.01,eta=10", 2),
            ("color", "scaled:p=0.005", 1),
        ],
    )
    def test_experiment_circuits_bit_identical(self, code, noise, rounds):
        """The conformance corpus: real memory-experiment circuits."""
        pipeline = Pipeline(
            RunSpec(
                code=code,
                noise=noise,
                scheduler="lowest_depth",
                decoder="lookup",
                rounds=rounds,
                budget=Budget(shots=1),
            )
        )
        for basis in ("Z", "X"):
            circuit = pipeline.circuit[basis]
            for seed in (0, 1, 2):
                assert simulate_circuit(circuit, seed=seed) == simulate_circuit_dense(
                    circuit, seed=seed
                )

    def test_wide_circuit_crosses_word_boundary(self):
        """d=7 surface (97 qubits) exercises multi-word rows end to end."""
        pipeline = Pipeline(RunSpec(code="surface:d=7", noise="noiseless", budget=Budget(shots=1)))
        circuit = pipeline.circuit["Z"]
        packed = simulate_circuit(circuit, seed=11)
        dense = simulate_circuit_dense(circuit, seed=11)
        assert packed == dense
        # Noiseless detectors are deterministic zeros in both backends.
        assert not any(packed[1])

    def test_forced_measurement_consumes_no_rng(self):
        """``forced`` outcomes skip the RNG draw identically in both backends."""
        for cls in (TableauSimulator, DenseTableauSimulator):
            simulator = cls(1, seed=0)
            simulator.hadamard(0)
            assert simulator.measure_z(0, forced=1) == 1
            # The next random draw is the stream's first: pin it across backends.
            follow_up = cls(1, seed=0)
            follow_up.hadamard(0)
            follow_up.measure_z(0, forced=0)
            assert simulator.rng.integers(0, 2) == follow_up.rng.integers(0, 2)
