"""Property-based tests over randomly generated CSS codes.

Random hypergraph products of random classical parity-check matrices give an
endless supply of valid CSS codes; these tests assert the structural
invariants every layer of the library must uphold for *any* such code:
parameter counting, logical-operator commutation, partition validity,
schedule validity and noiseless-detector determinism.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.circuits import build_memory_experiment
from repro.codes import hypergraph_product_code
from repro.noise import depolarizing_noise
from repro.pauli import commutes
from repro.pauli.gf2 import gf2_rank
from repro.scheduling import (
    lowest_depth_schedule,
    partition_stabilizers,
    trivial_schedule,
    validate_partition,
)
from repro.sim import simulate_circuit

# Small random classical parity-check matrices (non-zero rows not required;
# the HGP construction tolerates arbitrary binary seeds).
classical_checks = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 3), st.integers(2, 4)),
    elements=st.integers(0, 1),
).filter(lambda h: h.any())


@st.composite
def random_hgp_codes(draw):
    h1 = draw(classical_checks)
    h2 = draw(classical_checks)
    return hypergraph_product_code(h1, h2, name="random_hgp"), h1, h2


class TestRandomHGPCodes:
    @given(random_hgp_codes())
    @settings(max_examples=15, deadline=None)
    def test_parameter_counting(self, code_and_seeds):
        code, h1, h2 = code_and_seeds
        n1, n2 = h1.shape[1], h2.shape[1]
        m1, m2 = h1.shape[0], h2.shape[0]
        assert code.num_qubits == n1 * n2 + m1 * m2
        # k = n - rank(Hx) - rank(Hz) by construction of the base class.
        assert code.num_logical_qubits == code.num_qubits - code.num_stabilizers
        assert code.num_logical_qubits >= 0

    @given(random_hgp_codes())
    @settings(max_examples=10, deadline=None)
    def test_logical_operators_well_formed(self, code_and_seeds):
        code, _, _ = code_and_seeds
        xs, zs = code.logical_xs, code.logical_zs
        assert len(xs) == len(zs) == code.num_logical_qubits
        for logical in xs + zs:
            for stabilizer in code.stabilizers:
                assert commutes(logical, stabilizer)
        for i, lx in enumerate(xs):
            for j, lz in enumerate(zs):
                assert commutes(lx, lz) == (i != j)

    @given(random_hgp_codes())
    @settings(max_examples=10, deadline=None)
    def test_partitions_and_schedules_valid(self, code_and_seeds):
        code, _, _ = code_and_seeds
        partitions = partition_stabilizers(code)
        validate_partition(code, partitions)
        assert len(partitions) <= 2  # CSS codes never need more than two blocks
        lowest = lowest_depth_schedule(code)
        lowest.validate()
        trivial = trivial_schedule(code)
        trivial.validate()
        assert lowest.depth <= trivial.depth

    @given(random_hgp_codes(), st.integers(0, 1000))
    @settings(max_examples=6, deadline=None)
    def test_noiseless_detectors_deterministic(self, code_and_seeds, seed):
        code, _, _ = code_and_seeds
        if code.num_logical_qubits == 0:
            return
        noise = depolarizing_noise(0.01, 0.001)
        schedule = lowest_depth_schedule(code)
        experiment = build_memory_experiment(code, schedule, noise, basis="Z")
        _, detectors, observables = simulate_circuit(
            experiment.circuit.without_noise(), seed=seed
        )
        assert all(value == 0 for value in detectors)
        assert all(value == 0 for value in observables.values())

    @given(classical_checks)
    @settings(max_examples=20, deadline=None)
    def test_hgp_logical_count_formula(self, h):
        """k = (n - r)^2 + (m - r)^2 for the product of a seed with itself."""
        code = hypergraph_product_code(h, h)
        rows, cols = h.shape
        rank = gf2_rank(h)
        assert code.num_logical_qubits == (cols - rank) ** 2 + (rows - rank) ** 2
