"""Tests for the bit-packed GF(2) backend (repro.sim.bitops) and its call sites."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_memory_experiment
from repro.pauli.gf2 import gf2_matmul
from repro.scheduling import lowest_depth_schedule
from repro.sim import build_detector_error_model, sample_detector_error_model
from repro.sim.bitops import (
    pack_rows,
    packed_matmul_parity,
    packed_words,
    popcount,
    unpack_rows,
    xor_reduce_rows,
)


class TestPackUnpack:
    @pytest.mark.parametrize("num_bits", [0, 1, 7, 8, 63, 64, 65, 128, 130])
    def test_roundtrip(self, num_bits):
        rng = np.random.default_rng(num_bits)
        bits = (rng.random((9, num_bits)) < 0.4).astype(np.uint8)
        packed = pack_rows(bits)
        assert packed.shape == (9, packed_words(num_bits))
        assert np.array_equal(unpack_rows(packed, num_bits), bits)

    def test_word_layout_is_little_endian(self):
        """Bit ``i`` of word ``j`` is column ``64 j + i`` — platform-pinned."""
        bits = np.zeros((3, 70), dtype=np.uint8)
        bits[0, 0] = 1
        bits[1, 63] = 1
        bits[2, 69] = 1  # bit 5 of the second word
        packed = pack_rows(bits)
        assert packed.dtype == np.dtype("<u8")
        assert packed[0].tolist() == [1, 0]
        assert packed[1].tolist() == [1 << 63, 0]
        assert packed[2].tolist() == [0, 1 << 5]

    def test_padding_bits_are_zero(self):
        packed = pack_rows(np.ones((2, 3), dtype=np.uint8))
        assert packed[0, 0] == 0b111

    def test_pack_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pack_rows(np.ones(5, dtype=np.uint8))

    def test_unpack_rejects_too_few_words(self):
        with pytest.raises(ValueError):
            unpack_rows(np.zeros((2, 1), dtype=np.uint64), 65)


class TestKernels:
    def test_popcount_matches_python(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        expected = [bin(int(w)).count("1") for w in words]
        assert popcount(words).tolist() == expected

    def test_xor_reduce_rows(self):
        rng = np.random.default_rng(1)
        bits = (rng.random((6, 100)) < 0.5).astype(np.uint8)
        packed = pack_rows(bits)
        groups = [[0, 2, 5], [], [1], list(range(6))]
        reduced = xor_reduce_rows(packed, groups)
        for row, group in zip(reduced, groups):
            expected = np.zeros(100, dtype=np.uint8)
            for index in group:
                expected ^= bits[index]
            assert np.array_equal(unpack_rows(row.reshape(1, -1), 100)[0], expected)

    @pytest.mark.parametrize("shape", [(5, 70, 9), (40, 200, 33), (1, 64, 1)])
    def test_packed_matmul_parity_matches_dense(self, shape):
        n, k, m = shape
        rng = np.random.default_rng(k)
        a = (rng.random((n, k)) < 0.5).astype(np.uint8)
        b = (rng.random((k, m)) < 0.5).astype(np.uint8)
        expected = ((a.astype(np.int64) @ b.astype(np.int64)) % 2).astype(np.uint8)
        assert np.array_equal(packed_matmul_parity(pack_rows(a), pack_rows(b.T)), expected)

    def test_gf2_matmul_routes_large_products_identically(self):
        # Big enough to cross the packed-path threshold in gf2_matmul.
        rng = np.random.default_rng(3)
        a = (rng.random((80, 90)) < 0.5).astype(np.uint8)
        b = (rng.random((90, 80)) < 0.5).astype(np.uint8)
        expected = ((a.astype(np.int64) @ b.astype(np.int64)) % 2).astype(np.uint8)
        assert np.array_equal(gf2_matmul(a, b), expected)


class TestSamplerBackends:
    @pytest.fixture(scope="class")
    def dem(self, surface_d3, brisbane):
        experiment = build_memory_experiment(
            surface_d3, lowest_depth_schedule(surface_d3), brisbane, basis="Z"
        )
        return build_detector_error_model(experiment.circuit)

    def test_packed_bit_identical_to_dense(self, dem):
        """Acceptance: same stream -> same faults, detectors, observables."""
        dense = sample_detector_error_model(dem, 700, seed=17, backend="dense")
        packed = sample_detector_error_model(dem, 700, seed=17, backend="packed")
        # Both backends XOR the sampler's one fault draw for this stream.
        fired = np.random.default_rng(17).random((700, dem.num_mechanisms)) < dem.priors
        expected = (fired.astype(np.int64) @ dem.check_matrix.T.astype(np.int64)) % 2
        assert np.array_equal(dense.detectors, expected.astype(np.uint8))
        assert np.array_equal(dense.detectors, packed.detectors)
        assert np.array_equal(dense.observables, packed.observables)
        assert dense.packed_detectors is None
        assert np.array_equal(
            unpack_rows(packed.packed_detectors, dem.num_detectors), packed.detectors
        )

    def test_packed_is_default_backend(self, dem):
        batch = sample_detector_error_model(dem, 10, seed=0)
        assert batch.packed_detectors is not None

    def test_zero_shots(self, dem):
        batch = sample_detector_error_model(dem, 0, seed=0)
        assert batch.detectors.shape == (0, dem.num_detectors)
        assert batch.packed_detectors.shape == (0, packed_words(dem.num_detectors))

    def test_unknown_backend_rejected(self, dem):
        with pytest.raises(ValueError, match="backend"):
            sample_detector_error_model(dem, 5, seed=0, backend="sparse")

    def test_decode_batch_packed_matches_decode_batch(self, dem):
        from repro.api import registries

        batch = sample_detector_error_model(dem, 300, seed=4)
        for name in ("mwpm", "lookup", "unionfind"):
            decoder = registries.decoders.build(name)(dem)
            dense_predictions = decoder.decode_batch(batch.detectors)
            packed_predictions = decoder.decode_batch_packed(batch.packed_detectors)
            assert np.array_equal(dense_predictions, packed_predictions), name


# ----------------------------------------------------------------------
# Randomized property tests over irregular widths
# ----------------------------------------------------------------------
#: Widths straddling the word boundaries: single bit, word -1 / exact /
#: word +1, and just under two words.
IRREGULAR_WIDTHS = (1, 63, 64, 65, 127)


def _random_bits(rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < 0.5).astype(np.uint8)


class TestBitopsProperties:
    """Hypothesis-driven properties of the packed kernels.

    Shapes are drawn around the 64-bit word boundaries (the historically
    bug-prone widths); contents are derived from a drawn seed so numpy does
    the heavy lifting and shrinking stays fast.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        cols=st.sampled_from(IRREGULAR_WIDTHS),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pack_unpack_roundtrip(self, cols, rows, seed):
        bits = _random_bits(rows, cols, seed)
        packed = pack_rows(bits)
        assert packed.shape == (rows, packed_words(cols))
        assert packed.dtype == np.dtype("<u8")
        assert np.array_equal(unpack_rows(packed, cols), bits)

    @settings(max_examples=60, deadline=None)
    @given(
        cols=st.sampled_from(IRREGULAR_WIDTHS),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_popcount_matches_dense_row_sums(self, cols, rows, seed):
        """Padding bits beyond the last column must never leak into counts."""
        bits = _random_bits(rows, cols, seed)
        per_row = popcount(pack_rows(bits)).sum(axis=1)
        assert np.array_equal(per_row, bits.sum(axis=1))

    @settings(max_examples=40, deadline=None)
    @given(
        shared=st.sampled_from(IRREGULAR_WIDTHS),
        n=st.integers(1, 10),
        m=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_matmul_matches_dense_gf2_matmul(self, shared, n, m, seed):
        a = _random_bits(n, shared, seed)
        b = _random_bits(m, shared, seed ^ 0xA5A5A5A5)
        packed = packed_matmul_parity(pack_rows(a), pack_rows(b))
        dense = ((a.astype(np.int64) @ b.T.astype(np.int64)) % 2).astype(np.uint8)
        assert np.array_equal(packed, dense)
        assert np.array_equal(packed, gf2_matmul(a, b.T))

    @settings(max_examples=40, deadline=None)
    @given(
        cols=st.sampled_from(IRREGULAR_WIDTHS),
        rows=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        groups=st.lists(st.lists(st.integers(0, 9), max_size=6), min_size=1, max_size=5),
    )
    def test_xor_reduce_matches_dense_parity(self, cols, rows, seed, groups):
        bits = _random_bits(rows, cols, seed)
        groups = [[g for g in group if g < rows] for group in groups]
        reduced = xor_reduce_rows(pack_rows(bits), groups)
        for row, group in zip(reduced, groups):
            if group:
                expected = bits[np.asarray(group, dtype=int)].sum(axis=0) % 2
            else:
                expected = np.zeros(cols)
            assert np.array_equal(unpack_rows(row.reshape(1, -1), cols)[0], expected)
