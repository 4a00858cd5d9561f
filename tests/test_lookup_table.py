"""The vectorised lookup table against the loop it replaced.

The oracle (``oracles.lookup_reference``) walks every combination of up to
``max_order`` mechanisms in a Python loop and keeps, per dense syndrome,
the first most likely pattern.  The production build must hold the same
mapping — the same reachable syndromes and the same correction for each —
and so make the same predictions.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.lookup_reference import ReferenceLookupDecoder
from test_dem_model import mechanism_lists

import repro.decoders.lookup
from repro.api import codes
from repro.circuits import build_memory_experiment
from repro.decoders import LookupDecoder
from repro.decoders.lookup import _search_keys
from repro.noise import brisbane_noise
from repro.scheduling import lowest_depth_schedule
from repro.sim import build_detector_error_model, sample_detector_error_model
from repro.sim.bitops import unpack_rows
from repro.sim.dem import DetectorErrorModel, ErrorMechanism

#: Registered codes whose Z-basis DEM has at most ~420 mechanisms.
SMALL_CODES = [
    "repetition_3",
    "repetition_5",
    "five_qubit",
    "shor",
    "steane",
    "rotated_surface_d3",
    "xzzx_d3",
    "planar_surface_d3",
    "square_octagonal_d3",
    "toric_d3",
]


@lru_cache(maxsize=None)
def _code_dem(name: str) -> DetectorErrorModel:
    built = codes.build(name)
    circuit = build_memory_experiment(
        built, lowest_depth_schedule(built), brisbane_noise(), basis="Z"
    ).circuit
    return build_detector_error_model(circuit)


def _chain_dem(num_detectors: int) -> DetectorErrorModel:
    """A repetition-code-like DEM: mechanism i flips detectors {i, i+1}."""
    mechanisms = [
        ErrorMechanism(
            probability=0.01 + 0.001 * (index % 7),
            detectors=frozenset({index, index + 1} & set(range(num_detectors))),
            observables=frozenset({0} if index % 3 == 0 else set()),
        )
        for index in range(num_detectors)
    ]
    return DetectorErrorModel(
        num_detectors=num_detectors, num_observables=1, mechanisms=mechanisms
    )


def _table(decoder) -> dict[bytes, bytes]:
    """A decoder's table as ``{dense syndrome bytes: correction bytes}``."""
    if isinstance(decoder, ReferenceLookupDecoder):
        return {key: entry[1].tobytes() for key, entry in decoder._table.items()}
    rows = unpack_rows(decoder._packed_keys, decoder.dem.num_detectors)
    return {
        row.tobytes(): correction.tobytes()
        for row, correction in zip(rows, decoder._packed_corrections)
    }


def _assert_tables_equal(dem: DetectorErrorModel, max_order: int) -> LookupDecoder:
    decoder = LookupDecoder(dem, max_order=max_order)
    oracle = ReferenceLookupDecoder(dem, max_order=max_order)
    keys = _search_keys(decoder._packed_keys)
    # One entry per key, sorted in the order searchsorted compares.
    assert len(keys) == len(_table(decoder))
    assert np.array_equal(np.argsort(keys, kind="stable"), np.arange(len(keys)))
    assert _table(decoder) == _table(oracle)
    return decoder


def _assert_predictions_equal(dem: DetectorErrorModel, max_order: int, seed: int) -> None:
    decoder = LookupDecoder(dem, max_order=max_order)
    oracle = ReferenceLookupDecoder(dem, max_order=max_order)
    rng = np.random.default_rng(seed)
    sampled = sample_detector_error_model(dem, 200, seed=seed)
    random_syndromes = (rng.random((100, dem.num_detectors)) < 0.2).astype(np.uint8)
    syndromes = np.concatenate([sampled.detectors, random_syndromes])
    expected = oracle.decode_batch(syndromes)
    assert np.array_equal(decoder.decode_batch(syndromes), expected)
    assert np.array_equal(
        decoder.decode_batch_packed(sampled.packed_detectors), expected[:200]
    )


class TestRegisteredCodes:
    @pytest.mark.parametrize("max_order", [0, 1, 2])
    @pytest.mark.parametrize("name", SMALL_CODES)
    def test_table_matches_oracle(self, name, max_order):
        _assert_tables_equal(_code_dem(name), max_order)

    @pytest.mark.parametrize("name", ["five_qubit", "repetition_3"])
    def test_order_three_table_matches_oracle(self, name):
        _assert_tables_equal(_code_dem(name), 3)

    @pytest.mark.parametrize("name", ["steane", "rotated_surface_d3", "toric_d3"])
    def test_predictions_match_oracle(self, name):
        _assert_predictions_equal(_code_dem(name), 2, seed=7)


class TestChainDems:
    """Keys of one word (63, 64 detectors), two (65) and three (130)."""

    @pytest.mark.parametrize("num_detectors", [63, 64, 65, 130])
    def test_table_matches_oracle(self, num_detectors):
        decoder = _assert_tables_equal(_chain_dem(num_detectors), 2)
        assert decoder._packed_keys.shape[1] == -(-num_detectors // 64)

    @pytest.mark.parametrize("num_detectors", [63, 64, 65, 130])
    def test_predictions_match_oracle(self, num_detectors):
        _assert_predictions_equal(_chain_dem(num_detectors), 2, seed=num_detectors)


class TestEdgeCases:
    def test_equal_priors_keep_the_first_pattern(self):
        # Two mechanisms with the same syndrome and prior but different
        # observables: the loop's strict ``>`` keeps the first.
        mechanisms = [
            ErrorMechanism(0.1, frozenset({0}), frozenset({0})),
            ErrorMechanism(0.1, frozenset({0}), frozenset({1})),
            ErrorMechanism(0.1, frozenset({1}), frozenset()),
        ]
        dem = DetectorErrorModel(num_detectors=2, num_observables=2, mechanisms=mechanisms)
        for max_order in (1, 2, 3):
            decoder = _assert_tables_equal(dem, max_order)
            assert decoder.decode(np.array([1, 0])).tolist() == [1, 0]

    def test_log_priors_sum_left_to_right(self):
        # Two order-3 patterns reach {0..5}: mechanisms 0, 1, 2 with priors
        # (a, b, c) and 3, 4, 5 with (c, b, a).  Summed left to right from
        # 0.0 the first is one ulp more likely, so its observable wins.
        a, b, c = 0.187, 0.163, 0.002
        mechanisms = [
            ErrorMechanism(a, frozenset({0, 1}), frozenset({0})),
            ErrorMechanism(b, frozenset({2, 3}), frozenset()),
            ErrorMechanism(c, frozenset({4, 5}), frozenset()),
            ErrorMechanism(c, frozenset({0, 2}), frozenset()),
            ErrorMechanism(b, frozenset({1, 4}), frozenset()),
            ErrorMechanism(a, frozenset({3, 5}), frozenset()),
        ]
        dem = DetectorErrorModel(num_detectors=6, num_observables=1, mechanisms=mechanisms)
        decoder = _assert_tables_equal(dem, 3)
        assert decoder.decode(np.ones(6, dtype=np.uint8)).tolist() == [1]

    def test_priors_zero_and_one(self):
        mechanisms = [
            ErrorMechanism(0.0, frozenset({0}), frozenset({0})),
            ErrorMechanism(1.0, frozenset({1}), frozenset({0})),
            ErrorMechanism(1.0, frozenset(), frozenset({0})),
            ErrorMechanism(0.0, frozenset({0, 1}), frozenset()),
        ]
        dem = DetectorErrorModel(num_detectors=2, num_observables=1, mechanisms=mechanisms)
        for max_order in range(5):
            _assert_tables_equal(dem, max_order)

    def test_no_mechanisms(self):
        dem = DetectorErrorModel(num_detectors=3, num_observables=1, mechanisms=[])
        for max_order in (0, 2):
            decoder = _assert_tables_equal(dem, max_order)
            assert decoder.decode_batch(np.eye(3, dtype=np.uint8)).tolist() == [[0]] * 3

    def test_no_detectors_or_observables(self):
        mechanisms = [ErrorMechanism(0.2, frozenset(), frozenset())] * 3
        for num_observables in (0, 1):
            dem = DetectorErrorModel(
                num_detectors=0, num_observables=num_observables, mechanisms=mechanisms
            )
            decoder = _assert_tables_equal(dem, 2)
            predictions = decoder.decode_batch(np.zeros((4, 0), dtype=np.uint8))
            assert predictions.shape == (4, num_observables) and not predictions.any()


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", ["repetition_5", "five_qubit"])
def test_small_blocks_fold_to_the_same_table(monkeypatch, name, block):
    # Fold a few patterns at a time, so ties meet across many folds.
    monkeypatch.setattr(repro.decoders.lookup, "_MIN_BLOCK", block)
    _assert_tables_equal(_code_dem(name), 3 if name == "repetition_5" else 2)


@st.composite
def lookup_problems(draw):
    """Hypothesis DEMs with priors snapped to 0, 1 or a shared value (ties)."""
    num_detectors, num_observables, mechanisms = draw(mechanism_lists())
    snapped = draw(
        st.lists(
            st.sampled_from([None, 0.0, 1.0, 0.01]),
            min_size=len(mechanisms),
            max_size=len(mechanisms),
        )
    )
    mechanisms = [
        mechanism if prior is None
        else ErrorMechanism(prior, mechanism.detectors, mechanism.observables)
        for mechanism, prior in zip(mechanisms, snapped)
    ]
    dem = DetectorErrorModel(
        num_detectors=num_detectors, num_observables=num_observables, mechanisms=mechanisms
    )
    return dem, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lookup_problems())
def test_hypothesis_tables_match_oracle(problem):
    dem, max_order = problem
    _assert_tables_equal(dem, max_order)


def test_build_memory_is_bounded_by_table_plus_block():
    # The steane order-3 table has 4,096 entries from ~600k patterns; a
    # build that materialised every pattern at once peaked near 60 MB.
    dem = _code_dem("steane")
    tracemalloc.start()
    try:
        LookupDecoder(dem, max_order=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"
