"""The array-backed MWPM construction against the networkx reference.

:class:`repro.decoders.matching.MWPMDecoder` builds its decoding edges
straight from the DEM into an int-indexed adjacency list and runs one heap
Dijkstra per source that carries path observable parities.  The oracle in
``tests/oracles/matching_reference.py`` is the original decoder: an
``nx.Graph``, ``nx.single_source_dijkstra`` per node and a walk over every
stored path.  The two must agree *exactly*: ``_distance`` equal under
``==``, the same ``_parity`` bits and the same ``_decode_unique``
predictions — on memory DEMs under lowest-depth and random schedules, on a
multi-observable code, on colour-code hyperedges, and on hand-built DEMs
that pin the unreachable sentinel, the Dijkstra tie rule and the blossom
fallback.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.matching_reference import ReferenceMWPMDecoder

from repro.api import codes
from repro.circuits import build_memory_experiment
from repro.decoders.matching import _ENUM_MAX_DEFECTS, _UNREACHABLE, MWPMDecoder
from repro.noise import brisbane_noise
from repro.scheduling import lowest_depth_schedule
from repro.scheduling.baselines import random_order_schedule
from repro.sim import build_detector_error_model, sample_detector_error_model
from repro.sim.dem import DetectorErrorModel, ErrorMechanism


def _memory_dem(spec: str, schedule=None, noisy_rounds: "int | None" = None):
    code = codes.build(spec)
    extra = {} if noisy_rounds is None else {"noisy_rounds": noisy_rounds}
    experiment = build_memory_experiment(
        code, schedule or lowest_depth_schedule(code), brisbane_noise(), basis="Z", **extra
    )
    return build_detector_error_model(experiment.circuit)


def _mechanism(probability, detectors, observables=()):
    return ErrorMechanism(probability, frozenset(detectors), frozenset(observables))


def _hand_built_dem() -> DetectorErrorModel:
    """12 detectors; detector 11 is touched by no mechanism.

    A chain of two-detector mechanisms with repeated (parallel) edges, a
    boundary edge, an odd five-detector hyperedge, a detector-free
    mechanism that only flips an observable, and a zero-probability edge.
    """
    mechanisms = [
        _mechanism(
            (0.01, 0.02, 0.01)[index % 3],
            {index, index + 1},
            {index % 2} if index % 4 == 0 else (),
        )
        for index in range(10)
    ]
    mechanisms += [
        _mechanism(0.004, {2, 3}, {1}),
        _mechanism(0.02, {0}),
        _mechanism(0.005, {1, 4, 6, 8, 9}, {0}),
        _mechanism(0.03, (), {0}),
        _mechanism(0.0, {5, 7}, {1}),
    ]
    return DetectorErrorModel(num_detectors=12, num_observables=2, mechanisms=mechanisms)


def _tie_dem() -> DetectorErrorModel:
    """A square 0-1-3-2-0 of equal weights; only edge 0-1 flips observable 0.

    Both shortest paths from 0 to 3 cost exactly ``2w`` and disagree on
    the observable, so the parity of ``(0, 3)`` is fixed by the tie rule
    alone.
    """
    mechanisms = [
        _mechanism(0.01, {0, 1}, {0}),
        _mechanism(0.01, {0, 2}),
        _mechanism(0.01, {1, 3}),
        _mechanism(0.01, {2, 3}),
    ]
    return DetectorErrorModel(num_detectors=4, num_observables=1, mechanisms=mechanisms)


def _degenerate_dem() -> DetectorErrorModel:
    """Defects {0, 1} have two optimal matchings that disagree on the flip.

    Matching 0-1 costs ``w`` and flips observable 0; matching both to the
    boundary costs ``w + 0`` (the 1-boundary edge has p = 0.5, weight 0)
    and flips nothing.  Only blossom may break this tie.
    """
    mechanisms = [
        _mechanism(0.01, {0, 1}, {0}),
        _mechanism(0.01, {0}),
        _mechanism(0.5, {1}),
    ]
    return DetectorErrorModel(num_detectors=2, num_observables=1, mechanisms=mechanisms)


_DEMS = {
    "surface_d3_r3": lambda: _memory_dem("surface:d=3", noisy_rounds=3),
    "toric_d3": lambda: _memory_dem("toric:d=3"),
    "hexagonal_color_d3": lambda: _memory_dem("hexagonal_color_d3"),
    "steane": lambda: _memory_dem("steane"),
    "hand_built": _hand_built_dem,
    "tie": _tie_dem,
    "degenerate": _degenerate_dem,
}
_DEM_CACHE: dict = {}


def _dem(name: str) -> DetectorErrorModel:
    if name not in _DEM_CACHE:
        _DEM_CACHE[name] = _DEMS[name]()
    return _DEM_CACHE[name]


def _distinct_syndromes(dem: DetectorErrorModel, rows: int, seed: int) -> np.ndarray:
    """Up to ``rows`` distinct syndromes: sampled ones, then sparse random ones.

    The random rows carry 1 to 10 defects, so the >8-defect blossom path
    runs alongside the enumerated groups.
    """
    num = dem.num_detectors
    rng = np.random.default_rng(seed)
    sampled = sample_detector_error_model(dem, 2 * rows, seed=seed).detectors
    sparse = np.zeros((rows, num), dtype=np.uint8)
    for row in sparse:
        row[rng.choice(num, size=min(num, int(rng.integers(1, 11))), replace=False)] = 1
    candidates = np.concatenate([sampled, sparse]).astype(np.uint8)
    _, first = np.unique(candidates, axis=0, return_index=True)
    return np.ascontiguousarray(candidates[np.sort(first)][:rows])


def _assert_matches_reference(dem: DetectorErrorModel, syndromes: np.ndarray) -> None:
    kernel = MWPMDecoder(dem)
    oracle = ReferenceMWPMDecoder(dem)
    assert np.array_equal(kernel._distance, oracle._distance)
    assert np.array_equal(kernel._parity, oracle._parity)
    assert kernel._parity.dtype == oracle._parity.dtype == np.uint8
    assert np.array_equal(kernel._decode_unique(syndromes), oracle._decode_unique(syndromes))


@pytest.mark.parametrize("name", sorted(_DEMS))
def test_fixed_dems_match_reference(name):
    dem = _dem(name)
    _assert_matches_reference(dem, _distinct_syndromes(dem, 48, seed=7))


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule_seed=st.integers(0, 2**16), syndrome_seed=st.integers(0, 2**16))
def test_random_schedules_match_reference(schedule_seed, syndrome_seed):
    """Surface d=3 with 3 noisy rounds under a random valid schedule."""
    code = codes.build("surface:d=3")
    schedule = random_order_schedule(code, rng=random.Random(schedule_seed))
    dem = _memory_dem("surface:d=3", schedule=schedule, noisy_rounds=3)
    _assert_matches_reference(dem, _distinct_syndromes(dem, 24, seed=syndrome_seed))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_DEMS)),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_random_blocks_match_reference(name, rows, seed):
    dem = _dem(name)
    _assert_matches_reference(dem, _distinct_syndromes(dem, rows, seed))


def test_isolated_detector_keeps_the_unreachable_sentinel():
    dem = _dem("hand_built")
    decoder = MWPMDecoder(dem)
    assert (decoder._distance[11, :11] == _UNREACHABLE).all()
    assert decoder._distance[11, 12] == _UNREACHABLE
    assert decoder._distance[11, 11] == 0.0
    syndrome = np.zeros((1, 12), dtype=np.uint8)
    syndrome[0, [3, 11]] = 1
    assert np.array_equal(
        decoder._decode_unique(syndrome), ReferenceMWPMDecoder(dem)._decode_unique(syndrome)
    )


def test_tie_rule_picks_the_first_inserted_neighbour():
    """From 0, neighbour 1 (edge 0-1 inserted first) settles 3 first."""
    decoder = MWPMDecoder(_dem("tie"))
    assert decoder._distance[0, 3] == decoder._distance[0, 1] + decoder._distance[1, 3]
    assert decoder._distance[0, 3] == decoder._distance[0, 2] + decoder._distance[2, 3]
    assert decoder._parity[0, 3].tolist() == [1]
    assert decoder._parity[3, 0].tolist() == [1]


def test_degenerate_optimum_defers_to_blossom(monkeypatch):
    dem = _dem("degenerate")
    decoder = MWPMDecoder(dem)
    calls = []
    original = decoder._match_defects

    def spy(defects, prediction):
        calls.append(defects.tolist())
        original(defects, prediction)

    monkeypatch.setattr(decoder, "_match_defects", spy)
    syndrome = np.ones((1, 2), dtype=np.uint8)
    prediction = decoder._decode_unique(syndrome)
    assert calls == [[0, 1]]
    assert np.array_equal(prediction, ReferenceMWPMDecoder(dem)._decode_unique(syndrome))


def test_large_defect_sets_use_blossom_and_match_reference():
    dem = _dem("surface_d3_r3")
    rng = np.random.default_rng(3)
    syndromes = np.zeros((6, dem.num_detectors), dtype=np.uint8)
    for row in syndromes:
        row[rng.choice(dem.num_detectors, size=_ENUM_MAX_DEFECTS + 2, replace=False)] = 1
    _assert_matches_reference(dem, np.unique(syndromes, axis=0))


@pytest.mark.parametrize(
    ("detectors", "pair"),
    [({2, 5}, "detector 2 and detector 5"), ({4}, "detector 4 and the boundary")],
)
def test_edge_probability_above_half_is_a_readable_error(detectors, pair):
    mechanisms = [_mechanism(0.01, {0, 1}), _mechanism(0.7, detectors)]
    dem = DetectorErrorModel(num_detectors=6, num_observables=1, mechanisms=mechanisms)
    with pytest.raises(ValueError) as raised:
        MWPMDecoder(dem)
    message = str(raised.value)
    assert "\n" not in message
    assert pair in message
    assert "0.7" in message


def test_merged_probability_of_exactly_half_is_accepted():
    dem = DetectorErrorModel(
        num_detectors=2, num_observables=1, mechanisms=[_mechanism(0.5, {0, 1})]
    )
    assert MWPMDecoder(dem)._distance[0, 1] == 0.0
