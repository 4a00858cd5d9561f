"""The tiled, compacting BP+OSD kernel against the whole-block reference.

:class:`repro.decoders.bposd.BPOSDDecoder` runs BP in shot-major tiles
whose width it sizes to the DEM's edge count, drops each shot from the
message arrays the iteration it converges, and runs OSD-0 on each tile's
remaining shots, on rows packed into Python integers.  The
oracle in ``tests/oracles/bposd_reference.py`` is the original decoder:
BP over the whole block with per-edge gathers, and OSD-0 on a dense
``uint8`` matrix.  The two must agree *exactly*: posteriors equal under
``==``, the same hard decisions, the same OSD-0 solutions and the same
predictions, on the paper's memory DEMs, on a hand-built DEM with an
untouched detector, a detector-free mechanism and a 10-detector
mechanism, on a hand-built DEM with hyperedges at numpy's pairwise-sum
switches (8, 9, 16, 17 and 130 detectors), and on block sizes that
cross each DEM's own tile boundary.
"""

from __future__ import annotations

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from oracles.bposd_reference import ReferenceBPOSDDecoder

from repro.api import codes
from repro.api.registries import decoders
from repro.circuits import build_memory_experiment
from repro.decoders.bposd import BPOSDDecoder, _tile_width
from repro.noise import brisbane_noise
from repro.scheduling import lowest_depth_schedule
from repro.sim import build_detector_error_model, sample_detector_error_model
from repro.sim.dem import DetectorErrorModel, ErrorMechanism

_ITERATIONS = (0, 1, 2, 30)


def _memory_dem(spec: str, noisy_rounds: "int | None" = None) -> DetectorErrorModel:
    code = codes.build(spec)
    extra = {} if noisy_rounds is None else {"noisy_rounds": noisy_rounds}
    experiment = build_memory_experiment(
        code, lowest_depth_schedule(code), brisbane_noise(), basis="Z", **extra
    )
    return build_detector_error_model(experiment.circuit)


def _hand_built_dem() -> DetectorErrorModel:
    """12 detectors; detector 11 is touched by no mechanism.

    A chain of two-detector mechanisms, a 10-detector hyperedge (longer
    than the eight terms up to which ``np.add.reduceat`` groups a segment
    as ``x0 + ((x1 + x2) + ...)``), one mechanism that flips only an
    observable, and repeated probabilities for tied priors.
    """
    mechanisms = [
        ErrorMechanism(
            probability=(0.01, 0.02, 0.01)[index % 3],
            detectors=frozenset({index, index + 1}),
            observables=frozenset({index % 2}) if index % 4 == 0 else frozenset(),
        )
        for index in range(10)
    ]
    mechanisms.append(ErrorMechanism(0.005, frozenset(range(10)), frozenset({1})))
    mechanisms.append(ErrorMechanism(0.03, frozenset(), frozenset({0})))
    mechanisms.append(ErrorMechanism(0.02, frozenset({3}), frozenset()))
    return DetectorErrorModel(num_detectors=12, num_observables=2, mechanisms=mechanisms)


def _wide_hyperedge_dem() -> DetectorErrorModel:
    """140 detectors with hyperedges of 8, 9, 16, 17 and 130 detectors.

    ``np.add.reduceat`` adds a segment as ``x0 + pairwise(rest)``, and
    numpy's pairwise sum runs left to right below eight terms, switches
    to eight accumulators from eight terms and splits in halves past a
    128-term block.  These degrees sit on both switches; a chain of
    two-detector mechanisms (some with a third detector) and a few
    single-detector ones tie the hyperedges to the rest of the graph.
    """
    num_detectors = 140
    mechanisms = [
        ErrorMechanism(
            probability=(0.01, 0.015, 0.02, 0.01)[index % 4],
            detectors=frozenset({index, index + 1} | ({index + 7} if index % 5 == 0 else set())),
            observables=frozenset({index % 2}) if index % 6 == 0 else frozenset(),
        )
        for index in range(num_detectors - 7)
    ]
    for degree, first in ((8, 3), (9, 20), (16, 41), (17, 70), (130, 5)):
        mechanisms.append(
            ErrorMechanism(0.004, frozenset(range(first, first + degree)), frozenset({1}))
        )
    mechanisms.extend(
        ErrorMechanism(0.02, frozenset({detector}), frozenset()) for detector in (0, 64, 139)
    )
    return DetectorErrorModel(
        num_detectors=num_detectors, num_observables=2, mechanisms=mechanisms
    )


_DEMS = {
    "bb_18": lambda: _memory_dem("bb_18"),
    "surface_d3_r3": lambda: _memory_dem("surface:d=3", noisy_rounds=3),
    "toric_d3": lambda: _memory_dem("toric:d=3"),
    "steane": lambda: _memory_dem("steane"),
    "hand_built": _hand_built_dem,
    "wide_hyperedges": _wide_hyperedge_dem,
}
_DEM_CACHE: dict = {}


def _dem(name: str) -> DetectorErrorModel:
    if name not in _DEM_CACHE:
        _DEM_CACHE[name] = _DEMS[name]()
    return _DEM_CACHE[name]


def _block_sizes(dem: DetectorErrorModel) -> tuple[int, ...]:
    """1, w-1, w, w+1 and 2w+1 rows for the DEM's own tile width ``w``."""
    width = BPOSDDecoder(dem)._tile
    return (1, width - 1, width, width + 1, 2 * width + 1)


def _distinct_syndromes(dem: DetectorErrorModel, rows: int, seed: int) -> np.ndarray:
    """``rows`` distinct syndromes (fewer if the detector space is smaller).

    The all-zero and all-one syndromes lead, then sampled syndromes, then
    uniformly random ones — inconsistent wherever H is rank-deficient.
    """
    num = dem.num_detectors
    sampled = sample_detector_error_model(dem, 4 * rows, seed=seed).detectors
    uniform = np.random.default_rng(seed).integers(0, 2, size=(4 * rows, num))
    candidates = np.concatenate(
        [np.zeros((1, num)), np.ones((1, num)), sampled, uniform]
    ).astype(np.uint8)
    _, first = np.unique(candidates, axis=0, return_index=True)
    return np.ascontiguousarray(candidates[np.sort(first)][:rows])


def _assert_bp_matches(dem, syndromes, max_iterations):
    kernel = BPOSDDecoder(dem, max_iterations=max_iterations)
    oracle = ReferenceBPOSDDecoder(dem, max_iterations=max_iterations)
    posteriors, hard, converged = kernel._run_bp(syndromes)
    oracle_posteriors, oracle_hard = oracle._run_bp(syndromes)
    assert np.array_equal(posteriors, oracle_posteriors)
    assert np.array_equal(hard, oracle_hard)
    # The oracle re-derives convergence from its frozen hard decisions.
    # With no iterations it calls the zero syndrome converged; the kernel
    # sends it to OSD-0, which predicts the same (no flip).
    residual = (oracle_hard.astype(np.int64) @ dem.check_matrix.T.astype(np.int64)) % 2
    oracle_converged = (residual == syndromes).all(axis=1)
    assert np.array_equal(converged, oracle_converged & (max_iterations > 0))
    assert np.array_equal(kernel._decode_unique(syndromes), oracle._decode_unique(syndromes))


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(_DEMS)),
    size=st.integers(0, 4),
    max_iterations=st.sampled_from(_ITERATIONS),
    seed=st.integers(0, 2**16),
)
def test_bp_and_predictions_match_reference(name, size, max_iterations, seed):
    dem = _dem(name)
    rows = _block_sizes(dem)[size]
    _assert_bp_matches(dem, _distinct_syndromes(dem, rows, seed), max_iterations)


@pytest.mark.parametrize("name", sorted(_DEMS))
def test_tile_crossing_block_matches_reference(name):
    """Every DEM at the default budget on a block that spans three tiles."""
    dem = _dem(name)
    _assert_bp_matches(dem, _distinct_syndromes(dem, _block_sizes(dem)[-1], seed=7), 30)


@pytest.mark.parametrize("max_iterations", _ITERATIONS)
def test_bb18_iteration_budgets_match_reference(max_iterations):
    dem = _dem("bb_18")
    _assert_bp_matches(dem, _distinct_syndromes(dem, _block_sizes(dem)[3], seed=3), max_iterations)


def test_osd_shots_in_two_tiles_match_reference():
    """OSD-0 runs per tile: a block one and a half tiles long, with shots
    that BP leaves to OSD-0 on both sides of the tile boundary, decodes
    as the whole-block oracle does."""
    dem = _dem("bb_18")
    kernel = BPOSDDecoder(dem)
    width = kernel._tile
    syndromes = _distinct_syndromes(dem, width + width // 2, seed=5)
    _, _, converged = kernel._run_bp(syndromes)
    assert converged.any()
    assert not converged[:width].all() and not converged[width:].all()
    oracle = ReferenceBPOSDDecoder(dem)
    assert np.array_equal(kernel._decode_unique(syndromes), oracle._decode_unique(syndromes))


def test_tile_width_follows_the_cache_budget():
    """The tile is the largest power of two in [8, 256] whose float64
    ``(tile, edges)`` array fits in 1 MiB: 32 shots on ``bb_18``, 128 on
    surface d=3 with three rounds and 8 on ``bb_72_12_6``."""
    budget = 1 << 20
    for edges in (0, 1, 512, 854, 893, 2562, 2586, 4096, 4097, 14270, 15068, 10**6):
        width = _tile_width(edges)
        assert width & (width - 1) == 0 and 8 <= width <= 256
        assert width == 8 or width * edges * 8 <= budget
        assert width == 256 or 2 * width * edges * 8 > budget
    assert BPOSDDecoder(_dem("bb_18"))._tile == 32
    assert BPOSDDecoder(_dem("surface_d3_r3"))._tile == 128
    assert BPOSDDecoder(_memory_dem("bb_72_12_6"))._tile == 8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_DEMS)),
    seed=st.integers(0, 2**16),
    rounded=st.booleans(),
)
def test_osd_zero_matches_reference(name, seed, rounded):
    """OSD-0 on random (often inconsistent) syndromes, with tied posteriors
    when ``rounded``: the stable sort must break ties the same way."""
    dem = _dem(name)
    kernel = BPOSDDecoder(dem)
    oracle = ReferenceBPOSDDecoder(dem)
    rng = np.random.default_rng(seed)
    syndrome = rng.integers(0, 2, size=dem.num_detectors).astype(np.uint8)
    posterior = rng.normal(2.0, 3.0, size=dem.num_mechanisms)
    if rounded:
        posterior = np.round(posterior)
    assert np.array_equal(
        kernel._osd_zero(syndrome, posterior), oracle._osd_zero(syndrome, posterior)
    )


def test_osd_zero_matches_reference_on_rank_deficient_h():
    """The hand-built DEM's untouched detector makes H rank-deficient: any
    syndrome that fires it is inconsistent, and both eliminations must
    ignore the same rows past the rank."""
    dem = _dem("hand_built")
    kernel = BPOSDDecoder(dem)
    oracle = ReferenceBPOSDDecoder(dem)
    rng = np.random.default_rng(0)
    for _ in range(200):
        syndrome = rng.integers(0, 2, size=dem.num_detectors).astype(np.uint8)
        syndrome[11] = 1
        posterior = np.round(rng.normal(2.0, 1.0, size=dem.num_mechanisms))
        assert np.array_equal(
            kernel._osd_zero(syndrome, posterior), oracle._osd_zero(syndrome, posterior)
        )


def test_bp_memory_is_bounded_by_the_tile():
    """The BP working set is one tile, not the block: the tracemalloc peak
    of ``_decode_unique`` on 1,024 distinct syndromes stays within twice
    the peak on 64."""
    dem = _dem("bb_18")
    decoder = BPOSDDecoder(dem, max_iterations=3)
    syndromes = _distinct_syndromes(dem, 1024, seed=11)
    assert syndromes.shape[0] == 1024

    def peak(block):
        decoder._decode_unique(block)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            decoder._decode_unique(block)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(np.ascontiguousarray(syndromes[:64]))
    large = peak(syndromes)
    assert large <= 2 * small, f"peak {large / 1e6:.1f} MB vs {small / 1e6:.1f} MB"


class TestParameterValidation:
    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"max_iterations": -3}, "max_iterations"),
            ({"max_iterations": 2.5}, "max_iterations"),
            ({"max_iterations": "3"}, "max_iterations"),
            ({"max_iterations": True}, "max_iterations"),
            ({"scaling_factor": 0}, "scaling_factor"),
            ({"scaling_factor": -0.5}, "scaling_factor"),
            ({"scaling_factor": 1.5}, "scaling_factor"),
            ({"scaling_factor": float("nan")}, "scaling_factor"),
        ],
    )
    def test_constructor_rejects(self, kwargs, named):
        ((_, value),) = kwargs.items()
        with pytest.raises(ValueError, match=named) as info:
            BPOSDDecoder(_dem("steane"), **kwargs)
        message = str(info.value)
        assert repr(value) in message and "\n" not in message

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("bposd:max_iterations=-3", "max_iterations must be a non-negative integer, got -3"),
            ("bposd:max_iterations=2.5", "max_iterations must be a non-negative integer, got 2.5"),
            ("bp_osd:scaling_factor=0", "scaling_factor must be in (0, 1], got 0"),
        ],
    )
    def test_registry_spec_rejects(self, spec, fragment):
        with pytest.raises(ValueError) as info:
            decoders.build(spec)
        assert fragment in str(info.value)

    def test_boundary_values_accepted(self):
        dem = _dem("steane")
        for kwargs in (
            {"max_iterations": 0},
            {"max_iterations": np.int64(5)},
            {"scaling_factor": 1},
            {"scaling_factor": 1e-3},
        ):
            assert isinstance(BPOSDDecoder(dem, **kwargs), BPOSDDecoder)
        factory = decoders.build("bposd:max_iterations=0,scaling_factor=1")
        assert isinstance(factory(dem), BPOSDDecoder)
