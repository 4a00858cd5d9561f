"""Cross-decoder conformance suite.

Every decoder in the ``repro.api`` registry must honour a small set of
behavioural contracts on small codes, independent of its algorithm:

* the all-zero syndrome decodes to "no logical flip" (single-shot and batch);
* an empty batch decodes to shape ``(0, num_observables)`` (dense and packed);
* ``decode_batch`` on a bit-packed batch (``decode_batch_packed``) agrees
  bit for bit with the dense path, whether or not the decoder advertises a
  packed fast path;
* ``decode_batch`` agrees with per-shot ``decode`` (the shared dedup front
  end must be a pure routing change), including on duplicate-heavy batches
  where most shots collapse onto few unique syndromes, and on the degenerate
  single-shot batch;
* decoding quality respects the known hierarchy at fixed seeds:
  near-maximum-likelihood lookup <= minimum-weight matching <= union-find.

The suite runs over every registered decoder name, so a newly registered
decoder is conformance-checked automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registries import decoders as decoder_registry
from repro.circuits.memory import build_memory_experiment
from repro.codes import repetition_code, rotated_surface_code, steane_code
from repro.noise import brisbane_noise
from repro.scheduling import lowest_depth_schedule
from repro.sim import (
    build_detector_error_model,
    estimate_logical_error_rates,
    sample_detector_error_model,
)
from repro.sim.bitops import pack_rows, packed_words

#: Every decoder registered under its canonical name.
DECODER_NAMES = decoder_registry.available()

#: Small decoding problems every decoder must handle.
CODE_BUILDERS = {
    "steane": steane_code,
    "repetition_5": lambda: repetition_code(5),
    "surface_d3": lambda: rotated_surface_code(3),
}


@pytest.fixture(scope="module")
def problems():
    """DEM + a sampled syndrome batch per small code (basis Z, fixed seed)."""
    noise = brisbane_noise()
    out = {}
    for name, builder in CODE_BUILDERS.items():
        code = builder()
        schedule = lowest_depth_schedule(code)
        experiment = build_memory_experiment(code, schedule, noise, basis="Z")
        dem = build_detector_error_model(experiment.circuit)
        batch = sample_detector_error_model(dem, 96, seed=20)
        out[name] = (dem, batch)
    return out


def _build(name, dem):
    return decoder_registry.build(name)(dem)


class TestRegistryCoverage:
    def test_all_known_decoders_registered(self):
        # The suite is only meaningful if it really sees every decoder.
        assert {"mwpm", "unionfind", "bposd", "lookup"} <= set(DECODER_NAMES)


@pytest.mark.parametrize("decoder_name", DECODER_NAMES)
@pytest.mark.parametrize("code_name", sorted(CODE_BUILDERS))
class TestDecoderContracts:
    def test_zero_syndrome_decodes_to_zero(self, problems, decoder_name, code_name):
        dem, _batch = problems[code_name]
        decoder = _build(decoder_name, dem)
        zero = np.zeros(dem.num_detectors, dtype=np.uint8)
        assert not decoder.decode(zero).any()
        zero_batch = np.zeros((5, dem.num_detectors), dtype=np.uint8)
        predictions = decoder.decode_batch(zero_batch)
        assert predictions.shape == (5, dem.num_observables)
        assert not predictions.any()

    def test_packed_batch_agrees_with_dense(self, problems, decoder_name, code_name):
        dem, batch = problems[code_name]
        decoder = _build(decoder_name, dem)
        dense = decoder.decode_batch(batch.detectors)
        packed = decoder.decode_batch_packed(pack_rows(batch.detectors))
        assert dense.dtype == packed.dtype == np.uint8
        assert np.array_equal(dense, packed)

    def test_batch_agrees_with_per_shot_decode(self, problems, decoder_name, code_name):
        dem, batch = problems[code_name]
        decoder = _build(decoder_name, dem)
        subset = batch.detectors[:32]
        per_shot = np.array(
            [decoder.decode(syndrome) for syndrome in subset], dtype=np.uint8
        ).reshape(len(subset), dem.num_observables)
        assert np.array_equal(decoder.decode_batch(subset), per_shot)

    def test_empty_batch_has_observable_width(self, problems, decoder_name, code_name):
        # Regression pin: decode_batch([]) must be (0, num_observables), not
        # the shapeless (0,) the pre-batch-first default produced.
        dem, _batch = problems[code_name]
        decoder = _build(decoder_name, dem)
        empty = np.zeros((0, dem.num_detectors), dtype=np.uint8)
        predictions = decoder.decode_batch(empty)
        assert predictions.shape == (0, dem.num_observables)
        assert predictions.dtype == np.uint8
        packed = decoder.decode_batch_packed(pack_rows(empty))
        assert packed.shape == (0, dem.num_observables)

    def test_wrong_syndrome_width_raises(self, problems, decoder_name, code_name):
        dem, _batch = problems[code_name]
        decoder = _build(decoder_name, dem)
        for width in (dem.num_detectors - 1, dem.num_detectors + 1):
            with pytest.raises(ValueError, match="expected syndromes"):
                decoder.decode_batch(np.zeros((3, width), dtype=np.uint8))
        words = np.zeros((3, packed_words(dem.num_detectors) + 1), dtype="<u8")
        with pytest.raises(ValueError, match="expected packed syndromes"):
            decoder.decode_batch_packed(words)

    def test_wrong_single_syndrome_width_raises(self, problems, decoder_name, code_name):
        # surface_d3 has 16 detectors: lengths 15 and 17 must not decode,
        # nor may a column of the right length.
        dem, _batch = problems[code_name]
        decoder = _build(decoder_name, dem)
        for shape in (dem.num_detectors - 1, dem.num_detectors + 1, (dem.num_detectors, 1)):
            with pytest.raises(ValueError, match="expected syndromes") as raised:
                decoder.decode(np.zeros(shape, dtype=np.uint8))
            assert "\n" not in str(raised.value)

    def test_single_shot_batch_matches_decode(self, problems, decoder_name, code_name):
        dem, batch = problems[code_name]
        decoder = _build(decoder_name, dem)
        syndrome = batch.detectors[7]
        single = decoder.decode_batch(syndrome.reshape(1, -1))
        assert single.shape == (1, dem.num_observables)
        assert np.array_equal(single[0], decoder.decode(syndrome))

    def test_duplicate_heavy_batch_matches_naive_loop(
        self, problems, decoder_name, code_name
    ):
        # Resample the 96-shot batch into 300 rows: every syndrome appears
        # several times, so the dedup front end's unique/scatter machinery is
        # exercised hard.  The scattered result must equal the naive per-shot
        # loop bit for bit, on the dense and the packed entry points alike.
        dem, batch = problems[code_name]
        decoder = _build(decoder_name, dem)
        rng = np.random.default_rng(7)
        rows = rng.integers(0, batch.detectors.shape[0], size=300)
        duplicated = batch.detectors[rows]
        naive = np.array(
            [decoder.decode(syndrome) for syndrome in duplicated], dtype=np.uint8
        ).reshape(len(duplicated), dem.num_observables)
        assert np.array_equal(decoder.decode_batch(duplicated), naive)
        assert np.array_equal(
            decoder.decode_batch_packed(pack_rows(duplicated)), naive
        )


class TestDecoderHierarchy:
    """Near-ML lookup <= matching <= union-find at fixed seeds.

    The margins are wide (see the rates pinned below: roughly 0.03 / 0.11 /
    0.14 on steane, 0.02 / 0.06 / 0.08 on surface d3), so equality-tolerant
    comparisons at fixed seeds are stable, not flaky.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("code_name", ["steane", "surface_d3"])
    def test_lookup_matching_unionfind_ordering(self, code_name, seed):
        code = CODE_BUILDERS[code_name]()
        schedule = lowest_depth_schedule(code)
        noise = brisbane_noise()
        overall = {}
        for spec in ("lookup:max_order=3", "mwpm", "unionfind"):
            factory = decoder_registry.build(spec)
            rates = estimate_logical_error_rates(
                code, schedule, noise, factory, shots=1000, seed=seed
            )
            overall[spec] = rates.overall
        assert overall["lookup:max_order=3"] <= overall["mwpm"] <= overall["unionfind"]
