"""Tests for the MWPM, union-find, BP-OSD and lookup decoders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registries import decoders
from repro.circuits import build_memory_experiment
from repro.decoders import (
    BPOSDDecoder,
    LookupDecoder,
    MWPMDecoder,
    UnionFindDecoder,
)
from repro.noise import depolarizing_noise
from repro.scheduling import google_surface_schedule, lowest_depth_schedule
from repro.sim import build_detector_error_model, sample_detector_error_model

ALL_DECODERS = [MWPMDecoder, UnionFindDecoder, BPOSDDecoder, LookupDecoder]


def _surface_dem(code, noise=None, basis="Z"):
    noise = noise or depolarizing_noise(0.01, 0.005)
    schedule = google_surface_schedule(code)
    experiment = build_memory_experiment(code, schedule, noise, basis=basis)
    return build_detector_error_model(experiment.circuit)


def _steane_dem(code, noise=None, basis="Z"):
    noise = noise or depolarizing_noise(0.01, 0.005)
    schedule = lowest_depth_schedule(code)
    experiment = build_memory_experiment(code, schedule, noise, basis=basis)
    return build_detector_error_model(experiment.circuit)


class TestDecoderFactory:
    def test_known_names(self):
        for name in ("mwpm", "unionfind", "bposd", "lookup", "union_find", "bp_osd"):
            assert callable(decoders.build(name))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            decoders.build("fancy")

    def test_factory_builds_decoder(self, surface_d3):
        dem = _surface_dem(surface_d3)
        decoder = decoders.build("mwpm")(dem)
        assert isinstance(decoder, MWPMDecoder)


class TestAllDecodersBasics:
    @pytest.mark.parametrize("decoder_cls", ALL_DECODERS)
    def test_trivial_syndrome_predicts_no_flip(self, surface_d3, decoder_cls):
        dem = _surface_dem(surface_d3)
        decoder = decoder_cls(dem)
        prediction = decoder.decode(np.zeros(dem.num_detectors, dtype=np.uint8))
        assert prediction.shape == (dem.num_observables,)
        assert not prediction.any()

    @pytest.mark.parametrize("decoder_cls", ALL_DECODERS)
    def test_decode_batch_matches_single_shot(self, surface_d3, decoder_cls):
        dem = _surface_dem(surface_d3)
        batch = sample_detector_error_model(dem, 12, seed=0)
        decoder = decoder_cls(dem)
        batched = decoder.decode_batch(batch.detectors)
        for shot in range(12):
            single = decoder.decode(batch.detectors[shot])
            assert np.array_equal(batched[shot], single)

    @pytest.mark.parametrize("decoder_cls", ALL_DECODERS)
    def test_single_mechanism_syndromes_get_consistent_corrections(
        self, steane, surface_d3, decoder_cls
    ):
        """For a single-fault syndrome the decoder must predict the observable
        flip of *some* mechanism with exactly that detector signature (it may
        legitimately pick a more likely degenerate explanation).

        Each decoder is checked on the decoding problem it is designed for:
        matching/union-find on the (graph-like) surface-code DEM, BP-OSD and
        the lookup table on the colour-code (hypergraph) DEM.
        """
        if decoder_cls in (MWPMDecoder, UnionFindDecoder):
            dem = _surface_dem(surface_d3)
        else:
            dem = _steane_dem(steane)
        decoder = decoder_cls(dem)
        candidates: dict[frozenset, set[tuple]] = {}
        for mechanism in dem.mechanisms:
            candidates.setdefault(mechanism.detectors, set()).add(
                tuple(sorted(mechanism.observables))
            )
        failures = 0
        checked = 0
        for signature, observable_options in candidates.items():
            if not signature:
                continue
            checked += 1
            syndrome = np.zeros(dem.num_detectors, dtype=np.uint8)
            for detector in signature:
                syndrome[detector] = 1
            prediction = decoder.decode(syndrome)
            predicted = tuple(int(i) for i in np.nonzero(prediction)[0])
            if predicted not in observable_options:
                failures += 1
        assert checked > 0
        # Heuristic decoders may occasionally prefer a multi-fault explanation,
        # but most single-fault syndromes must decode to a consistent
        # single-fault correction.
        assert failures <= max(1, checked // 5)


class TestDecodingAccuracy:
    @pytest.mark.parametrize(
        "decoder_cls", [MWPMDecoder, UnionFindDecoder, BPOSDDecoder, LookupDecoder]
    )
    def test_decoders_beat_no_correction_on_surface_code(self, surface_d3, decoder_cls):
        dem = _surface_dem(surface_d3)
        shots = 1500
        batch = sample_detector_error_model(dem, shots, seed=11)
        decoder = decoder_cls(dem)
        predictions = decoder.decode_batch(batch.detectors)
        decoded_errors = (predictions != batch.observables).any(axis=1).mean()
        uncorrected_errors = batch.observables.any(axis=1).mean()
        assert decoded_errors <= uncorrected_errors

    def test_lookup_is_at_least_as_good_as_unionfind_on_small_code(self, steane):
        dem = _steane_dem(steane)
        batch = sample_detector_error_model(dem, 1500, seed=13)
        lookup_errors = (
            (LookupDecoder(dem).decode_batch(batch.detectors) != batch.observables)
            .any(axis=1)
            .mean()
        )
        uf_errors = (
            (UnionFindDecoder(dem).decode_batch(batch.detectors) != batch.observables)
            .any(axis=1)
            .mean()
        )
        assert lookup_errors <= uf_errors + 0.01

    def test_bposd_handles_multi_observable_codes(self, toric_d3):
        noise = depolarizing_noise(0.01, 0.005)
        schedule = lowest_depth_schedule(toric_d3)
        experiment = build_memory_experiment(toric_d3, schedule, noise, basis="Z")
        dem = build_detector_error_model(experiment.circuit)
        batch = sample_detector_error_model(dem, 300, seed=5)
        decoder = BPOSDDecoder(dem)
        predictions = decoder.decode_batch(batch.detectors)
        assert predictions.shape == batch.observables.shape
        error_rate = (predictions != batch.observables).any(axis=1).mean()
        assert error_rate <= batch.observables.any(axis=1).mean()


class TestMWPMInternals:
    def test_boundary_is_the_last_node(self, surface_d3):
        dem = _surface_dem(surface_d3)
        decoder = MWPMDecoder(dem)
        boundary = dem.num_detectors
        assert decoder._boundary_index == boundary
        assert decoder._distance.shape == (boundary + 1, boundary + 1)
        single = {d for m in dem.mechanisms if len(m.detectors) == 1 for d in m.detectors}
        assert single
        for detector in single:
            assert np.isfinite(decoder._distance[detector, boundary])
            assert decoder._distance[detector, boundary] < 1e9

    def test_graphlike_property_reported(self, surface_d3):
        dem = _surface_dem(surface_d3)
        assert isinstance(dem.is_graphlike(), bool)

    def test_single_defect_matches_to_boundary(self, surface_d3):
        dem = _surface_dem(surface_d3)
        decoder = MWPMDecoder(dem)
        boundary_mechanisms = [m for m in dem.mechanisms if len(m.detectors) == 1]
        assert boundary_mechanisms
        mechanism = boundary_mechanisms[0]
        syndrome = np.zeros(dem.num_detectors, dtype=np.uint8)
        syndrome[next(iter(mechanism.detectors))] = 1
        prediction = decoder.decode(syndrome)
        expected = np.zeros(dem.num_observables, dtype=np.uint8)
        for observable in mechanism.observables:
            expected[observable] = 1
        assert np.array_equal(prediction, expected)


class TestBPOSDInternals:
    def test_osd_solution_reproduces_syndrome(self, steane):
        dem = _steane_dem(steane)
        decoder = BPOSDDecoder(dem)
        rng = np.random.default_rng(3)
        faults = (rng.random(dem.num_mechanisms) < dem.priors * 20).astype(np.uint8)
        syndrome = (dem.check_matrix.astype(np.int64) @ faults.astype(np.int64)) % 2
        error = decoder._osd_zero(syndrome.astype(np.uint8), np.log(1 / dem.priors))
        reproduced = (dem.check_matrix.astype(np.int64) @ error.astype(np.int64)) % 2
        assert np.array_equal(reproduced.astype(np.uint8), syndrome.astype(np.uint8))

    def test_iteration_budget_respected(self, steane):
        dem = _steane_dem(steane)
        decoder = BPOSDDecoder(dem, max_iterations=2)
        batch = sample_detector_error_model(dem, 30, seed=1)
        predictions = decoder.decode_batch(batch.detectors)
        assert predictions.shape == (30, dem.num_observables)


class TestUnionFindInternals:
    def test_growth_terminates_on_full_syndrome(self, steane):
        dem = _steane_dem(steane)
        decoder = UnionFindDecoder(dem)
        syndrome = np.ones(dem.num_detectors, dtype=np.uint8)
        prediction = decoder.decode(syndrome)
        assert prediction.shape == (dem.num_observables,)

    def test_growth_rounds_are_not_a_setting(self, steane):
        dem = _steane_dem(steane)
        with pytest.raises(TypeError, match="max_growth_rounds"):
            UnionFindDecoder(dem, max_growth_rounds=1)
        # The registry refuses the retired spec argument in one line.
        with pytest.raises(ValueError, match="accepted: none") as raised:
            decoders.build("unionfind:max_growth_rounds=3")
        assert "\n" not in str(raised.value)
        assert decoders.build("unionfind") is UnionFindDecoder
        batch = sample_detector_error_model(dem, 20, seed=2)
        predictions = UnionFindDecoder(dem).decode_batch(batch.detectors)
        assert predictions.shape == (20, dem.num_observables)


class TestLookupPackedKeys:
    """The 64-detector boundary of the lookup decoder's packed key table.

    63 and 64 detectors pack into one platform-independent little-endian
    ``uint64`` word (``np.dtype('<u8')``); 65 detectors take two words.
    In all three regimes the batch paths must agree bit for bit with
    per-shot ``decode``.
    """

    @staticmethod
    def _chain_dem(num_detectors):
        """A repetition-code-like DEM: mechanism i flips detectors {i, i+1}."""
        from repro.sim.dem import DetectorErrorModel, ErrorMechanism

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

    @pytest.mark.parametrize("num_detectors", [63, 64, 65])
    def test_decode_batch_matches_per_shot_decode(self, num_detectors):
        dem = self._chain_dem(num_detectors)
        decoder = LookupDecoder(dem, max_order=1)
        rng = np.random.default_rng(num_detectors)
        # Mix reachable syndromes (from sampling) with unreachable random
        # ones so the "no logical flip" fallback is exercised too.
        sampled = sample_detector_error_model(dem, 100, seed=3)
        random_syndromes = (rng.random((50, num_detectors)) < 0.2).astype(np.uint8)
        syndromes = np.concatenate([sampled.detectors, random_syndromes])
        batched = decoder.decode_batch(syndromes)
        reference = np.array(
            [decoder.decode(syndrome) for syndrome in syndromes], dtype=np.uint8
        )
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("num_detectors", [63, 64, 65])
    def test_decode_batch_packed_matches_decode_batch(self, num_detectors):
        from repro.sim.bitops import pack_rows

        dem = self._chain_dem(num_detectors)
        decoder = LookupDecoder(dem, max_order=1)
        sampled = sample_detector_error_model(dem, 80, seed=4)
        assert np.array_equal(
            decoder.decode_batch_packed(sampled.packed_detectors),
            decoder.decode_batch(sampled.detectors),
        )
        # Packed words are identical to the table keys (same '<u8' layout).
        assert np.array_equal(
            pack_rows(sampled.detectors), sampled.packed_detectors
        )

    def test_packed_keys_are_little_endian(self, steane):
        dem = _steane_dem(steane)
        decoder = LookupDecoder(dem)
        assert decoder._packed_keys is not None
        assert decoder._packed_keys.dtype == np.dtype("<u8")


class TestLookupParameterValidation:
    @pytest.mark.parametrize("max_order", [-1, 2.5, "3", True, None])
    def test_constructor_rejects(self, steane, max_order):
        with pytest.raises(ValueError, match="max_order") as info:
            LookupDecoder(_steane_dem(steane), max_order=max_order)
        message = str(info.value)
        assert repr(max_order) in message and "\n" not in message

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("lookup:max_order=-1", "max_order must be a non-negative integer, got -1"),
            ("lookup:max_order=2.5", "max_order must be a non-negative integer, got 2.5"),
        ],
    )
    def test_registry_spec_rejects(self, spec, fragment):
        with pytest.raises(ValueError) as info:
            decoders.build(spec)
        assert fragment in str(info.value)

    def test_boundary_values_accepted(self, steane):
        dem = _steane_dem(steane)
        for max_order in (0, np.int64(1)):
            assert isinstance(LookupDecoder(dem, max_order=max_order), LookupDecoder)
        decoder = decoders.build("lookup:max_order=0")(dem)
        # Order 0 holds only the empty pattern: every syndrome predicts no flip.
        assert len(decoder._packed_keys) == 1
