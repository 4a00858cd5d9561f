"""The array-native :class:`DetectorErrorModel` against its mechanism-list contract.

A model's state is ``priors`` plus CSR detector and observable incidence;
``mechanisms``, ``check_matrix`` and ``observable_matrix`` are derived from
it.  The oracles here are the per-mechanism loops the model used to run on
a list of :class:`ErrorMechanism` objects.
"""

from __future__ import annotations

import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.sim.dem
from repro.api import codes, decoders
from repro.api.registries import samplers
from repro.circuits import build_memory_experiment
from repro.io.stim_text import parse_stim_circuit
from repro.noise import brisbane_noise
from repro.scheduling import lowest_depth_schedule
from repro.sim.dem import DetectorErrorModel, ErrorMechanism, build_detector_error_model
from repro.sim.sampler import sample_detector_error_model


def _loop_check_matrix(num_detectors, mechanisms) -> np.ndarray:
    matrix = np.zeros((num_detectors, len(mechanisms)), dtype=np.uint8)
    for column, mechanism in enumerate(mechanisms):
        for detector in mechanism.detectors:
            matrix[detector, column] = 1
    return matrix


def _loop_observable_matrix(num_observables, mechanisms) -> np.ndarray:
    matrix = np.zeros((num_observables, len(mechanisms)), dtype=np.uint8)
    for column, mechanism in enumerate(mechanisms):
        for observable in mechanism.observables:
            matrix[observable, column] = 1
    return matrix


@st.composite
def mechanism_lists(draw):
    num_detectors = draw(st.integers(0, 70))
    num_observables = draw(st.integers(0, 3))
    mechanisms = draw(
        st.lists(
            st.builds(
                ErrorMechanism,
                st.floats(0.0, 0.5),
                st.frozensets(st.integers(0, max(num_detectors - 1, 0)), max_size=5)
                if num_detectors
                else st.just(frozenset()),
                st.frozensets(st.integers(0, max(num_observables - 1, 0)), max_size=2)
                if num_observables
                else st.just(frozenset()),
            ),
            max_size=30,
        )
    )
    return num_detectors, num_observables, mechanisms


def _built(code: str, basis: str = "Z") -> DetectorErrorModel:
    built = codes.build(code)
    circuit = build_memory_experiment(
        built, lowest_depth_schedule(built), brisbane_noise(), basis=basis
    ).circuit
    return build_detector_error_model(circuit)


def _assert_rows_match_matrices(dem: DetectorErrorModel) -> None:
    for matrix, rows in (
        (dem.check_matrix, dem.detector_mechanisms),
        (dem.observable_matrix, dem.observable_mechanisms),
    ):
        assert len(rows) == matrix.shape[0]
        for row, members in zip(matrix, rows):
            assert members.tolist() == np.flatnonzero(row).tolist()


@pytest.fixture(scope="module", params=["surface:d=3", "bb_18"])
def built_dem(request):
    return _built(request.param)


class TestMechanismList:
    @settings(max_examples=100, deadline=None)
    @given(mechanism_lists())
    def test_list_round_trips(self, case):
        num_detectors, num_observables, mechanisms = case
        dem = DetectorErrorModel(num_detectors, num_observables, mechanisms)
        assert type(dem.mechanisms) is list
        assert dem.mechanisms == mechanisms
        assert dem.num_mechanisms == len(mechanisms)

    def test_keywords_and_defaults(self):
        mechanisms = [ErrorMechanism(0.1, frozenset({2, 0}), frozenset({1}))]
        dem = DetectorErrorModel(num_detectors=3, num_observables=2, mechanisms=mechanisms)
        assert dem.mechanisms == mechanisms
        assert dem.detector_indices.tolist() == [0, 2]
        empty = DetectorErrorModel(num_detectors=4, num_observables=1)
        assert (empty.num_mechanisms, empty.mechanisms) == (0, [])
        assert empty.check_matrix.shape == (4, 0)

    def test_equality_is_the_mechanism_list(self, built_dem):
        copy = DetectorErrorModel(
            built_dem.num_detectors, built_dem.num_observables, built_dem.mechanisms
        )
        assert copy == built_dem
        wider = DetectorErrorModel(
            built_dem.num_detectors + 1, built_dem.num_observables, built_dem.mechanisms
        )
        assert wider != built_dem
        shorter = DetectorErrorModel(
            built_dem.num_detectors, built_dem.num_observables, built_dem.mechanisms[1:]
        )
        assert shorter != built_dem
        assert built_dem != "not a model"


class TestDerivedArrays:
    @settings(max_examples=100, deadline=None)
    @given(mechanism_lists())
    def test_matrices_and_priors_match_the_loops(self, case):
        num_detectors, num_observables, mechanisms = case
        dem = DetectorErrorModel(num_detectors, num_observables, mechanisms)
        np.testing.assert_array_equal(
            dem.check_matrix, _loop_check_matrix(num_detectors, mechanisms)
        )
        np.testing.assert_array_equal(
            dem.observable_matrix, _loop_observable_matrix(num_observables, mechanisms)
        )
        assert dem.priors.tolist() == [m.probability for m in mechanisms]
        assert dem.check_matrix.dtype == dem.observable_matrix.dtype == np.uint8

    def test_built_model_matches_the_loops(self, built_dem):
        mechanisms = built_dem.mechanisms
        np.testing.assert_array_equal(
            built_dem.check_matrix, _loop_check_matrix(built_dem.num_detectors, mechanisms)
        )
        np.testing.assert_array_equal(
            built_dem.observable_matrix,
            _loop_observable_matrix(built_dem.num_observables, mechanisms),
        )
        assert built_dem.priors.tolist() == [m.probability for m in mechanisms]

    def test_per_row_mechanisms_are_the_matrix_rows(self, built_dem):
        _assert_rows_match_matrices(built_dem)

    @settings(max_examples=100, deadline=None)
    @given(mechanism_lists())
    def test_per_row_mechanisms_on_mechanism_lists(self, case):
        """Includes models with no detectors or no observables: no rows at all."""
        _assert_rows_match_matrices(DetectorErrorModel(*case))

    @settings(max_examples=100, deadline=None)
    @given(mechanism_lists())
    def test_graphlike_matches_the_definition(self, case):
        dem = DetectorErrorModel(*case)
        assert dem.is_graphlike() == all(len(m.detectors) <= 2 for m in case[2])

    def test_graphlike_on_built_models(self):
        for dem in (_built("surface:d=3"), _built("color:d=3"), _built("bb_18")):
            assert dem.is_graphlike() == all(len(m.detectors) <= 2 for m in dem.mechanisms)


class TestReadOnly:
    def test_in_place_writes_raise(self, built_dem):
        arrays = [
            built_dem.priors,
            built_dem.detector_indptr,
            built_dem.detector_indices,
            built_dem.observable_indptr,
            built_dem.observable_indices,
            built_dem.check_matrix,
            built_dem.observable_matrix,
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            built_dem.priors *= 2

    def test_constructor_copies_its_input(self):
        priors = np.array([0.1, 0.2])
        dem = DetectorErrorModel.from_arrays(
            2, 0, priors, [0, 1, 2], [0, 1], [0, 0, 0], []
        )
        priors[0] = 0.4
        assert dem.priors.tolist() == [0.1, 0.2]

    def test_inconsistent_pointers_are_refused(self):
        with pytest.raises(ValueError, match="3 entries"):
            DetectorErrorModel.from_arrays(2, 0, [0.1, 0.2], [0, 1], [0], [0, 0, 0], [])


class TestPickle:
    def test_round_trip(self, built_dem):
        copy = pickle.loads(pickle.dumps(built_dem))
        assert copy == built_dem
        assert copy.mechanisms == built_dem.mechanisms
        with pytest.raises(ValueError, match="read-only"):
            copy.priors[0] = 0.0

    def test_derived_views_are_not_shipped(self, built_dem):
        fresh = DetectorErrorModel.from_arrays(
            built_dem.num_detectors,
            built_dem.num_observables,
            built_dem.priors,
            built_dem.detector_indptr,
            built_dem.detector_indices,
            built_dem.observable_indptr,
            built_dem.observable_indices,
        )
        built_dem.mechanisms, built_dem.check_matrix, built_dem.detector_mechanisms
        assert pickle.dumps(built_dem) == pickle.dumps(fresh)


class TestSampledShapes:
    """A model without observables (or detectors) samples zero columns of them."""

    def test_noisy_circuit_without_observables(self):
        circuit = parse_stim_circuit(
            "R 0 1\nX_ERROR(0.2) 0 1\nM 0 1\nDETECTOR rec[-2]\nDETECTOR rec[-1]\n"
        )
        dem = build_detector_error_model(circuit)
        assert (dem.num_detectors, dem.num_observables, dem.num_mechanisms) == (2, 0, 2)
        batch = sample_detector_error_model(dem, 50, seed=1)
        assert batch.detectors.shape == (50, 2)
        assert batch.observables.shape == (50, 0)

    def test_model_without_detectors(self):
        dem = DetectorErrorModel(0, 1, [ErrorMechanism(0.3, frozenset(), frozenset({0}))])
        batch = sample_detector_error_model(dem, 40, seed=2)
        assert batch.detectors.shape == (40, 0)
        assert batch.observables.shape == (40, 1)


class TestEvaluationPathIsArrayNative:
    """Build -> sample -> decoder construction builds no per-mechanism objects."""

    @pytest.mark.parametrize("decoder", ["mwpm", "bposd", "unionfind", "lookup"])
    def test_no_error_mechanism_is_built(self, decoder, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an ErrorMechanism was built on the evaluation path")

        monkeypatch.setattr(repro.sim.dem, "ErrorMechanism", refuse)
        built = codes.build("steane" if decoder == "lookup" else "surface:d=3")
        circuit = build_memory_experiment(
            built, lowest_depth_schedule(built), brisbane_noise(), basis="Z"
        ).circuit
        dem = build_detector_error_model(circuit)
        batch = samplers.build("dem")(circuit, dem).sample(64, seed=3)
        decoders.build(decoder)(dem).decode_batch_packed(batch.packed_detectors)
        assert "mechanisms" not in vars(dem)
