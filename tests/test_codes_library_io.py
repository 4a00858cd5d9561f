"""Tests for the code registry and the artifact JSON serialisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.logicals_reference import (
    coset_representatives,
    independent_rows,
    reference_logicals,
)

from repro.api.registries import codes
from repro.codes.base import _independent_rows, _independent_vectors
from repro.io import code_from_dict, code_to_dict, dump_code_json, load_code_json
from repro.pauli import commutes


class TestRegistry:
    def test_available_codes_sorted_and_nonempty(self):
        names = codes.available()
        assert names == sorted(names)
        assert len(names) >= 25

    def test_every_registered_code_constructs(self):
        # Skip the largest entries to keep the test fast; they are covered by
        # the family-specific tests.  stimfile is argument-only (it imports an
        # external circuit file named in the spec) — covered by the interop tests.
        skip = {"rotated_surface_d9", "rotated_surface_d7", "hexagonal_color_d9", "stimfile"}
        for name in codes.available():
            if name in skip:
                continue
            code = codes.build(name)
            assert code.num_qubits > 0
            assert code.num_logical_qubits >= 0

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="available"):
            codes.build("not_a_code")

    def test_paper_table2_codes_present(self):
        names = set(codes.available())
        for required in (
            "hexagonal_color_d3",
            "hexagonal_color_d9",
            "square_octagonal_d3",
            "defect_surface_d5",
            "bb_72_12_6",
        ):
            assert required in names


class TestLogicalDerivationOracle:
    """One echelon-basis helper picks what stack-and-re-rank picked."""

    @pytest.mark.parametrize("name", [n for n in codes.available() if n != "stimfile"])
    def test_derived_logicals_match_reference(self, name):
        code = codes.build(name)
        # Re-derive even where the family sets hand-picked logicals.
        code._derive_logicals()
        logical_xs, logical_zs = reference_logicals(code)
        assert code.logical_xs == logical_xs
        assert code.logical_zs == logical_zs

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(0, 1), min_size=cols, max_size=cols), min_size=1, max_size=9
            )
        ),
        st.integers(0, 4),
    )
    def test_row_selection_matches_reference(self, rows, split):
        matrix = np.array(rows, dtype=np.uint8)
        assert np.array_equal(_independent_rows(matrix), independent_rows(matrix))
        span, kernel = matrix[:split], matrix[split:]
        kept = _independent_vectors(kernel, span=span)
        expected = coset_representatives(kernel, span)
        assert [v.tolist() for v in kept] == [v.tolist() for v in expected]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ["steane", "rotated_surface_d3", "five_qubit", "toric_d3"])
    def test_round_trip_preserves_parameters(self, name):
        code = codes.build(name)
        payload = code_to_dict(code)
        again = code_from_dict(payload)
        assert again.num_qubits == code.num_qubits
        assert again.num_logical_qubits == code.num_logical_qubits
        assert again.num_stabilizers == code.num_stabilizers

    def test_round_trip_preserves_logicals(self, steane):
        payload = code_to_dict(steane)
        again = code_from_dict(payload)
        for logical, original in zip(again.logical_xs, steane.logical_xs):
            assert logical.equal_up_to_sign(original)

    def test_file_round_trip(self, tmp_path, surface_d3):
        path = tmp_path / "surface.json"
        dump_code_json(surface_d3, path)
        loaded = load_code_json(path)
        assert loaded.num_qubits == 9
        assert loaded.num_logical_qubits == 1

    def test_inconsistent_k_rejected(self, steane):
        payload = code_to_dict(steane)
        payload["k"] = 3
        with pytest.raises(Exception):
            code_from_dict(payload)

    def test_missing_stabilizers_rejected(self):
        with pytest.raises(Exception):
            code_from_dict({"n": 4, "k": 1})

    def test_loaded_code_is_valid_stabilizer_group(self, five_qubit):
        again = code_from_dict(code_to_dict(five_qubit))
        for first in again.stabilizers:
            for second in again.stabilizers:
                assert commutes(first, second)
