"""Unit and property tests for Pauli-string algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString, commutes


def pauli_strings(num_qubits: int = 5):
    return st.text(alphabet="IXYZ", min_size=num_qubits, max_size=num_qubits).map(
        PauliString.from_string
    )


class TestConstruction:
    def test_from_string(self):
        pauli = PauliString.from_string("XZIY")
        assert pauli.pauli_at(0) == "X"
        assert pauli.pauli_at(1) == "Z"
        assert pauli.pauli_at(2) == "I"
        assert pauli.pauli_at(3) == "Y"
        assert pauli.weight == 3
        assert pauli.support == [0, 1, 3]

    def test_from_string_with_sign(self):
        assert PauliString.from_string("-XX").sign == -1
        assert PauliString.from_string("+ZZ").sign == 1

    def test_from_sparse(self):
        pauli = PauliString.from_sparse(5, {0: "X", 4: "Z"})
        assert str(pauli) == "+XIIIZ"

    def test_from_sparse_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_sparse(3, {5: "X"})

    def test_invalid_character(self):
        with pytest.raises(ValueError):
            PauliString.from_string("XQ")

    def test_identity(self):
        identity = PauliString.identity(4)
        assert identity.is_identity()
        assert identity.weight == 0

    def test_symplectic_round_trip(self):
        pauli = PauliString.from_string("XYZI")
        again = PauliString.from_symplectic(pauli.to_symplectic())
        assert again.equal_up_to_sign(pauli)

    def test_mismatched_xs_zs(self):
        with pytest.raises(ValueError):
            PauliString(xs=np.zeros(3, dtype=np.uint8), zs=np.zeros(4, dtype=np.uint8))


class TestCommutation:
    def test_xx_and_zz_commute(self):
        assert commutes(PauliString.from_string("XX"), PauliString.from_string("ZZ"))

    def test_x_and_z_anticommute(self):
        assert not commutes(PauliString.from_string("X"), PauliString.from_string("Z"))

    def test_surface_code_plaquette_pair(self):
        # Two plaquettes sharing two qubits commute.
        first = PauliString.from_string("XXXXII")
        second = PauliString.from_string("IIZZZZ")
        assert commutes(first, second)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            commutes(PauliString.from_string("X"), PauliString.from_string("XX"))

    @given(pauli_strings(), pauli_strings())
    @settings(max_examples=80, deadline=None)
    def test_commutation_is_symmetric(self, first, second):
        assert commutes(first, second) == commutes(second, first)

    @given(pauli_strings())
    @settings(max_examples=40, deadline=None)
    def test_everything_commutes_with_itself(self, pauli):
        assert commutes(pauli, pauli)

    @given(pauli_strings())
    @settings(max_examples=40, deadline=None)
    def test_identity_commutes_with_everything(self, pauli):
        assert commutes(PauliString.identity(pauli.num_qubits), pauli)


class TestMultiplication:
    def test_x_times_x_is_identity(self):
        product = PauliString.from_string("X") * PauliString.from_string("X")
        assert product.is_identity()

    def test_support_is_symmetric_difference(self):
        first = PauliString.from_string("XXI")
        second = PauliString.from_string("IXX")
        product = first * second
        assert product.support == [0, 2]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PauliString.from_string("X") * PauliString.from_string("XX")

    @given(pauli_strings(), pauli_strings())
    @settings(max_examples=80, deadline=None)
    def test_product_bits_are_xor(self, first, second):
        product = first * second
        assert np.array_equal(product.xs, first.xs ^ second.xs)
        assert np.array_equal(product.zs, first.zs ^ second.zs)

    @given(pauli_strings())
    @settings(max_examples=40, deadline=None)
    def test_self_product_is_identity(self, pauli):
        assert (pauli * pauli).is_identity()

    @given(pauli_strings(), pauli_strings())
    @settings(max_examples=60, deadline=None)
    def test_commuting_products_share_bits_regardless_of_order(self, first, second):
        forward = first * second
        backward = second * first
        assert forward.equal_up_to_sign(backward)
        if commutes(first, second):
            assert forward.sign == backward.sign


class TestHashingAndEquality:
    def test_equal_strings_hash_equal(self):
        assert hash(PauliString.from_string("XZ")) == hash(PauliString.from_string("XZ"))

    def test_sign_matters_for_equality(self):
        assert PauliString.from_string("-XZ") != PauliString.from_string("XZ")
        assert PauliString.from_string("-XZ").equal_up_to_sign(PauliString.from_string("XZ"))

    def test_copy_is_independent(self):
        original = PauliString.from_string("XZ")
        clone = original.copy()
        clone.xs[0] = 0
        assert original.pauli_at(0) == "X"

    def test_repr_round_trip_text(self):
        pauli = PauliString.from_string("XIZY")
        assert "XIZY" in repr(pauli)


class TestSupportTypes:
    def test_support_holds_python_ints(self):
        support = PauliString.from_string("IXZIY").support
        assert support == [1, 2, 4]
        assert all(type(qubit) is int for qubit in support)
