"""Pauli algebra and GF(2) linear algebra primitives.

This package provides the symplectic binary representation of Pauli strings
used throughout the code library, the simulators, and the decoders, together
with the GF(2) linear-algebra routines (row reduction, rank, solving, null
spaces) that stabilizer-code constructions rely on.
"""

from repro.pauli.gf2 import (
    gf2_inverse,
    gf2_matmul,
    gf2_nullspace,
    gf2_rank,
    gf2_row_reduce,
    gf2_row_span_contains,
    gf2_solve,
)
from repro.pauli.pauli import PauliString, commutes, pauli_product_phase

__all__ = [
    "PauliString",
    "commutes",
    "pauli_product_phase",
    "gf2_inverse",
    "gf2_matmul",
    "gf2_nullspace",
    "gf2_rank",
    "gf2_row_reduce",
    "gf2_row_span_contains",
    "gf2_solve",
]
