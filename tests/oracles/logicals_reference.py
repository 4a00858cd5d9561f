"""Reference independence loops: stack one candidate, re-rank from scratch.

These are the original row-selection loops of :mod:`repro.codes.base`,
kept as the oracle for its one echelon-basis helper.  Each candidate is
stacked under everything kept so far and the whole matrix is re-ranked with
:func:`repro.pauli.gf2.gf2_rank`; a candidate is kept when the rank grows.
Independence does not depend on how it is tested, so the production
helper must keep exactly the same vectors in the same order.

:func:`reference_logicals` replays the original logical-operator
derivation of both code classes on top of these loops.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import CodeValidationError, CSSCode, _symplectic_form
from repro.pauli import PauliString
from repro.pauli.gf2 import gf2_inverse, gf2_matmul, gf2_nullspace, gf2_rank

__all__ = ["independent_rows", "coset_representatives", "reference_logicals"]


def independent_rows(matrix: np.ndarray) -> np.ndarray:
    """Return a maximal independent subset of the rows of ``matrix``."""
    kept: list[np.ndarray] = []
    rank = 0
    for row in matrix:
        candidate = kept + [row]
        new_rank = gf2_rank(np.array(candidate, dtype=np.uint8))
        if new_rank > rank:
            kept.append(row)
            rank = new_rank
    if not kept:
        return np.zeros((0, matrix.shape[1]), dtype=np.uint8)
    return np.array(kept, dtype=np.uint8)


def coset_representatives(kernel: np.ndarray, span: np.ndarray) -> list[np.ndarray]:
    """Return kernel vectors extending the row span of ``span`` (one per coset)."""
    representatives: list[np.ndarray] = []
    accumulated = span.copy() if span.size else np.zeros((0, kernel.shape[1]), np.uint8)
    rank = gf2_rank(accumulated)
    for vector in kernel:
        stacked = np.vstack([accumulated, vector.reshape(1, -1)])
        new_rank = gf2_rank(stacked)
        if new_rank > rank:
            representatives.append(vector)
            accumulated = stacked
            rank = new_rank
    return representatives


def _stabilizer_logicals(code) -> tuple[list[PauliString], list[PauliString]]:
    n = code.num_qubits
    stab = code.stabilizer_matrix()
    lam = _symplectic_form(n)
    normalizer = gf2_nullspace(gf2_matmul(stab, lam))
    logicals: list[np.ndarray] = []
    accumulated = stab.copy()
    rank = gf2_rank(accumulated)
    for candidate in normalizer:
        stacked = np.vstack([accumulated, candidate.reshape(1, -1)])
        new_rank = gf2_rank(stacked)
        if new_rank > rank:
            logicals.append(candidate)
            accumulated = stacked
            rank = new_rank
        if len(logicals) == 2 * code.num_logical_qubits:
            break
    if len(logicals) != 2 * code.num_logical_qubits:
        raise CodeValidationError("failed to derive a complete logical basis")
    pairs = code._symplectic_pairing(np.array(logicals, dtype=np.uint8), lam)
    return (
        [PauliString.from_symplectic(x) for x, _ in pairs],
        [PauliString.from_symplectic(z) for _, z in pairs],
    )


def _css_logicals(code: CSSCode) -> tuple[list[PauliString], list[PauliString]]:
    n = code.num_qubits
    lx_candidates = coset_representatives(gf2_nullspace(code.hz), code.hx)
    lz_candidates = coset_representatives(gf2_nullspace(code.hx), code.hz)
    k = code.num_logical_qubits
    if len(lx_candidates) != k or len(lz_candidates) != k:
        raise CodeValidationError("CSS logical derivation produced wrong count")
    if k == 0:
        return [], []
    lx = np.array(lx_candidates, dtype=np.uint8)
    lz = np.array(lz_candidates, dtype=np.uint8)
    transform = gf2_inverse(gf2_matmul(lx, lz.T)).T
    lz = gf2_matmul(transform, lz)
    zeros = np.zeros(n, dtype=np.uint8)
    return (
        [PauliString(xs=row, zs=zeros) for row in lx],
        [PauliString(xs=zeros, zs=row) for row in lz],
    )


def reference_logicals(code) -> tuple[list[PauliString], list[PauliString]]:
    """``(logical_xs, logical_zs)`` as the original derivation of ``code``'s class."""
    if isinstance(code, CSSCode):
        return _css_logicals(code)
    return _stabilizer_logicals(code)
