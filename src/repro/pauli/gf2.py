"""Dense linear algebra over GF(2).

All matrices are ``numpy`` arrays with entries in ``{0, 1}`` (dtype ``uint8``
is used internally).  The routines here are the workhorses behind logical
operator derivation, code-distance search, OSD post-processing, and the
union-find decoder's cluster-validity checks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gf2_row_reduce",
    "gf2_rank",
    "gf2_solve",
    "gf2_nullspace",
    "gf2_inverse",
    "gf2_matmul",
    "gf2_row_span_contains",
]


def _as_gf2(matrix: np.ndarray) -> np.ndarray:
    """Return a uint8 copy of ``matrix`` reduced modulo 2."""
    arr = np.array(matrix, dtype=np.uint8, copy=True)
    arr &= 1
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def gf2_row_reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row reduce ``matrix`` over GF(2) to reduced row-echelon form.

    Returns the reduced matrix and the list of pivot column indices.  Zero
    rows are kept (at the bottom) so the output has the same shape as the
    input.
    """
    mat = _as_gf2(matrix)
    rows, cols = mat.shape
    pivots: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        candidates = np.nonzero(mat[pivot_row:, col])[0]
        if candidates.size == 0:
            continue
        swap = pivot_row + candidates[0]
        if swap != pivot_row:
            mat[[pivot_row, swap]] = mat[[swap, pivot_row]]
        # Eliminate the pivot column from every other row.
        targets = np.nonzero(mat[:, col])[0]
        for row in targets:
            if row != pivot_row:
                mat[row] ^= mat[pivot_row]
        pivots.append(col)
        pivot_row += 1
    return mat, pivots


def gf2_rank(matrix: np.ndarray) -> int:
    """Return the GF(2) rank of ``matrix``."""
    if np.asarray(matrix).size == 0:
        return 0
    _, pivots = gf2_row_reduce(matrix)
    return len(pivots)


#: Below this many scalar multiply-adds the dense int64 product wins (packing
#: overhead dominates); above it the bit-packed popcount kernel takes over.
_PACKED_MATMUL_MIN_OPS = 1 << 18


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two GF(2) matrices (or matrix-vector) modulo 2.

    Small products use a dense ``int64`` matmul; large 2-D products are
    routed through the bit-packed AND/popcount kernel in
    :mod:`repro.sim.bitops` (64 entries per word operation).  Both paths
    return identical uint8 results.
    """
    left = np.asarray(a, dtype=np.uint8)
    right = np.asarray(b, dtype=np.uint8)
    if (
        left.ndim == 2
        and right.ndim == 2
        and left.shape[1] == right.shape[0]
        and left.shape[0] * left.shape[1] * right.shape[1] >= _PACKED_MATMUL_MIN_OPS
    ):
        # Imported lazily: repro.pauli is a base layer and must not pull the
        # simulation stack in at import time.
        from repro.sim.bitops import pack_rows, packed_matmul_parity

        return packed_matmul_parity(pack_rows(left), pack_rows(right.T))
    product = left.astype(np.int64) @ right.astype(np.int64)
    return (product % 2).astype(np.uint8)


def gf2_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve ``matrix @ x = rhs`` over GF(2).

    Returns one solution vector, or ``None`` when the system is
    inconsistent.  ``rhs`` may be a vector of length equal to the number of
    rows of ``matrix``.
    """
    mat = _as_gf2(matrix)
    vec = np.asarray(rhs, dtype=np.uint8).reshape(-1) & 1
    rows, cols = mat.shape
    if vec.shape[0] != rows:
        raise ValueError(
            f"rhs length {vec.shape[0]} does not match matrix rows {rows}"
        )
    augmented = np.concatenate([mat, vec.reshape(-1, 1)], axis=1)
    reduced, pivots = gf2_row_reduce(augmented)
    # Inconsistent if a pivot lands in the augmented column.
    if cols in pivots:
        return None
    solution = np.zeros(cols, dtype=np.uint8)
    for row_index, col in enumerate(pivots):
        solution[col] = reduced[row_index, cols]
    return solution


def gf2_nullspace(matrix: np.ndarray) -> np.ndarray:
    """Return a basis of the right null space of ``matrix`` over GF(2).

    The result has one basis vector per row; it may be empty (shape
    ``(0, cols)``) when the matrix has full column rank.
    """
    mat = _as_gf2(matrix)
    rows, cols = mat.shape
    reduced, pivots = gf2_row_reduce(mat)
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free_cols), cols), dtype=np.uint8)
    for basis_index, free in enumerate(free_cols):
        basis[basis_index, free] = 1
        for row_index, piv in enumerate(pivots):
            if reduced[row_index, free]:
                basis[basis_index, piv] = 1
    return basis


def gf2_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(2) matrix; raises ``ValueError`` if singular."""
    mat = _as_gf2(matrix)
    rows, cols = mat.shape
    if rows != cols:
        raise ValueError("only square matrices can be inverted")
    augmented = np.concatenate([mat, np.eye(rows, dtype=np.uint8)], axis=1)
    reduced, pivots = gf2_row_reduce(augmented)
    if pivots[: rows] != list(range(rows)) or len(pivots) < rows:
        raise ValueError("matrix is singular over GF(2)")
    return reduced[:, rows:]


def gf2_row_span_contains(matrix: np.ndarray, vector: np.ndarray) -> bool:
    """Return ``True`` when ``vector`` lies in the row span of ``matrix``."""
    mat = _as_gf2(matrix)
    vec = np.asarray(vector, dtype=np.uint8).reshape(1, -1) & 1
    if mat.size == 0:
        return not vec.any()
    base_rank = gf2_rank(mat)
    stacked = np.concatenate([mat, vec], axis=0)
    return gf2_rank(stacked) == base_rank
