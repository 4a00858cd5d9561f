"""Stabilizer and CSS code base classes.

A :class:`StabilizerCode` is defined by a list of commuting Pauli-string
stabilizer generators.  The class derives the number of encoded qubits, a
symplectically paired set of logical operators, and (bounded) code-distance
estimates, and exposes the per-stabilizer check structure that the
scheduling layer consumes (which data qubit is touched by which Pauli letter
of which stabilizer).

:class:`CSSCode` specialises the construction to codes given by a pair of
GF(2) parity-check matrices ``hx`` (X-type stabilizers) and ``hz`` (Z-type
stabilizers) with ``hx @ hz.T = 0``.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from repro.pauli import PauliString
from repro.pauli.gf2 import (
    gf2_inverse,
    gf2_matmul,
    gf2_nullspace,
    gf2_rank,
    gf2_row_span_contains,
)

__all__ = ["StabilizerCode", "CSSCode", "CodeValidationError"]


class CodeValidationError(ValueError):
    """Raised when a stabilizer set does not define a valid code."""


def _symplectic_form(num_qubits: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Lambda = [[0, I], [I, 0]]."""
    lam = np.zeros((2 * num_qubits, 2 * num_qubits), dtype=np.uint8)
    lam[:num_qubits, num_qubits:] = np.eye(num_qubits, dtype=np.uint8)
    lam[num_qubits:, :num_qubits] = np.eye(num_qubits, dtype=np.uint8)
    return lam


class StabilizerCode:
    """A stabilizer code defined by a list of commuting Pauli generators.

    Parameters
    ----------
    stabilizers:
        Independent, mutually commuting Pauli strings.  Dependent generators
        are rejected so that ``k = n - len(stabilizers)`` holds.
    name:
        Human readable identifier used in result tables.
    metadata:
        Free-form dictionary (e.g. lattice coordinates) preserved for
        schedule constructions that want geometric information.
    """

    def __init__(
        self,
        stabilizers: Sequence[PauliString],
        *,
        name: str = "stabilizer_code",
        distance: int | None = None,
        metadata: dict | None = None,
        validate: bool = True,
    ) -> None:
        if not stabilizers:
            raise CodeValidationError("a code needs at least one stabilizer")
        self.stabilizers: list[PauliString] = [s.copy() for s in stabilizers]
        self.name = name
        self.num_qubits = self.stabilizers[0].num_qubits
        self.metadata = dict(metadata or {})
        self._declared_distance = distance
        if validate:
            self._validate()
        self._logical_xs: list[PauliString] | None = None
        self._logical_zs: list[PauliString] | None = None

    # ------------------------------------------------------------------
    # Validation and basic invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = self.num_qubits
        for stab in self.stabilizers:
            if stab.num_qubits != n:
                raise CodeValidationError("stabilizers act on differing qubit counts")
        for first, second in itertools.combinations(self.stabilizers, 2):
            if not first.commutes_with(second):
                raise CodeValidationError(
                    f"stabilizers do not commute: {first} vs {second}"
                )
        matrix = self.stabilizer_matrix()
        if gf2_rank(matrix) != len(self.stabilizers):
            raise CodeValidationError("stabilizer generators are not independent")

    def stabilizer_matrix(self) -> np.ndarray:
        """Return the r x 2n symplectic generator matrix ``[X | Z]``."""
        return np.array(
            [s.to_symplectic() for s in self.stabilizers], dtype=np.uint8
        )

    @property
    def num_stabilizers(self) -> int:
        return len(self.stabilizers)

    @property
    def num_logical_qubits(self) -> int:
        return self.num_qubits - self.num_stabilizers

    @property
    def k(self) -> int:
        return self.num_logical_qubits

    @property
    def n(self) -> int:
        return self.num_qubits

    @property
    def declared_distance(self) -> int | None:
        return self._declared_distance

    def parameters(self) -> tuple[int, int, int | None]:
        """Return the ``[[n, k, d]]`` triple (d may be ``None`` if unknown)."""
        return self.num_qubits, self.num_logical_qubits, self._declared_distance

    # ------------------------------------------------------------------
    # Logical operators
    # ------------------------------------------------------------------
    @property
    def logical_xs(self) -> list[PauliString]:
        if self._logical_xs is None:
            self._derive_logicals()
        return list(self._logical_xs)

    @property
    def logical_zs(self) -> list[PauliString]:
        if self._logical_zs is None:
            self._derive_logicals()
        return list(self._logical_zs)

    def set_logicals(
        self, logical_xs: Sequence[PauliString], logical_zs: Sequence[PauliString]
    ) -> None:
        """Override the automatically derived logical operators.

        The provided operators are checked for the expected commutation
        relations with the stabilizers and with each other.
        """
        k = self.num_logical_qubits
        if len(logical_xs) != k or len(logical_zs) != k:
            raise CodeValidationError(f"expected {k} logical X and Z operators")
        for logical in list(logical_xs) + list(logical_zs):
            for stab in self.stabilizers:
                if not logical.commutes_with(stab):
                    raise CodeValidationError(
                        f"logical operator {logical} anticommutes with stabilizer"
                    )
        for i, lx in enumerate(logical_xs):
            for j, lz in enumerate(logical_zs):
                expected = i != j
                if lx.commutes_with(lz) != expected:
                    raise CodeValidationError(
                        "logical operators are not symplectically paired"
                    )
        self._logical_xs = [p.copy() for p in logical_xs]
        self._logical_zs = [p.copy() for p in logical_zs]

    def _derive_logicals(self) -> None:
        """Derive a symplectically paired logical basis from the stabilizers."""
        n = self.num_qubits
        stab = self.stabilizer_matrix()
        lam = _symplectic_form(n)
        # Normalizer: vectors v with S . Lambda . v^T = 0.
        constraint = gf2_matmul(stab, lam)
        normalizer = gf2_nullspace(constraint)
        # Extract coset representatives of the normalizer modulo the
        # stabilizer row space (2k of them).
        logicals = _independent_vectors(
            normalizer, span=stab, limit=2 * self.num_logical_qubits
        )
        if len(logicals) != 2 * self.num_logical_qubits:
            raise CodeValidationError("failed to derive a complete logical basis")
        pairs = self._symplectic_pairing(np.array(logicals, dtype=np.uint8), lam)
        self._logical_xs = [PauliString.from_symplectic(x) for x, _ in pairs]
        self._logical_zs = [PauliString.from_symplectic(z) for _, z in pairs]

    @staticmethod
    def _symplectic_pairing(
        vectors: np.ndarray, lam: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Pair rows of ``vectors`` into symplectically conjugate pairs.

        Implements the symplectic Gram-Schmidt procedure: repeatedly take a
        vector, find a partner that anticommutes with it, and strip both from
        every remaining vector so later pairs commute with earlier ones.
        """
        remaining = [row.copy() for row in vectors]
        pairs: list[tuple[np.ndarray, np.ndarray]] = []

        def sym_product(a: np.ndarray, b: np.ndarray) -> int:
            return int(gf2_matmul(a.reshape(1, -1), gf2_matmul(lam, b.reshape(-1, 1)))[0, 0])

        while remaining:
            first = remaining.pop(0)
            partner_index = None
            for index, other in enumerate(remaining):
                if sym_product(first, other) == 1:
                    partner_index = index
                    break
            if partner_index is None:
                # ``first`` commutes with everything left; it must be a
                # dependent leftover, which cannot happen for a full basis.
                raise CodeValidationError("symplectic pairing failed")
            partner = remaining.pop(partner_index)
            cleaned: list[np.ndarray] = []
            for other in remaining:
                adjusted = other.copy()
                if sym_product(adjusted, partner) == 1:
                    adjusted ^= first
                if sym_product(adjusted, first) == 1:
                    adjusted ^= partner
                cleaned.append(adjusted)
            remaining = cleaned
            pairs.append((first, partner))
        return pairs

    # ------------------------------------------------------------------
    # Distance estimation
    # ------------------------------------------------------------------
    def logical_weight_upper_bound(self, *, trials: int = 200, seed: int = 0) -> int:
        """Randomised upper bound on the code distance.

        Multiplies logical representatives by random stabilizer subsets and
        records the minimum weight seen.
        """
        rng = np.random.default_rng(seed)
        stab = self.stabilizer_matrix()
        best = self.num_qubits
        logicals = [p.to_symplectic() for p in self.logical_xs + self.logical_zs]
        for logical in logicals:
            best = min(best, _symplectic_weight(logical))
            for _ in range(trials):
                mask = rng.integers(0, 2, size=stab.shape[0], dtype=np.uint8)
                candidate = (logical ^ gf2_matmul(mask.reshape(1, -1), stab).reshape(-1))
                best = min(best, _symplectic_weight(candidate))
        return int(best)

    def exact_distance(self, *, max_weight: int | None = None) -> int | None:
        """Exhaustively search for the minimum-weight logical operator.

        Returns the distance if it is at most ``max_weight`` (default: the
        declared distance, or 6), otherwise ``None``.  Only intended for
        small codes used in tests.
        """
        limit = max_weight or self._declared_distance or 6
        stab = self.stabilizer_matrix()
        n = self.num_qubits
        lam = _symplectic_form(n)
        constraint = gf2_matmul(stab, lam)
        for weight in range(1, limit + 1):
            for support in itertools.combinations(range(n), weight):
                for letters in itertools.product("XZY", repeat=weight):
                    pauli = PauliString.from_sparse(n, zip(support, letters))
                    vec = pauli.to_symplectic()
                    syndrome = gf2_matmul(constraint, vec.reshape(-1, 1)).reshape(-1)
                    if syndrome.any():
                        continue
                    if not gf2_row_span_contains(stab, vec):
                        return weight
        return None

    # ------------------------------------------------------------------
    # Scheduling-facing structure
    # ------------------------------------------------------------------
    def checks(self) -> list[list[tuple[int, str]]]:
        """Return, per stabilizer, the list of ``(data_qubit, pauli_letter)`` checks."""
        result = []
        for stab in self.stabilizers:
            result.append([(q, stab.pauli_at(q)) for q in stab.support])
        return result

    def __repr__(self) -> str:
        n, k, d = self.parameters()
        d_text = "?" if d is None else str(d)
        return f"<{type(self).__name__} {self.name} [[{n},{k},{d_text}]]>"


def _symplectic_weight(vector: np.ndarray) -> int:
    half = vector.shape[0] // 2
    return int(np.count_nonzero(vector[:half] | vector[half:]))


class CSSCode(StabilizerCode):
    """A CSS code defined by parity-check matrices ``hx`` and ``hz``.

    Rows of ``hx`` become X-type stabilizers, rows of ``hz`` become Z-type
    stabilizers.  The two matrices must satisfy ``hx @ hz.T = 0 (mod 2)``.
    Redundant (dependent) rows are allowed and are removed automatically,
    which is convenient for lattice constructions that naturally produce one
    dependent face.
    """

    def __init__(
        self,
        hx: np.ndarray,
        hz: np.ndarray,
        *,
        name: str = "css_code",
        distance: int | None = None,
        metadata: dict | None = None,
    ) -> None:
        hx_arr = np.asarray(hx, dtype=np.uint8) & 1
        hz_arr = np.asarray(hz, dtype=np.uint8) & 1
        if hx_arr.ndim != 2 or hz_arr.ndim != 2:
            raise CodeValidationError("hx and hz must be 2-D matrices")
        if hx_arr.shape[1] != hz_arr.shape[1]:
            raise CodeValidationError("hx and hz must have the same number of columns")
        if gf2_matmul(hx_arr, hz_arr.T).any():
            raise CodeValidationError("hx @ hz.T != 0: not a CSS code")
        self.hx = _independent_rows(hx_arr)
        self.hz = _independent_rows(hz_arr)
        n = hx_arr.shape[1]
        stabilizers = []
        for row in self.hx:
            stabilizers.append(PauliString(xs=row, zs=np.zeros(n, dtype=np.uint8)))
        for row in self.hz:
            stabilizers.append(PauliString(xs=np.zeros(n, dtype=np.uint8), zs=row))
        super().__init__(
            stabilizers,
            name=name,
            distance=distance,
            metadata=metadata,
            validate=False,
        )

    # CSS codes have a cheaper logical-operator derivation that also keeps
    # the X/Z structure (logical X supported on X letters only).
    def _derive_logicals(self) -> None:
        n = self.num_qubits
        lx_candidates = _independent_vectors(gf2_nullspace(self.hz), span=self.hx)
        lz_candidates = _independent_vectors(gf2_nullspace(self.hx), span=self.hz)
        k = self.num_logical_qubits
        if len(lx_candidates) != k or len(lz_candidates) != k:
            raise CodeValidationError("CSS logical derivation produced wrong count")
        if k == 0:
            self._logical_xs = []
            self._logical_zs = []
            return
        lx = np.array(lx_candidates, dtype=np.uint8)
        lz = np.array(lz_candidates, dtype=np.uint8)
        pairing = gf2_matmul(lx, lz.T)
        transform = gf2_inverse(pairing).T
        lz = gf2_matmul(transform, lz)
        zeros = np.zeros(n, dtype=np.uint8)
        self._logical_xs = [PauliString(xs=row, zs=zeros) for row in lx]
        self._logical_zs = [PauliString(xs=zeros, zs=row) for row in lz]

    def css_exact_distance(self, *, max_weight: int | None = None) -> int | None:
        """CSS-specialised exhaustive distance search (X and Z separately)."""
        limit = max_weight or self._declared_distance or 6
        best = None
        for kernel_of, span_of in ((self.hz, self.hx), (self.hx, self.hz)):
            found = _min_weight_coset_element(kernel_of, span_of, limit)
            if found is not None:
                best = found if best is None else min(best, found)
        return best


def _independent_vectors(
    candidates: Sequence[np.ndarray] | np.ndarray,
    *,
    span: Sequence[np.ndarray] | np.ndarray = (),
    limit: int | None = None,
) -> list[np.ndarray]:
    """The candidates independent of ``span``'s rows and of those kept before.

    Candidates are taken in order, up to ``limit`` of them.  The span is
    kept as an echelon basis of bit-packed rows, one per pivot bit; a
    candidate is kept when its reduction against that basis is nonzero, and
    the reduction joins the basis.
    """
    echelon: list[tuple[int, int]] = []  # (pivot bit, reduced row)

    def extend(vector: np.ndarray) -> bool:
        residual = int.from_bytes(np.packbits(vector, bitorder="little").tobytes(), "little")
        for pivot, row in echelon:
            if residual & pivot:
                residual ^= row
        if not residual:
            return False
        echelon.append((residual & -residual, residual))
        return True

    for row in span:
        extend(row)
    kept: list[np.ndarray] = []
    for vector in candidates:
        if len(kept) == limit:
            break
        if extend(vector):
            kept.append(vector)
    return kept


def _independent_rows(matrix: np.ndarray) -> np.ndarray:
    """Return a maximal independent subset of the rows of ``matrix``."""
    kept = _independent_vectors(matrix)
    if not kept:
        return np.zeros((0, matrix.shape[1]), dtype=np.uint8)
    return np.array(kept, dtype=np.uint8)


def _min_weight_coset_element(
    kernel_of: np.ndarray, span_of: np.ndarray, limit: int
) -> int | None:
    """Minimum weight of a vector in ker(kernel_of) outside rowspace(span_of)."""
    n = kernel_of.shape[1]
    for weight in range(1, limit + 1):
        for support in itertools.combinations(range(n), weight):
            vec = np.zeros(n, dtype=np.uint8)
            vec[list(support)] = 1
            if gf2_matmul(kernel_of, vec.reshape(-1, 1)).any():
                continue
            if not gf2_row_span_contains(span_of, vec):
                return weight
    return None
