"""Pauli strings in the symplectic (binary) representation.

A Pauli string on ``n`` qubits is stored as two length-``n`` bit vectors
``xs`` and ``zs``: qubit ``i`` carries ``X`` when ``xs[i] = 1, zs[i] = 0``,
``Z`` when ``xs[i] = 0, zs[i] = 1``, ``Y`` when both bits are set, and
identity otherwise.  A global sign (+1 / -1) is tracked but the imaginary
phases of intermediate products are folded into it following the usual
convention (products of Hermitian Paulis that end up anti-Hermitian never
appear in stabilizer manipulations used here).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

__all__ = ["PauliString", "commutes", "pauli_product_phase"]

_CHAR_TO_BITS = {"I": (0, 0), "_": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_CHAR = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def pauli_product_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """Return the power of ``i`` produced when multiplying two single-qubit Paulis.

    The inputs are the symplectic bits of the left and right operand.  The
    returned value is in ``{-1, 0, +1}`` following the Aaronson–Gottesman
    ``g`` function, i.e. the exponent of ``i`` modulo 4 restricted to the
    values that occur for single-qubit Pauli products.
    """
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:  # Y
        return int(z2) - int(x2)
    if x1 == 1 and z1 == 0:  # X
        return int(z2) * (2 * int(x2) - 1)
    # Z
    return int(x2) * (1 - 2 * int(z2))


class PauliString:
    """An n-qubit Pauli operator with a +/-1 sign.

    Instances are mutable only through the documented methods; ``xs`` and
    ``zs`` are exposed as numpy ``uint8`` arrays and should be treated as
    read-only by callers.
    """

    __slots__ = ("xs", "zs", "sign")

    def __init__(
        self,
        num_qubits: int | None = None,
        *,
        xs: np.ndarray | None = None,
        zs: np.ndarray | None = None,
        sign: int = 1,
    ) -> None:
        if xs is not None or zs is not None:
            if xs is None or zs is None:
                raise ValueError("xs and zs must be provided together")
            self.xs = np.asarray(xs, dtype=np.uint8).copy() & 1
            self.zs = np.asarray(zs, dtype=np.uint8).copy() & 1
            if self.xs.shape != self.zs.shape:
                raise ValueError("xs and zs must have the same length")
        else:
            if num_qubits is None:
                raise ValueError("either num_qubits or xs/zs must be given")
            self.xs = np.zeros(num_qubits, dtype=np.uint8)
            self.zs = np.zeros(num_qubits, dtype=np.uint8)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        """Return the identity operator on ``num_qubits`` qubits."""
        return cls(num_qubits)

    @classmethod
    def from_string(cls, text: str, *, sign: int = 1) -> "PauliString":
        """Build a Pauli string from characters in ``IXZY_`` (e.g. ``"XZZXI"``)."""
        cleaned = text.strip()
        if cleaned.startswith("+"):
            cleaned = cleaned[1:]
        elif cleaned.startswith("-"):
            sign = -sign
            cleaned = cleaned[1:]
        xs = np.zeros(len(cleaned), dtype=np.uint8)
        zs = np.zeros(len(cleaned), dtype=np.uint8)
        for index, char in enumerate(cleaned.upper()):
            if char not in _CHAR_TO_BITS:
                raise ValueError(f"invalid Pauli character {char!r}")
            xs[index], zs[index] = _CHAR_TO_BITS[char]
        return cls(xs=xs, zs=zs, sign=sign)

    @classmethod
    def from_sparse(
        cls,
        num_qubits: int,
        terms: Mapping[int, str] | Iterable[tuple[int, str]],
        *,
        sign: int = 1,
    ) -> "PauliString":
        """Build a Pauli string from ``{qubit: pauli-letter}`` terms."""
        pauli = cls(num_qubits)
        items = terms.items() if isinstance(terms, Mapping) else terms
        for qubit, letter in items:
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit index {qubit} out of range")
            x_bit, z_bit = _CHAR_TO_BITS[letter.upper()]
            pauli.xs[qubit] = x_bit
            pauli.zs[qubit] = z_bit
        pauli.sign = sign
        return pauli

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return int(self.xs.shape[0])

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return int(np.count_nonzero(self.xs | self.zs))

    @property
    def support(self) -> list[int]:
        """Sorted list of qubit indices acted on non-trivially."""
        return np.flatnonzero(self.xs | self.zs).tolist()

    def pauli_at(self, qubit: int) -> str:
        """Return the single-qubit Pauli letter acting on ``qubit``."""
        return _BITS_TO_CHAR[(int(self.xs[qubit]), int(self.zs[qubit]))]

    def is_identity(self) -> bool:
        return not (self.xs.any() or self.zs.any())

    def to_symplectic(self) -> np.ndarray:
        """Return the length-2n binary vector ``[xs | zs]``."""
        return np.concatenate([self.xs, self.zs])

    @classmethod
    def from_symplectic(cls, vector: np.ndarray, *, sign: int = 1) -> "PauliString":
        vec = np.asarray(vector, dtype=np.uint8).reshape(-1) & 1
        if vec.shape[0] % 2:
            raise ValueError("symplectic vector must have even length")
        half = vec.shape[0] // 2
        return cls(xs=vec[:half], zs=vec[half:], sign=sign)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def commutes_with(self, other: "PauliString") -> bool:
        """Return ``True`` when the two Pauli strings commute."""
        return commutes(self, other)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.num_qubits != other.num_qubits:
            raise ValueError("cannot multiply Paulis on different qubit counts")
        phase = 0
        for x1, z1, x2, z2 in zip(self.xs, self.zs, other.xs, other.zs):
            phase += pauli_product_phase(int(x1), int(z1), int(x2), int(z2))
        phase %= 4
        sign = self.sign * other.sign
        if phase == 2:
            sign = -sign
        elif phase != 0:
            # Products of commuting Hermitian Paulis never end up here; for
            # anticommuting operands we fold the i into the sign convention
            # used by the tableau simulator (phase tracked modulo 2).
            sign = -sign if phase == 3 else sign
        product = PauliString(
            xs=self.xs ^ other.xs, zs=self.zs ^ other.zs, sign=sign
        )
        return product

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.sign == other.sign
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.zs, other.zs)
        )

    def equal_up_to_sign(self, other: "PauliString") -> bool:
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.zs, other.zs)

    def __hash__(self) -> int:
        return hash((self.sign, self.xs.tobytes(), self.zs.tobytes()))

    def copy(self) -> "PauliString":
        return PauliString(xs=self.xs, zs=self.zs, sign=self.sign)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        body = "".join(
            _BITS_TO_CHAR[(int(x), int(z))] for x, z in zip(self.xs, self.zs)
        )
        prefix = "-" if self.sign < 0 else "+"
        return prefix + body

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"


def commutes(first: PauliString, second: PauliString) -> bool:
    """Return ``True`` when two Pauli strings commute.

    Two Paulis commute exactly when the symplectic inner product
    ``sum(x1*z2 + z1*x2) mod 2`` vanishes.
    """
    if first.num_qubits != second.num_qubits:
        raise ValueError("Pauli strings act on different numbers of qubits")
    overlap = int(np.dot(first.xs.astype(np.int64), second.zs.astype(np.int64)))
    overlap += int(np.dot(first.zs.astype(np.int64), second.xs.astype(np.int64)))
    return overlap % 2 == 0
