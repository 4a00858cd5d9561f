"""Schedule representation for syndrome-measurement circuits.

A :class:`Schedule` assigns a *tick* (a positive integer time step) to every
Pauli check ``(stabilizer index, data qubit, pauli letter)`` of a code, as in
Section 4.1 of the paper.  Ancilla qubits are implicit: stabilizer ``s`` uses
ancilla ``code.num_qubits + s``.

Validity conditions (checked by :meth:`Schedule.validate`):

* completeness — every Pauli check of every stabilizer has a tick;
* non-conflict — no data qubit and no ancilla participates in two checks in
  the same tick;
* commutation parity — for every pair of stabilizers that overlap on data
  qubits where their Pauli letters anticommute, the number of overlap qubits
  on which the first stabilizer's check precedes the second's must be even
  (Gehér et al., PRX Quantum 5, 010348).  This is the condition under which
  interleaved ("tangled") schedules still measure the intended stabilizers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.codes.base import StabilizerCode

__all__ = ["PauliCheck", "Schedule", "ScheduleError"]


class ScheduleError(ValueError):
    """Raised when a schedule violates a validity condition."""


@dataclass(frozen=True)
class PauliCheck:
    """A single data-ancilla interaction: measure ``pauli`` on ``data_qubit``.

    ``stabilizer`` is the index of the stabilizer (and therefore of the
    ancilla) this check belongs to.
    """

    stabilizer: int
    data_qubit: int
    pauli: str

    def __post_init__(self) -> None:
        if self.pauli not in ("X", "Y", "Z"):
            raise ScheduleError(f"invalid Pauli letter {self.pauli!r}")


def checks_of_code(
    code: StabilizerCode, stabilizers: Sequence[int] | None = None
) -> list[PauliCheck]:
    """Enumerate the Pauli checks of ``code`` (one per non-identity letter).

    ``stabilizers`` restricts (and orders) the enumeration, e.g. to one
    scheduling partition; by default every stabilizer is listed in index order.
    """
    all_checks = code.checks()
    if stabilizers is None:
        stabilizers = range(len(all_checks))
    return [
        PauliCheck(stabilizer, qubit, letter)
        for stabilizer in stabilizers
        for qubit, letter in all_checks[stabilizer]
    ]


@dataclass
class Schedule:
    """A (possibly partial) assignment of Pauli checks to ticks."""

    code: StabilizerCode
    assignment: dict[PauliCheck, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """The largest assigned tick (0 for an empty schedule)."""
        return max(self.assignment.values(), default=0)

    @property
    def num_assigned(self) -> int:
        return len(self.assignment)

    def is_complete(self) -> bool:
        return self.num_assigned == len(checks_of_code(self.code))

    def ancilla_of(self, stabilizer: int) -> int:
        return self.code.num_qubits + stabilizer

    def copy(self) -> "Schedule":
        return Schedule(self.code, dict(self.assignment))

    def ticks(self) -> dict[int, list[PauliCheck]]:
        """Return ``{tick: [checks]}`` sorted by tick."""
        by_tick: dict[int, list[PauliCheck]] = {}
        for check, tick in self.assignment.items():
            by_tick.setdefault(tick, []).append(check)
        return {tick: sorted(by_tick[tick], key=lambda c: (c.stabilizer, c.data_qubit))
                for tick in sorted(by_tick)}

    def tick_of(self, stabilizer: int, data_qubit: int) -> int | None:
        for check, tick in self.assignment.items():
            if check.stabilizer == stabilizer and check.data_qubit == data_qubit:
                return tick
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, check: PauliCheck, tick: int) -> None:
        if tick < 1:
            raise ScheduleError("ticks are 1-based positive integers")
        if check in self.assignment:
            raise ScheduleError(f"{check} already scheduled")
        for other, other_tick in self.assignment.items():
            if other_tick != tick:
                continue
            if other.data_qubit == check.data_qubit:
                raise ScheduleError(
                    f"data qubit {check.data_qubit} used twice in tick {tick}"
                )
            if other.stabilizer == check.stabilizer:
                raise ScheduleError(
                    f"ancilla of stabilizer {check.stabilizer} used twice in tick {tick}"
                )
        self.assignment[check] = tick

    def earliest_valid_tick(self, check: PauliCheck) -> int:
        """Smallest tick satisfying the non-conflict condition for ``check``.

        Mirrors Section 4.3: take the maximum tick among already scheduled
        checks sharing the data qubit or the ancilla, plus one.
        """
        latest = 0
        for other, tick in self.assignment.items():
            if other.data_qubit == check.data_qubit or other.stabilizer == check.stabilizer:
                latest = max(latest, tick)
        return latest + 1

    def shifted(self, offset: int) -> "Schedule":
        """Return a copy with every tick shifted by ``offset``."""
        return Schedule(
            self.code, {check: tick + offset for check, tick in self.assignment.items()}
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, *, require_complete: bool = True) -> None:
        """Raise :class:`ScheduleError` if the schedule is invalid."""
        if require_complete and not self.is_complete():
            raise ScheduleError(
                f"schedule is incomplete: {self.num_assigned} of "
                f"{len(checks_of_code(self.code))} checks assigned"
            )
        self._check_conflicts()
        self._check_commutation_parity()

    def _check_conflicts(self) -> None:
        seen_data: dict[tuple[int, int], PauliCheck] = {}
        seen_ancilla: dict[tuple[int, int], PauliCheck] = {}
        for check, tick in self.assignment.items():
            data_key = (tick, check.data_qubit)
            ancilla_key = (tick, check.stabilizer)
            if data_key in seen_data:
                raise ScheduleError(
                    f"data qubit {check.data_qubit} double-booked in tick {tick}"
                )
            if ancilla_key in seen_ancilla:
                raise ScheduleError(
                    f"ancilla {self.ancilla_of(check.stabilizer)} double-booked in tick {tick}"
                )
            seen_data[data_key] = check
            seen_ancilla[ancilla_key] = check

    def _check_commutation_parity(self) -> None:
        by_stabilizer: dict[int, dict[int, tuple[str, int]]] = {}
        for check, tick in self.assignment.items():
            by_stabilizer.setdefault(check.stabilizer, {})[check.data_qubit] = (
                check.pauli,
                tick,
            )
        stabilizers = sorted(by_stabilizer)
        for index, first in enumerate(stabilizers):
            for second in stabilizers[index + 1 :]:
                first_checks = by_stabilizer[first]
                second_checks = by_stabilizer[second]
                shared = set(first_checks) & set(second_checks)
                inversions = 0
                relevant = 0
                for qubit in shared:
                    pauli_a, tick_a = first_checks[qubit]
                    pauli_b, tick_b = second_checks[qubit]
                    if pauli_a == pauli_b:
                        continue
                    relevant += 1
                    if tick_a < tick_b:
                        inversions += 1
                if relevant and inversions % 2 != 0:
                    raise ScheduleError(
                        f"stabilizers {first} and {second} interleave anticommuting "
                        f"checks with odd crossing parity"
                    )

    def __repr__(self) -> str:
        return (
            f"<Schedule {self.code.name} depth={self.depth} "
            f"checks={self.num_assigned}>"
        )
