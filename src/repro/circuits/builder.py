"""Builders that turn a :class:`~repro.scheduling.schedule.Schedule` into circuits.

Two building blocks are provided:

* :func:`append_logical_measurement` — ancilla-mediated measurement of an
  arbitrary Pauli operator (used for the logical-operator readouts at the
  start and end of the paper's Figure 10 sampling circuit);
* :func:`append_syndrome_round` — one full syndrome-measurement round that
  executes every Pauli check at the tick chosen by the schedule, optionally
  injecting circuit-level noise.  At every noise location (a gate pair
  after each check, each idling qubit per tick, each ancilla readout, the
  reset of all ancillas) the builder asks the model for
  :meth:`~repro.noise.models.NoiseModel.ops` of that ``(kind, qubits)``
  and appends them.

Ancilla-as-control convention: every Pauli check is implemented as a
controlled-Pauli with the ancilla (prepared in ``|+>`` and read out in the X
basis) as control and the data qubit as target.  For Z checks this is the
textbook phase-kickback circuit; it is local-Clifford equivalent to the
CNOT-based circuits of the paper's Figure 4, and has the same hook-error
behaviour: an X (or Y) error on the ancilla propagates the stabilizer's
Pauli letter onto every data qubit whose check has not yet executed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import Circuit, Instruction
from repro.codes.base import StabilizerCode
from repro.noise.models import GATE, IDLE, MEASURE, RESET, NoiseModel
from repro.pauli import PauliString
from repro.scheduling.schedule import Schedule

__all__ = [
    "SyndromeRoundRecord",
    "append_logical_measurement",
    "append_syndrome_round",
    "ancilla_qubits",
]


@dataclass
class SyndromeRoundRecord:
    """Measurement-record bookkeeping for one syndrome round.

    ``measurements[s]`` is the measurement-record index of stabilizer ``s``'s
    ancilla readout in this round.
    """

    measurements: dict[int, int]


def ancilla_qubits(code: StabilizerCode) -> list[int]:
    """Ancilla qubit indices used for syndrome measurement (one per stabilizer)."""
    return [code.num_qubits + s for s in range(code.num_stabilizers)]


def append_logical_measurement(
    circuit: Circuit,
    code: StabilizerCode,
    operator: PauliString,
    ancilla: int,
) -> int:
    """Measure ``operator`` via ``ancilla``; returns the measurement index.

    The measurement is noiseless (the paper's logical readouts are ideal and
    only the syndrome round under study carries noise).
    """
    circuit.reset(ancilla, basis="X")
    for qubit in operator.support:
        circuit.cpauli(ancilla, qubit, operator.pauli_at(qubit))
    return circuit.measure(ancilla, basis="X")[0]


def append_syndrome_round(
    circuit: Circuit,
    code: StabilizerCode,
    schedule: Schedule,
    *,
    noise: NoiseModel | None = None,
) -> SyndromeRoundRecord:
    """Append one syndrome-measurement round laid out according to ``schedule``.

    Parameters
    ----------
    noise:
        The :class:`~repro.noise.models.NoiseModel`; when provided, the ops
        it fires at every noise location of the round are appended: each
        gate pair, each idling qubit per tick (data qubits a tick does not
        touch, and ancillas between their first and last scheduled tick),
        each ancilla readout and the reset of all ancillas.  ``None``
        produces a noiseless round.  Zero-probability ops are dropped by
        :meth:`Circuit.append_noise_op`.
    """
    ticks = schedule.ticks()
    active_stabilizers = sorted({check.stabilizer for check in schedule.assignment})
    ancilla_of = {s: schedule.ancilla_of(s) for s in active_stabilizers}
    first_tick: dict[int, int] = {}
    last_tick: dict[int, int] = {}
    for check, tick in schedule.assignment.items():
        stabilizer = check.stabilizer
        first_tick[stabilizer] = min(first_tick.get(stabilizer, tick), tick)
        last_tick[stabilizer] = max(last_tick.get(stabilizer, tick), tick)

    def emit(kind: str, qubits: tuple[int, ...]) -> None:
        for op in noise.ops(kind, qubits):
            circuit.append_noise_op(op)

    # Ancilla preparation.  The reset site covers every prepared ancilla at
    # once, so reset-flip channels emit one multi-qubit instruction.
    for stabilizer in active_stabilizers:
        circuit.reset(ancilla_of[stabilizer], basis="X")
    if noise is not None:
        emit(RESET, tuple(ancilla_of[s] for s in active_stabilizers))

    depth = schedule.depth
    for tick in range(1, depth + 1):
        busy: set[int] = set()
        for check in ticks.get(tick, []):
            ancilla = ancilla_of[check.stabilizer]
            circuit.cpauli(ancilla, check.data_qubit, check.pauli)
            busy.add(ancilla)
            busy.add(check.data_qubit)
            if noise is not None:
                emit(GATE, (ancilla, check.data_qubit))
        if noise is not None:
            idle = [q for q in range(code.num_qubits) if q not in busy]
            for stabilizer in active_stabilizers:
                ancilla = ancilla_of[stabilizer]
                if ancilla in busy:
                    continue
                if first_tick[stabilizer] <= tick <= last_tick[stabilizer]:
                    idle.append(ancilla)
            for qubit in idle:
                emit(IDLE, (qubit,))
        circuit.tick()

    # Ancilla readout: one record per ancilla, in order from the current
    # end of the record.
    record = circuit.num_measurements
    measurements: dict[int, int] = {}
    for stabilizer in active_stabilizers:
        ancilla = ancilla_of[stabilizer]
        if noise is not None:
            emit(MEASURE, (ancilla,))
        circuit.append(Instruction("MX", (ancilla,)))
        measurements[stabilizer] = record
        record += 1
    return SyndromeRoundRecord(measurements)
