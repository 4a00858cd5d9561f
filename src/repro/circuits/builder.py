"""Builders that turn a :class:`~repro.scheduling.schedule.Schedule` into circuits.

Two building blocks are provided:

* :func:`append_logical_measurement` — ancilla-mediated measurement of an
  arbitrary Pauli operator (used for the logical-operator readouts at the
  start and end of the paper's Figure 10 sampling circuit);
* :func:`append_syndrome_round` — one full syndrome-measurement round that
  executes every Pauli check at the tick chosen by the schedule, optionally
  injecting circuit-level noise.  Noise is injected through the *site
  protocol* of :mod:`repro.noise.channels`: the builder announces every
  noise location (a gate pair after each check, each idling qubit per
  tick, each ancilla readout, the reset of all ancillas) as a
  :class:`~repro.noise.channels.NoiseSite` and appends whatever ops the
  model's channels fire there, so uniform legacy models and arbitrary
  channel compositions (bias, dephasing, drift, ...) share one code path.

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
from repro.noise.channels import GATE, IDLE, MEASURE, RESET, NoiseSite
from repro.pauli import PauliString
from repro.scheduling.schedule import Schedule

__all__ = [
    "SyndromeRoundRecord",
    "append_logical_measurement",
    "append_syndrome_round",
    "ancilla_qubits",
    "emit_noise",
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


def emit_noise(circuit: Circuit, noise, site: NoiseSite) -> None:
    """Append every op ``noise`` fires at ``site`` to ``circuit``.

    ``noise`` is any object implementing the ``channel_ops(site)``
    protocol (:class:`~repro.noise.models.NoiseModel` or
    :class:`~repro.noise.channels.ComposedNoiseModel`).  Zero-probability
    ops are dropped by :meth:`Circuit.append_noise_op`.
    """
    for op in noise.channel_ops(site):
        circuit.append_noise_op(op)


def append_syndrome_round(
    circuit: Circuit,
    code: StabilizerCode,
    schedule: Schedule,
    *,
    noise=None,
    idle_data_qubits: bool = True,
    round_index: int = 0,
) -> SyndromeRoundRecord:
    """Append one syndrome-measurement round laid out according to ``schedule``.

    Parameters
    ----------
    noise:
        Any object implementing the channel-site protocol
        (``channel_ops(site)``); when provided, every noise location of
        the round — gate pairs, idling qubits per tick, ancilla readouts,
        the ancilla reset — is offered to it and the resulting ops are
        appended.  ``None`` produces a noiseless round.
    idle_data_qubits:
        Apply idle noise to data qubits that are not touched during a tick
        (the paper's model); ancillas idle between their first and last
        scheduled tick.
    round_index:
        0-based index of this noisy round within the experiment — the
        time coordinate time-varying (drift) channels see.
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

    # Ancilla preparation.  The reset site covers every prepared ancilla at
    # once, so reset-flip channels emit one multi-qubit instruction (the
    # legacy stream shape).
    for stabilizer in active_stabilizers:
        circuit.reset(ancilla_of[stabilizer], basis="X")
    if noise is not None:
        reset_qubits = tuple(ancilla_of[s] for s in active_stabilizers)
        emit_noise(
            circuit,
            noise,
            NoiseSite(RESET, reset_qubits, tick=0, round_index=round_index),
        )

    depth = schedule.depth
    for tick in range(1, depth + 1):
        busy: set[int] = set()
        for check in ticks.get(tick, []):
            ancilla = ancilla_of[check.stabilizer]
            circuit.cpauli(ancilla, check.data_qubit, check.pauli)
            busy.add(ancilla)
            busy.add(check.data_qubit)
            if noise is not None:
                emit_noise(
                    circuit,
                    noise,
                    NoiseSite(
                        GATE,
                        (ancilla, check.data_qubit),
                        tick=tick,
                        round_index=round_index,
                    ),
                )
        if noise is not None:
            idle: list[int] = []
            if idle_data_qubits:
                idle.extend(
                    q for q in range(code.num_qubits) if q not in busy
                )
            for stabilizer in active_stabilizers:
                ancilla = ancilla_of[stabilizer]
                if ancilla in busy:
                    continue
                if first_tick[stabilizer] <= tick <= last_tick[stabilizer]:
                    idle.append(ancilla)
            for qubit in idle:
                emit_noise(
                    circuit,
                    noise,
                    NoiseSite(IDLE, (qubit,), tick=tick, round_index=round_index),
                )
        circuit.tick()

    # Ancilla readout: one record per ancilla, in order from the current
    # end of the record.
    record = circuit.num_measurements
    measurements: dict[int, int] = {}
    for stabilizer in active_stabilizers:
        ancilla = ancilla_of[stabilizer]
        if noise is not None:
            emit_noise(
                circuit,
                noise,
                NoiseSite(MEASURE, (ancilla,), tick=depth + 1, round_index=round_index),
            )
        circuit.append(Instruction("MX", (ancilla,)))
        measurements[stabilizer] = record
        record += 1
    return SyndromeRoundRecord(measurements)
