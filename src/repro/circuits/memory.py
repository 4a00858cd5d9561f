"""Memory-experiment circuit generation (the paper's Figure 10 protocol).

For a given code, schedule, noise model and logical basis the generated
circuit is:

1. reset all data qubits;
2. measure every logical operator of the chosen basis with a fresh ancilla
   (noiseless);
3. one *noiseless* reference syndrome-measurement round, which projects the
   state into a definite stabilizer eigenstate and provides the reference
   values against which the noisy round is compared;
4. one *noisy* syndrome-measurement round laid out by the schedule under
   test (hook, idle and gate errors injected here), with a ``DETECTOR`` per
   stabilizer comparing it against the reference round;
5. one *noiseless* syndrome-measurement round ("ideal error correction"),
   with a ``DETECTOR`` per stabilizer comparing it against the noisy round;
6. measure every logical operator again (noiseless) and declare an
   ``OBSERVABLE`` per logical operator as the parity of its two readouts.

Measuring the logical *Z* operators detects logical *X* errors (the paper's
``Err_X``) and vice versa, so the overall logical error rate combines the
two bases exactly as in Section 4.4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.builder import append_logical_measurement, append_syndrome_round
from repro.circuits.circuit import Circuit
from repro.codes.base import StabilizerCode
from repro.noise.models import NoiseModel
from repro.scheduling.schedule import Schedule

__all__ = ["MemoryExperiment", "build_memory_experiment"]


@dataclass
class MemoryExperiment:
    """A generated memory-experiment circuit plus its bookkeeping."""

    circuit: Circuit
    code: StabilizerCode
    schedule: Schedule
    basis: str
    noisy_round_measurements: dict[int, int]
    ideal_round_measurements: dict[int, int]
    observable_pairs: list[tuple[int, int]]

    @property
    def num_observables(self) -> int:
        return len(self.observable_pairs)


def build_memory_experiment(
    code: StabilizerCode,
    schedule: Schedule,
    noise: NoiseModel,
    *,
    basis: str = "Z",
    noisy_rounds: int = 1,
) -> MemoryExperiment:
    """Build the Figure 10 sampling circuit.

    Parameters
    ----------
    basis:
        ``"Z"`` measures the logical Z operators (sensitive to logical X
        errors), ``"X"`` measures the logical X operators (sensitive to
        logical Z errors).
    noisy_rounds:
        Number of consecutive noisy syndrome rounds to insert between the
        logical readouts (the paper uses one; more rounds are useful for
        stress tests and ablations).  A detector is declared between every
        pair of consecutive rounds and between the last noisy round and the
        ideal round.
    """
    if basis not in ("Z", "X"):
        raise ValueError("basis must be 'Z' or 'X'")
    if noisy_rounds < 1:
        raise ValueError("need at least one noisy round")
    logicals = code.logical_zs if basis == "Z" else code.logical_xs

    circuit = Circuit()
    circuit.reset(*range(code.num_qubits))

    # Logical readout ancillas sit after the syndrome ancillas.
    first_logical_ancilla = code.num_qubits + code.num_stabilizers
    initial_readouts: list[int] = []
    for index, logical in enumerate(logicals):
        measurement = append_logical_measurement(
            circuit, code, logical, first_logical_ancilla + index
        )
        initial_readouts.append(measurement)
    circuit.tick()

    reference_record = append_syndrome_round(circuit, code, schedule, noise=None)
    previous_round = reference_record
    noisy_record = None
    for _ in range(noisy_rounds):
        record = append_syndrome_round(circuit, code, schedule, noise=noise)
        for stabilizer, measurement in record.measurements.items():
            circuit.detector([previous_round.measurements[stabilizer], measurement])
        previous_round = record
        noisy_record = record

    ideal_record = append_syndrome_round(circuit, code, schedule, noise=None)
    for stabilizer, measurement in ideal_record.measurements.items():
        circuit.detector([previous_round.measurements[stabilizer], measurement])

    final_readouts: list[int] = []
    for index, logical in enumerate(logicals):
        measurement = append_logical_measurement(
            circuit, code, logical, first_logical_ancilla + index
        )
        final_readouts.append(measurement)

    observable_pairs = list(zip(initial_readouts, final_readouts))
    for observable_index, (first, second) in enumerate(observable_pairs):
        circuit.observable(observable_index, [first, second])

    return MemoryExperiment(
        circuit=circuit,
        code=code,
        schedule=schedule,
        basis=basis,
        noisy_round_measurements=dict(noisy_record.measurements),
        ideal_round_measurements=dict(ideal_record.measurements),
        observable_pairs=observable_pairs,
    )
