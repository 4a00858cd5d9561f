"""Tests for the Schedule data structure and its validity conditions."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_memory_experiment
from repro.codes import rotated_surface_code, steane_code
from repro.noise import brisbane_noise
from repro.scheduling import (
    PauliCheck,
    Schedule,
    ScheduleError,
    checks_of_code,
    partition_stabilizers,
    random_order_schedule,
)


class TestPauliCheck:
    def test_invalid_letter_rejected(self):
        with pytest.raises(ScheduleError):
            PauliCheck(0, 1, "Q")

    def test_checks_of_code_counts_weights(self, steane):
        checks = checks_of_code(steane)
        assert len(checks) == sum(s.weight for s in steane.stabilizers)

    def test_checks_carry_python_ints(self):
        code = rotated_surface_code(3)
        checks = checks_of_code(code)
        assert all(type(check.data_qubit) is int for check in checks)
        circuit = build_memory_experiment(
            code, random_order_schedule(code, rng=random.Random(2)), brisbane_noise()
        ).circuit
        gates = [inst for inst in circuit.instructions if inst.name == "CPAULI"]
        assert gates and all(type(q) is int for inst in gates for q in inst.qubits)

    def test_schedule_checks_round_trip_through_json(self):
        code = rotated_surface_code(3)
        schedule = random_order_schedule(code, rng=random.Random(5))
        rows = [
            [check.stabilizer, check.data_qubit, check.pauli, tick]
            for check, tick in schedule.assignment.items()
        ]
        again = Schedule(code)
        for stabilizer, data_qubit, pauli, tick in json.loads(json.dumps(rows)):
            again.assign(PauliCheck(stabilizer, data_qubit, pauli), tick)
        assert again.assignment == schedule.assignment
        again.validate()


class TestAssignment:
    def test_assign_and_depth(self, steane):
        schedule = Schedule(steane)
        check = checks_of_code(steane)[0]
        schedule.assign(check, 3)
        assert schedule.depth == 3
        assert schedule.tick_of(check.stabilizer, check.data_qubit) == 3

    def test_double_assignment_rejected(self, steane):
        schedule = Schedule(steane)
        check = checks_of_code(steane)[0]
        schedule.assign(check, 1)
        with pytest.raises(ScheduleError):
            schedule.assign(check, 2)

    def test_data_conflict_rejected(self, steane):
        schedule = Schedule(steane)
        checks = checks_of_code(steane)
        target = checks[0]
        other = next(
            c
            for c in checks
            if c.data_qubit == target.data_qubit and c.stabilizer != target.stabilizer
        )
        schedule.assign(target, 1)
        with pytest.raises(ScheduleError):
            schedule.assign(other, 1)

    def test_ancilla_conflict_rejected(self, steane):
        schedule = Schedule(steane)
        checks = [c for c in checks_of_code(steane) if c.stabilizer == 0]
        schedule.assign(checks[0], 1)
        with pytest.raises(ScheduleError):
            schedule.assign(checks[1], 1)

    def test_tick_must_be_positive(self, steane):
        schedule = Schedule(steane)
        with pytest.raises(ScheduleError):
            schedule.assign(checks_of_code(steane)[0], 0)

    def test_earliest_valid_tick_advances(self, steane):
        schedule = Schedule(steane)
        checks = [c for c in checks_of_code(steane) if c.stabilizer == 0]
        assert schedule.earliest_valid_tick(checks[0]) == 1
        schedule.assign(checks[0], 1)
        assert schedule.earliest_valid_tick(checks[1]) == 2

    def test_ancilla_indexing(self, steane):
        schedule = Schedule(steane)
        assert schedule.ancilla_of(0) == steane.num_qubits
        assert schedule.ancilla_of(5) == steane.num_qubits + 5


class TestValidation:
    def test_incomplete_schedule_rejected_when_required(self, steane):
        schedule = Schedule(steane)
        with pytest.raises(ScheduleError, match="incomplete"):
            schedule.validate()
        schedule.validate(require_complete=False)

    def test_commutation_parity_violation_detected(self):
        """Interleaving anticommuting checks with odd crossing parity is invalid."""
        from repro.codes import CSSCode
        import numpy as np

        # Two stabilizers XX and ZZ on the same two qubits ([[4,2,2]]-like toy).
        code = CSSCode(
            np.array([[1, 1, 0, 0]], dtype=np.uint8),
            np.array([[1, 1, 0, 0]], dtype=np.uint8),
        )
        schedule = Schedule(code)
        schedule.assignment[PauliCheck(0, 0, "X")] = 1
        schedule.assignment[PauliCheck(1, 0, "Z")] = 2
        schedule.assignment[PauliCheck(1, 1, "Z")] = 3
        schedule.assignment[PauliCheck(0, 1, "X")] = 4
        with pytest.raises(ScheduleError, match="parity"):
            schedule.validate()

    def test_sequential_blocks_pass_parity(self):
        from repro.codes import CSSCode
        import numpy as np

        code = CSSCode(
            np.array([[1, 1, 0, 0]], dtype=np.uint8),
            np.array([[1, 1, 0, 0]], dtype=np.uint8),
        )
        schedule = Schedule(code)
        schedule.assignment[PauliCheck(0, 0, "X")] = 1
        schedule.assignment[PauliCheck(0, 1, "X")] = 2
        schedule.assignment[PauliCheck(1, 0, "Z")] = 3
        schedule.assignment[PauliCheck(1, 1, "Z")] = 4
        schedule.validate()

    def test_shifted_and_merged(self, steane):
        schedule = random_order_schedule(steane, rng=random.Random(3))
        shifted = schedule.shifted(5)
        assert shifted.depth == schedule.depth + 5
        assert shifted.num_assigned == schedule.num_assigned

    def test_copy_is_independent(self, steane):
        schedule = random_order_schedule(steane, rng=random.Random(4))
        clone = schedule.copy()
        clone.assignment.clear()
        assert schedule.is_complete()


class TestRandomSchedulesProperty:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_order_schedules_are_valid(self, seed):
        code = steane_code()
        schedule = random_order_schedule(code, rng=random.Random(seed))
        schedule.validate()
        assert schedule.is_complete()
        # Depth can never beat the largest stabilizer weight.
        assert schedule.depth >= max(s.weight for s in code.stabilizers)

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_random_schedules_on_surface_code(self, seed):
        code = rotated_surface_code(3)
        schedule = random_order_schedule(code, rng=random.Random(seed))
        schedule.validate()
        partitions = partition_stabilizers(code)
        # Within the partitioned framework the depth is at least the sum of
        # the per-partition maximum stabilizer weights.
        minimum = sum(
            max(code.stabilizers[s].weight for s in partition) for partition in partitions
        )
        assert schedule.depth >= minimum
