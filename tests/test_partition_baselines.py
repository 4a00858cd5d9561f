"""Tests for stabilizer partitioning (Algorithm 1) and the baseline schedulers."""

from __future__ import annotations

import random

import pytest

from repro.api.registries import codes
from repro.scheduling import (
    checks_of_code,
    compatible_stabilizers,
    lowest_depth_schedule,
    partition_stabilizers,
    schedule_from_orders,
    trivial_schedule,
    validate_partition,
)
from repro.scheduling.partition import partition_stabilizers_algorithm1


class TestCompatibility:
    def test_same_type_css_stabilizers_compatible(self, surface_d3):
        x_indices = [
            i
            for i, s in enumerate(surface_d3.stabilizers)
            if {surface_d3.stabilizers[i].pauli_at(q) for q in s.support} == {"X"}
        ]
        assert compatible_stabilizers(surface_d3, x_indices[0], x_indices[1])

    def test_overlapping_x_and_z_incompatible(self, surface_d3):
        checks = surface_d3.checks()
        for first in range(surface_d3.num_stabilizers):
            for second in range(first + 1, surface_d3.num_stabilizers):
                shared = set(q for q, _ in checks[first]) & set(q for q, _ in checks[second])
                letters_first = dict(checks[first])
                letters_second = dict(checks[second])
                if shared and any(letters_first[q] != letters_second[q] for q in shared):
                    assert not compatible_stabilizers(surface_d3, first, second)
                    return
        pytest.fail("expected at least one incompatible pair in the surface code")

    def test_disjoint_stabilizers_compatible(self, five_qubit):
        # Stabilizers with no shared support are always compatible.
        from repro.codes import repetition_code

        code = repetition_code(5)
        assert compatible_stabilizers(code, 0, 3)


class TestPartition:
    @pytest.mark.parametrize(
        "code_name,expected",
        [
            ("rotated_surface_d3", 2),
            ("hexagonal_color_d5", 2),
            ("bb_72_12_6", 2),
            ("five_qubit", 4),
        ],
    )
    def test_partition_counts(self, code_name, expected):
        code = codes.build(code_name)
        partitions = partition_stabilizers(code)
        validate_partition(code, partitions)
        assert len(partitions) == expected

    def test_css_partition_separates_types(self, surface_d3):
        partitions = partition_stabilizers(surface_d3)
        for partition in partitions:
            types = set()
            for index in partition:
                stab = surface_d3.stabilizers[index]
                types.update(stab.pauli_at(q) for q in stab.support)
            assert types in ({"X"}, {"Z"})

    def test_algorithm1_covers_all_stabilizers(self, color_d5):
        partitions = partition_stabilizers_algorithm1(color_d5, rng=random.Random(5))
        validate_partition(color_d5, partitions)

    def test_validate_partition_rejects_bad_grouping(self, surface_d3):
        with pytest.raises(ValueError):
            validate_partition(surface_d3, [list(range(surface_d3.num_stabilizers))])

    def test_validate_partition_rejects_missing_stabilizer(self, steane):
        with pytest.raises(ValueError, match="cover"):
            validate_partition(steane, [[0]])


class TestTrivialScheduler:
    def test_complete_and_valid(self, color_d5):
        schedule = trivial_schedule(color_d5)
        schedule.validate()
        assert schedule.is_complete()

    def test_deterministic(self, surface_d3):
        first = trivial_schedule(surface_d3)
        second = trivial_schedule(surface_d3)
        assert first.assignment == second.assignment

    def test_respects_index_order_within_stabilizer(self, steane):
        schedule = trivial_schedule(steane)
        for stabilizer in range(steane.num_stabilizers):
            qubits = [q for q, _ in steane.checks()[stabilizer]]
            ticks = [schedule.tick_of(stabilizer, q) for q in sorted(qubits)]
            assert ticks == sorted(ticks)


class TestLowestDepthScheduler:
    @pytest.mark.parametrize(
        "code_name", ["steane", "rotated_surface_d3", "hexagonal_color_d5", "bb_72_12_6"]
    )
    def test_achieves_partitionwise_optimum(self, code_name):
        """Depth equals the sum over partitions of the max qubit degree (König)."""
        code = codes.build(code_name)
        schedule = lowest_depth_schedule(code)
        schedule.validate()
        partitions = partition_stabilizers(code)
        expected = 0
        for partition in partitions:
            data_degree: dict[int, int] = {}
            ancilla_degree: dict[int, int] = {}
            for stabilizer in partition:
                for qubit, _ in code.checks()[stabilizer]:
                    data_degree[qubit] = data_degree.get(qubit, 0) + 1
                    ancilla_degree[stabilizer] = ancilla_degree.get(stabilizer, 0) + 1
            expected += max(max(data_degree.values()), max(ancilla_degree.values()))
        assert schedule.depth == expected

    def test_never_deeper_than_trivial(self, color_d5):
        assert lowest_depth_schedule(color_d5).depth <= trivial_schedule(color_d5).depth

    def test_all_checks_scheduled_once(self, surface_d5):
        schedule = lowest_depth_schedule(surface_d5)
        assert schedule.num_assigned == len(checks_of_code(surface_d5))


class TestScheduleFromOrders:
    def test_preserves_requested_order(self, steane):
        orders = {
            s: [q for q, _ in sorted(steane.checks()[s], key=lambda item: -item[0])]
            for s in range(steane.num_stabilizers)
        }
        schedule = schedule_from_orders(steane, orders)
        schedule.validate()
        for stabilizer, order in orders.items():
            ticks = [schedule.tick_of(stabilizer, q) for q in order]
            assert ticks == sorted(ticks)

    def test_missing_stabilizer_raises(self, steane):
        with pytest.raises(KeyError):
            schedule_from_orders(steane, {0: [q for q, _ in steane.checks()[0]]})
