"""Tests for the hand-crafted schedules (Google zig-zag, Figure 7 orders, IBM BB)."""

from __future__ import annotations

import pytest

from repro.codes import rectangular_surface_code
from repro.scheduling import (
    ScheduleError,
    anticlockwise_surface_schedule,
    clockwise_surface_schedule,
    google_surface_schedule,
    ibm_bb_schedule,
    lowest_depth_schedule,
)


class TestGoogleSchedule:
    def test_depth_four_for_any_size(self):
        for rows, cols in ((3, 3), (5, 5), (5, 9)):
            code = rectangular_surface_code(rows, cols)
            schedule = google_surface_schedule(code)
            schedule.validate()
            assert schedule.depth == 4

    def test_interleaves_x_and_z_plaquettes(self, surface_d3, surface_d3_google):
        """Both X and Z checks appear in the same ticks (true interleaving)."""
        ticks = surface_d3_google.ticks()
        letters_per_tick = {
            tick: {check.pauli for check in checks} for tick, checks in ticks.items()
        }
        assert any(letters == {"X", "Z"} for letters in letters_per_tick.values())

    def test_z_plaquettes_end_on_vertically_aligned_qubits(self, surface_d3, surface_d3_google):
        """The late (tick 3, 4) checks of each bulk Z stabilizer share a column."""
        cols = surface_d3.metadata["cols"]
        for stabilizer_index, stabilizer in enumerate(surface_d3.stabilizers):
            letters = {stabilizer.pauli_at(q) for q in stabilizer.support}
            if letters != {"Z"} or stabilizer.weight != 4:
                continue
            late_columns = {
                check.data_qubit % cols
                for check, tick in surface_d3_google.assignment.items()
                if check.stabilizer == stabilizer_index and tick in (3, 4)
            }
            assert len(late_columns) == 1

    def test_requires_surface_metadata(self, steane):
        with pytest.raises(ScheduleError):
            google_surface_schedule(steane)

    def test_not_deeper_than_lowest_depth(self, surface_d3, surface_d3_google):
        assert surface_d3_google.depth <= lowest_depth_schedule(surface_d3).depth


class TestFigure7Orders:
    def test_clockwise_valid_and_complete(self, surface_d3):
        schedule = clockwise_surface_schedule(surface_d3)
        schedule.validate()
        assert schedule.is_complete()

    def test_anticlockwise_valid_and_complete(self, surface_d3):
        schedule = anticlockwise_surface_schedule(surface_d3)
        schedule.validate()
        assert schedule.is_complete()

    def test_orders_differ(self, surface_d3):
        clockwise = clockwise_surface_schedule(surface_d3)
        anticlockwise = anticlockwise_surface_schedule(surface_d3)
        assert clockwise.assignment != anticlockwise.assignment

    def test_blockwise_structure(self, surface_d3):
        """Figure 7 orders use the partitioned framework: X block before Z block."""
        schedule = clockwise_surface_schedule(surface_d3)
        x_ticks = [t for c, t in schedule.assignment.items() if c.pauli == "X"]
        z_ticks = [t for c, t in schedule.assignment.items() if c.pauli == "Z"]
        assert max(x_ticks) < min(z_ticks) or max(z_ticks) < min(x_ticks)


class TestIBMBBSchedule:
    def test_valid_and_complete(self, bb_code):
        schedule = ibm_bb_schedule(bb_code)
        schedule.validate()
        assert schedule.is_complete()

    def test_rejects_non_bb_codes(self, surface_d3):
        with pytest.raises(ScheduleError):
            ibm_bb_schedule(surface_d3)

    def test_x_checks_do_left_block_first(self, bb_code):
        schedule = ibm_bb_schedule(bb_code)
        half = bb_code.num_qubits // 2
        num_x = bb_code.hx.shape[0]
        for stabilizer in range(min(4, num_x)):
            left_ticks = [
                tick
                for check, tick in schedule.assignment.items()
                if check.stabilizer == stabilizer and check.data_qubit < half
            ]
            right_ticks = [
                tick
                for check, tick in schedule.assignment.items()
                if check.stabilizer == stabilizer and check.data_qubit >= half
            ]
            assert max(left_ticks) < min(right_ticks)
