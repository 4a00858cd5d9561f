"""Baseline schedulers: trivial ordering and lowest-depth scheduling.

Both schedulers operate partition-by-partition (see
:mod:`repro.scheduling.partition`): stabilizers whose checks anticommute on
shared qubits are placed in separate blocks that execute back-to-back, which
automatically satisfies the commutation-parity condition.

The lowest-depth scheduler replaces the paper's integer-programming
formulation (solved with ``pulp``, unavailable offline) with an exact
bipartite edge-colouring: within a partition every check is an edge between
its data qubit and its ancilla, all checks commute, and König's theorem
guarantees the minimum number of ticks equals the maximum qubit degree.
The constructive alternating-path algorithm below achieves that bound, so
the produced schedules are depth-optimal within the partitioned framework.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.codes.base import StabilizerCode
from repro.scheduling.partition import partition_stabilizers
from repro.scheduling.schedule import PauliCheck, Schedule, checks_of_code

__all__ = ["trivial_schedule", "lowest_depth_schedule", "schedule_from_orders"]


def trivial_schedule(
    code: StabilizerCode, *, partitions: Sequence[Sequence[int]] | None = None
) -> Schedule:
    """Schedule checks in (stabilizer index, data qubit index) order.

    This is the "trivial lexical ordering" baseline used by several QEC
    experiments: iterate stabilizers by index, iterate each stabilizer's data
    qubits by index, and place every check at the earliest non-conflicting
    tick of its partition block.
    """
    partitions = partitions or partition_stabilizers(code)
    schedule = Schedule(code)
    offset = 0
    for partition in partitions:
        block = Schedule(code)
        for check in sorted(
            checks_of_code(code, partition),
            key=lambda c: (c.stabilizer, c.data_qubit),
        ):
            block.assign(check, block.earliest_valid_tick(check))
        for check, tick in block.assignment.items():
            schedule.assignment[check] = tick + offset
        offset = schedule.depth
    schedule.validate()
    return schedule


def lowest_depth_schedule(
    code: StabilizerCode, *, partitions: Sequence[Sequence[int]] | None = None
) -> Schedule:
    """Depth-optimal schedule via bipartite edge colouring of each partition."""
    partitions = partitions or partition_stabilizers(code)
    schedule = Schedule(code)
    offset = 0
    for partition in partitions:
        checks = checks_of_code(code, partition)
        colouring = _bipartite_edge_colouring(checks)
        for check, colour in colouring.items():
            schedule.assignment[check] = colour + offset
        offset = schedule.depth
    schedule.validate()
    return schedule


def _bipartite_edge_colouring(checks: list[PauliCheck]) -> dict[PauliCheck, int]:
    """Colour the data-qubit / ancilla bipartite multigraph with Delta colours.

    Colours are 1-based so they can be used directly as ticks.  Uses the
    constructive proof of König's edge-colouring theorem: insert edges one by
    one; when the free colours at the two endpoints are disjoint, flip an
    alternating path to free a common colour.
    """
    max_degree = _max_degree(checks)
    colours = list(range(1, max_degree + 1))
    # colour_at[('d', qubit)][colour] -> check using that colour at the vertex.
    colour_at: dict[tuple[str, int], dict[int, PauliCheck]] = {}
    assignment: dict[PauliCheck, int] = {}

    def vertex_keys(check: PauliCheck) -> tuple[tuple[str, int], tuple[str, int]]:
        return ("d", check.data_qubit), ("a", check.stabilizer)

    def free_colours(vertex: tuple[str, int]) -> list[int]:
        used = colour_at.get(vertex, {})
        return [c for c in colours if c not in used]

    for check in checks:
        data_vertex, ancilla_vertex = vertex_keys(check)
        free_data = free_colours(data_vertex)
        free_ancilla = free_colours(ancilla_vertex)
        common = [c for c in free_data if c in free_ancilla]
        if common:
            colour = common[0]
        else:
            colour = free_data[0]
            other = free_ancilla[0]
            # Flip the alternating (colour, other) path starting at the
            # ancilla vertex so that ``colour`` becomes free there.
            _flip_alternating_path(colour_at, assignment, ancilla_vertex, colour, other)
        assignment[check] = colour
        colour_at.setdefault(data_vertex, {})[colour] = check
        colour_at.setdefault(ancilla_vertex, {})[colour] = check
    return assignment


def _flip_alternating_path(
    colour_at: dict[tuple[str, int], dict[int, PauliCheck]],
    assignment: dict[PauliCheck, int],
    start: tuple[str, int],
    colour: int,
    other: int,
) -> None:
    """Swap colours ``colour``/``other`` along the alternating path from ``start``.

    In a bipartite multigraph the walk that alternates between the two
    colours starting at ``start`` is a simple path, so collecting it first
    and flipping afterwards terminates and frees ``colour`` at ``start``.
    """
    path: list[tuple[PauliCheck, int]] = []
    seen: set[int] = set()
    vertex = start
    want = colour
    while True:
        edge = colour_at.get(vertex, {}).get(want)
        if edge is None or id(edge) in seen:
            break
        seen.add(id(edge))
        path.append((edge, want))
        data_vertex = ("d", edge.data_qubit)
        ancilla_vertex = ("a", edge.stabilizer)
        vertex = ancilla_vertex if vertex == data_vertex else data_vertex
        want = other if want == colour else colour
    # Remove the path edges from the colour tables, then re-add with the
    # alternate colour.
    for edge, old_colour in path:
        for endpoint in (("d", edge.data_qubit), ("a", edge.stabilizer)):
            if colour_at.get(endpoint, {}).get(old_colour) is edge:
                del colour_at[endpoint][old_colour]
    for edge, old_colour in path:
        new_colour = other if old_colour == colour else colour
        assignment[edge] = new_colour
        colour_at.setdefault(("d", edge.data_qubit), {})[new_colour] = edge
        colour_at.setdefault(("a", edge.stabilizer), {})[new_colour] = edge


def _max_degree(checks: list[PauliCheck]) -> int:
    data_degree: dict[int, int] = {}
    ancilla_degree: dict[int, int] = {}
    for check in checks:
        data_degree[check.data_qubit] = data_degree.get(check.data_qubit, 0) + 1
        ancilla_degree[check.stabilizer] = ancilla_degree.get(check.stabilizer, 0) + 1
    return max(max(data_degree.values(), default=1), max(ancilla_degree.values(), default=1))


def schedule_from_orders(
    code: StabilizerCode,
    orders: dict[int, Sequence[int]],
    *,
    partitions: Sequence[Sequence[int]] | None = None,
) -> Schedule:
    """Build a schedule from per-stabilizer data-qubit orders.

    ``orders`` maps each stabilizer index to the sequence of its data qubits
    in desired execution order.  Each check is placed at the earliest
    non-conflicting tick of its partition block while preserving that order.
    Used by the hand-crafted schedules and by random rollouts.
    """
    partitions = partitions or partition_stabilizers(code)
    schedule = Schedule(code)
    offset = 0
    letters = [dict(stab_checks) for stab_checks in code.checks()]
    for partition in partitions:
        block = Schedule(code)
        pending = {
            stabilizer: list(orders[stabilizer]) for stabilizer in partition
        }
        while any(pending.values()):
            for stabilizer in partition:
                if not pending[stabilizer]:
                    continue
                qubit = pending[stabilizer].pop(0)
                check = PauliCheck(stabilizer, qubit, letters[stabilizer][qubit])
                block.assign(check, block.earliest_valid_tick(check))
        for check, tick in block.assignment.items():
            schedule.assignment[check] = tick + offset
        offset = schedule.depth
    schedule.validate()
    return schedule


def random_order_schedule(
    code: StabilizerCode,
    *,
    rng: random.Random | None = None,
    partitions: Sequence[Sequence[int]] | None = None,
) -> Schedule:
    """Schedule with a uniformly random per-stabilizer data-qubit order."""
    rng = rng or random.Random()
    orders = {}
    for stabilizer, stab_checks in enumerate(code.checks()):
        qubits = [qubit for qubit, _ in stab_checks]
        rng.shuffle(qubits)
        orders[stabilizer] = qubits
    return schedule_from_orders(code, orders, partitions=partitions)
