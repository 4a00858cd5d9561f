"""Stabilizer partitioning (Algorithm 1 of the paper).

Stabilizers whose Pauli checks anticommute on a shared data qubit cannot be
scheduled with unrestricted interleaving; Algorithm 1 groups stabilizers into
partitions such that, within a partition, any two stabilizers either do not
overlap or apply the *same* Pauli letter on every shared data qubit.  Checks
within a partition therefore commute freely and the search space inside a
partition is unconstrained; partitions are scheduled one after another and
their circuits concatenated.

For CSS codes the partition is simply {X-type stabilizers}, {Z-type
stabilizers}; for codes with mixed stabilizers (e.g. the XZZX surface code)
the grouping is non-trivial.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.codes.base import StabilizerCode

__all__ = [
    "partition_stabilizers",
    "partition_stabilizers_algorithm1",
    "compatible_stabilizers",
    "validate_partition",
]


def compatible_stabilizers(
    code: StabilizerCode, first: int, second: int
) -> bool:
    """Return True if two stabilizers may share a scheduling partition.

    They are compatible when, on every shared data qubit, they apply the
    same Pauli letter (so all of their partial checks commute).
    """
    first_checks = dict(code.checks()[first])
    second_checks = dict(code.checks()[second])
    for qubit, letter in first_checks.items():
        other = second_checks.get(qubit)
        if other is not None and other != letter:
            return False
    return True


def partition_stabilizers(code: StabilizerCode) -> list[list[int]]:
    """Partition stabilizer indices into compatible groups.

    The grouping problem is a graph colouring of the *incompatibility graph*
    (stabilizers joined when they anticommute on a shared data qubit); this
    implementation uses a deterministic greedy colouring (largest degree
    first), which recovers the natural two-partition split {X stabilizers},
    {Z stabilizers} for CSS codes and keeps the number of sequential blocks
    small for mixed-stabilizer codes.  The paper's randomised Algorithm 1 is
    available as :func:`partition_stabilizers_algorithm1`.
    """
    # CSS codes always admit the natural two-block split; returning it
    # directly keeps the partition count minimal regardless of the greedy
    # colouring order below (which is only needed for mixed stabilizers).
    x_block: list[int] = []
    z_block: list[int] = []
    is_css = True
    for index, stabilizer in enumerate(code.stabilizers):
        letters = {stabilizer.pauli_at(q) for q in stabilizer.support}
        if letters == {"X"}:
            x_block.append(index)
        elif letters == {"Z"}:
            z_block.append(index)
        else:
            is_css = False
            break
    if is_css:
        return [block for block in (x_block, z_block) if block]

    # Greedy colouring of the incompatibility graph: stabilizers by degree,
    # largest first (ties by index), each taking the smallest colour none
    # of its neighbours holds.
    count = code.num_stabilizers
    neighbours: list[list[int]] = [[] for _ in range(count)]
    for first in range(count):
        for second in range(first + 1, count):
            if not compatible_stabilizers(code, first, second):
                neighbours[first].append(second)
                neighbours[second].append(first)
    colours: dict[int, int] = {}
    for stabilizer in sorted(range(count), key=lambda index: -len(neighbours[index])):
        taken = {colours[other] for other in neighbours[stabilizer] if other in colours}
        colour = 0
        while colour in taken:
            colour += 1
        colours[stabilizer] = colour
    partitions: dict[int, list[int]] = {}
    for stabilizer, colour in colours.items():
        partitions.setdefault(colour, []).append(stabilizer)
    return [sorted(partitions[colour]) for colour in sorted(partitions)]


def partition_stabilizers_algorithm1(
    code: StabilizerCode, *, rng: random.Random | None = None
) -> list[list[int]]:
    """The paper's randomised greedy partition (Algorithm 1).

    Repeatedly seed a partition with a random remaining stabilizer and
    greedily add every remaining stabilizer compatible with all current
    members.  May produce more partitions than
    :func:`partition_stabilizers`.
    """
    rng = rng or random.Random(0)
    remaining = list(range(code.num_stabilizers))
    partitions: list[list[int]] = []
    while remaining:
        seed_position = rng.randrange(len(remaining))
        seed = remaining.pop(seed_position)
        partition = [seed]
        still_remaining: list[int] = []
        for candidate in remaining:
            if all(compatible_stabilizers(code, candidate, member) for member in partition):
                partition.append(candidate)
            else:
                still_remaining.append(candidate)
        remaining = still_remaining
        partitions.append(sorted(partition))
    return partitions


def validate_partition(code: StabilizerCode, partitions: Sequence[Sequence[int]]) -> None:
    """Raise ``ValueError`` if ``partitions`` is not a valid grouping."""
    seen: set[int] = set()
    for partition in partitions:
        for stabilizer in partition:
            if stabilizer in seen:
                raise ValueError(f"stabilizer {stabilizer} appears in two partitions")
            seen.add(stabilizer)
        for position, first in enumerate(partition):
            for second in partition[position + 1 :]:
                if not compatible_stabilizers(code, first, second):
                    raise ValueError(
                        f"stabilizers {first} and {second} are incompatible but share a partition"
                    )
    if seen != set(range(code.num_stabilizers)):
        raise ValueError("partitions do not cover all stabilizers")
