"""Reference stabilizer partition: networkx greedy colouring, best of three.

The original :func:`repro.scheduling.partition.partition_stabilizers` for
codes with mixed stabilizers: colour the incompatibility graph with
``nx.coloring.greedy_color`` under three strategies and keep the first
with the fewest colours.  Production now runs one ``largest_first``
greedy colouring, which must give the same partitions on every
registered non-CSS code.
"""

from __future__ import annotations

import networkx as nx

from repro.codes.base import StabilizerCode
from repro.scheduling.partition import compatible_stabilizers

__all__ = ["reference_partition"]


def reference_partition(code: StabilizerCode) -> list[list[int]]:
    graph = nx.Graph()
    graph.add_nodes_from(range(code.num_stabilizers))
    for first in range(code.num_stabilizers):
        for second in range(first + 1, code.num_stabilizers):
            if not compatible_stabilizers(code, first, second):
                graph.add_edge(first, second)
    best: dict[int, int] | None = None
    for strategy in ("connected_sequential_bfs", "largest_first", "smallest_last"):
        colouring = nx.coloring.greedy_color(graph, strategy=strategy)
        if best is None or max(colouring.values(), default=0) < max(best.values(), default=0):
            best = colouring
    partitions: dict[int, list[int]] = {}
    for stabilizer, colour in best.items():
        partitions.setdefault(colour, []).append(stabilizer)
    return [sorted(partitions[colour]) for colour in sorted(partitions)]
