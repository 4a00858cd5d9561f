"""Reference MWPM decoder: networkx decoding graph and per-source Dijkstra.

This is the original :class:`repro.decoders.matching.MWPMDecoder`, kept as
the oracle for the array-backed production kernel.  Construction builds an
``nx.Graph`` (one node per detector plus a ``"boundary"`` node), runs
``nx.single_source_dijkstra`` from every node, walks every stored path to
XOR its observable parity, and densifies the dict-of-dicts results into
``_distance`` / ``_parity``.  Decoding enumerates pairings per defect-count
group and falls back to ``nx.max_weight_matching`` exactly as production
does.

The production decoder must reproduce it exactly: the same ``_distance``
and ``_parity`` arrays (floats equal under ``==``) and the same
predictions from ``_decode_unique``.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from repro.decoders.base import Decoder
from repro.sim.dem import DetectorErrorModel

__all__ = ["ReferenceMWPMDecoder"]

_BOUNDARY = "boundary"
#: Probabilities are clipped away from 0/1 to keep weights finite.
_MIN_PROBABILITY = 1e-12
#: Distance assigned to node pairs the decoding graph does not connect.
_UNREACHABLE = 1e9
#: Defect sets up to this size are matched by exact pairing enumeration
#: (764 pairings at 8 defects); larger sets fall back to blossom.
_ENUM_MAX_DEFECTS = 8
#: Cap on the ``(group, pairings, terms)`` cost-gather temporary.
_ENUM_BLOCK_ELEMENTS = 1 << 21


def _edge_weight(probability: float) -> float:
    probability = min(max(probability, _MIN_PROBABILITY), 1 - _MIN_PROBABILITY)
    return math.log((1 - probability) / probability)


def _enumerate_pairings(count: int) -> np.ndarray:
    """All ways to pair ``count`` defects with each other or the boundary.

    Returns a ``(pairings, count, 2)`` int array of *local* index pairs:
    ``(i, j)`` with ``i < j`` matches defects i and j, ``(i, count)``
    matches defect i to the boundary, and rows are padded with the no-op
    ``(count, count)`` (boundary-to-boundary, distance 0, empty parity) so
    every pairing has exactly ``count`` terms.  These are precisely the
    perfect matchings of the historical blossom graph, in a deterministic
    enumeration order.
    """
    pairings: list[list[tuple[int, int]]] = []

    def recurse(remaining: tuple[int, ...], acc: list[tuple[int, int]]) -> None:
        if not remaining:
            pairings.append(list(acc))
            return
        first, rest = remaining[0], remaining[1:]
        acc.append((first, count))  # match to boundary
        recurse(rest, acc)
        acc.pop()
        for position, partner in enumerate(rest):
            acc.append((first, partner))
            recurse(rest[:position] + rest[position + 1 :], acc)
            acc.pop()

    recurse(tuple(range(count)), [])
    table = np.full((len(pairings), count, 2), count, dtype=np.int64)
    for row, pairing in enumerate(pairings):
        for term, pair in enumerate(pairing):
            table[row, term] = pair
    return table


class ReferenceMWPMDecoder(Decoder):
    """The original networkx-backed MWPM decoder, kept verbatim."""

    def __init__(self, dem: DetectorErrorModel) -> None:
        super().__init__(dem)
        self.graph = self._build_graph(dem)
        self._distances, self._path_observables = self._all_pairs_paths()
        self._build_path_matrices()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _build_graph(self, dem: DetectorErrorModel) -> nx.Graph:
        edges: dict[tuple, dict] = {}

        def add_edge(u, v, probability: float, observables: frozenset[int]) -> None:
            key = (u, v) if str(u) <= str(v) else (v, u)
            entry = edges.setdefault(
                key, {"probability": 0.0, "observables": frozenset()}
            )
            combined = entry["probability"] * (1 - probability) + probability * (
                1 - entry["probability"]
            )
            entry["probability"] = combined
            # Keep the observable signature of the dominant contribution.
            if probability > entry.get("max_contribution", 0.0):
                entry["observables"] = observables
                entry["max_contribution"] = probability

        pending: list = []
        for mechanism in dem.mechanisms:
            detectors = sorted(mechanism.detectors)
            if len(detectors) == 0:
                continue
            if len(detectors) == 1:
                add_edge(detectors[0], _BOUNDARY, mechanism.probability, mechanism.observables)
            elif len(detectors) == 2:
                add_edge(detectors[0], detectors[1], mechanism.probability, mechanism.observables)
            else:
                pending.append(mechanism)

        # Decompose hyperedges (e.g. Y faults) into chains of graph edges.
        for mechanism in pending:
            detectors = sorted(mechanism.detectors)
            for first, second in zip(detectors[::2], detectors[1::2]):
                add_edge(first, second, mechanism.probability, mechanism.observables)
            if len(detectors) % 2:
                add_edge(detectors[-1], _BOUNDARY, mechanism.probability, frozenset())

        graph = nx.Graph()
        graph.add_node(_BOUNDARY)
        graph.add_nodes_from(range(dem.num_detectors))
        for (u, v), entry in edges.items():
            graph.add_edge(
                u,
                v,
                weight=_edge_weight(entry["probability"]),
                observables=entry["observables"],
            )
        return graph

    def _all_pairs_paths(self):
        """Pre-compute distances and path observable parities between all nodes."""
        distances: dict = {}
        observables: dict = {}
        for source in self.graph.nodes:
            lengths, paths = nx.single_source_dijkstra(self.graph, source, weight="weight")
            distances[source] = lengths
            source_observables: dict = {}
            for target, path in paths.items():
                parity: set[int] = set()
                for u, v in zip(path, path[1:]):
                    parity.symmetric_difference_update(
                        self.graph.edges[u, v]["observables"]
                    )
                source_observables[target] = frozenset(parity)
            observables[source] = source_observables
        return distances, observables

    def _build_path_matrices(self) -> None:
        """Densify the all-pairs results for the batch decode inner loop.

        Node indices: detectors ``0..N-1``, boundary ``N``.  ``_distance``
        holds exactly the dijkstra lengths the dict form holds (missing
        pairs get the same ``1e9`` sentinel the historical ``dict.get``
        used), so matching-graph weights are bit-identical.  Path
        observable parities become one uint8 matrix per pair, flattened to
        ``(N+1, N+1, num_observables)`` — XOR-accumulated directly into the
        prediction rows.
        """
        n = self.dem.num_detectors
        node_index = {node: node for node in range(n)}
        node_index[_BOUNDARY] = n
        self._boundary_index = n
        self._distance = np.full((n + 1, n + 1), _UNREACHABLE, dtype=np.float64)
        self._parity = np.zeros((n + 1, n + 1, self.dem.num_observables), dtype=np.uint8)
        for source, lengths in self._distances.items():
            si = node_index[source]
            for target, length in lengths.items():
                self._distance[si, node_index[target]] = length
        for source, targets in self._path_observables.items():
            si = node_index[source]
            for target, parity in targets.items():
                for observable in parity:
                    self._parity[si, node_index[target], observable] = 1

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        predictions = np.zeros(
            (syndromes.shape[0], self.dem.num_observables), dtype=np.uint8
        )
        defect_lists = self._defects_per_row(syndromes)
        counts = np.fromiter(
            (d.size for d in defect_lists), dtype=np.int64, count=len(defect_lists)
        )
        for count in np.unique(counts):
            if count == 0:
                continue
            rows = np.nonzero(counts == count)[0]
            if count > _ENUM_MAX_DEFECTS:
                for row in rows:
                    self._match_defects(defect_lists[row], predictions[row])
                continue
            group = np.stack([defect_lists[row] for row in rows])
            self._match_group(rows, group, predictions)
        return predictions

    def _match_group(
        self, rows: np.ndarray, group: np.ndarray, predictions: np.ndarray
    ) -> None:
        """Exactly match all syndromes with the same defect count at once.

        ``group`` is ``(g, count)`` defect indices.  Every candidate pairing
        of the whole group is costed with one fancy-indexed gather over the
        dense distance matrix; the argmin pairing is the minimum-weight
        perfect matching.  A cost tie between pairings that *agree* on the
        predicted flip is resolved for free; tied pairings that disagree
        (a genuinely degenerate optimum) defer to blossom so the historical
        tie-breaking is preserved bit for bit.
        """
        count = group.shape[1]
        table = self._pairing_table(count)  # (P, count, 2) local indices
        left, right = table[:, :, 0], table[:, :, 1]
        block = max(1, _ENUM_BLOCK_ELEMENTS // (table.shape[0] * count))
        for start in range(0, rows.size, block):
            rows_block = rows[start : start + block]
            # Local index `count` is the boundary node.
            nodes = np.concatenate(
                [
                    group[start : start + block],
                    np.full((rows_block.size, 1), self._boundary_index, dtype=np.int64),
                ],
                axis=1,
            )
            u = nodes[:, left]  # (g, P, count) global node indices
            v = nodes[:, right]
            costs = self._distance[u, v].sum(axis=2)  # (g, P)
            best = costs.min(axis=1)
            for k, row in enumerate(rows_block):
                optimal = np.nonzero(costs[k] == best[k])[0]
                prediction = np.bitwise_xor.reduce(
                    self._parity[u[k, optimal[0]], v[k, optimal[0]]], axis=0
                )
                if optimal.size > 1 and not all(
                    np.array_equal(
                        np.bitwise_xor.reduce(
                            self._parity[u[k, other], v[k, other]], axis=0
                        ),
                        prediction,
                    )
                    for other in optimal[1:]
                ):
                    self._match_defects(group[start + k], predictions[row])
                    continue
                predictions[row] ^= prediction

    _pairing_tables: "dict[int, np.ndarray]" = {}

    @classmethod
    def _pairing_table(cls, count: int) -> np.ndarray:
        """Cached pairing enumeration for ``count`` defects (class-wide)."""
        table = cls._pairing_tables.get(count)
        if table is None:
            table = cls._pairing_tables[count] = _enumerate_pairings(count)
        return table

    def _match_defects(self, defects: np.ndarray, prediction: np.ndarray) -> None:
        """Match one defect set and XOR the path parities into ``prediction``.

        Mirrors the historical per-shot implementation exactly — same
        matching-graph nodes, edges, insertion order and float weights — so
        ``nx.max_weight_matching`` returns the identical matching; only the
        distance/parity lookups moved from dicts to arrays.
        """
        boundary = self._boundary_index
        distance = self._distance
        matching_graph = nx.Graph()
        num_defects = len(defects)
        for i in range(num_defects):
            u = defects[i]
            for j in range(i + 1, num_defects):
                matching_graph.add_edge(
                    ("d", i), ("d", j), weight=-float(distance[u, defects[j]])
                )
            matching_graph.add_edge(
                ("d", i), ("b", i), weight=-float(distance[u, boundary])
            )
        # Boundary copies may pair among themselves at zero cost.
        for i in range(num_defects):
            for j in range(i + 1, num_defects):
                matching_graph.add_edge(("b", i), ("b", j), weight=0.0)

        matching = nx.max_weight_matching(matching_graph, maxcardinality=True)
        for first, second in matching:
            kinds = {first[0], second[0]}
            if kinds == {"b"}:
                continue
            if kinds == {"d"}:
                u = defects[first[1]]
                v = defects[second[1]]
            else:
                defect_node = first if first[0] == "d" else second
                u = defects[defect_node[1]]
                v = boundary
            prediction ^= self._parity[u, v]
