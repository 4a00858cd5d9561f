"""Minimum-weight perfect matching decoder.

The decoding graph has one node per detector plus a virtual boundary node
at index ``num_detectors``.  Every mechanism that flips one or two
detectors becomes a weighted edge (weight ``log((1-p)/p)``); parallel
mechanisms merge as ``p1(1-p2) + p2(1-p1)`` and keep the observables of
the dominant contribution.  Mechanisms flipping more than two detectors
are approximated by chaining their sorted detectors pairwise (an odd one
out goes to the boundary) — the standard treatment of Y-type faults in
surface-code DEMs.

Construction is plain arrays: the edges live in an int-indexed adjacency
list with observable sets as int bitmasks, and one ``heapq`` Dijkstra per
source fills the dense ``(N+1, N+1)`` distance matrix while carrying each
shortest path's observable parity (``parity[u] = parity[v] ^ obs(v, u)``
at every improvement) instead of storing the path.  The heap order and tie
rule are networkx's ``_dijkstra_multisource`` exactly — entries
``(dist, counter, node)``, neighbours in first-insertion order, strict
``<`` improvements — so distances and parities are bit-identical to the
historical networkx shortest-path construction, which is kept as the
oracle ``tests/oracles/matching_reference.py`` and pinned by
``tests/test_matching_kernel.py``.

Decoding is organised around the base class's dedup front end: matching
runs once per *unique* syndrome (a 5–50x shot reduction at paper-regime
error rates).  Unique syndromes are grouped by defect count and matched in
bulk: for small defect sets (the overwhelming majority at paper-regime
rates) every possible pairing — defect-defect or defect-boundary — is
enumerated from a cached per-count table, all pairings of a whole group
are costed with one gather/sum against the distance matrix, and the first
optimum's prediction is one gathered XOR-reduce per block.  Blossom
(:func:`repro.decoders.blossom.max_weight_matching`, an int-indexed port
of networkx's ``max_weight_matching`` that walks its containers in
networkx's order) is used only as the fallback for large defect sets and
for the rare degenerate optimum whose tied pairings disagree on the
predicted flip; either way predictions are bit-identical to the historical
per-shot networkx implementation (the enumerated argmin *is* the
minimum-weight perfect matching, ties that cannot change the prediction
are the only ones resolved without blossom, and the port returns
networkx's matching, pair orientation included, on the historical graph).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from repro.decoders.base import Decoder
from repro.decoders.blossom import max_weight_matching
from repro.sim.dem import DetectorErrorModel

__all__ = ["MWPMDecoder"]

#: Probabilities are clipped away from 0/1 to keep weights finite.
_MIN_PROBABILITY = 1e-12
#: Observable bitmask of an edge no contribution dominates, and of a
#: hyperedge's odd boundary link.
_NO_OBSERVABLES = 0
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


def _decoding_edges(dem: DetectorErrorModel) -> "list[list[tuple[int, float, int]]]":
    """Adjacency list of the decoding graph: ``(neighbour, weight, obs_mask)``.

    Node ``num_detectors`` is the boundary.  Edges keep their first-insertion
    order (one- and two-detector mechanisms first, then the chained
    hyperedges), so every node lists its neighbours in the order the
    historical networkx graph did.  A merged probability above 0.5 would give
    a negative weight, which Dijkstra cannot handle, and is rejected here.
    """
    boundary = dem.num_detectors
    probabilities = dem.priors.tolist()
    detectors = dem.detector_indices.tolist()
    starts = dem.detector_indptr.tolist()
    # Each mechanism's observables as an int bitmask.
    masks = [0] * dem.num_mechanisms
    owners = np.repeat(np.arange(dem.num_mechanisms), np.diff(dem.observable_indptr))
    for mechanism, observable in zip(owners.tolist(), dem.observable_indices.tolist()):
        masks[mechanism] |= 1 << observable
    # (u, v, probability, observables) in the historical insertion order:
    # one- and two-detector mechanisms, then the chained hyperedges.  Each
    # mechanism's detectors are ascending.
    contributions = []
    pending = []
    for mechanism, (start, stop) in enumerate(zip(starts, starts[1:])):
        if stop - start == 2:
            contributions.append(
                (detectors[start], detectors[start + 1], probabilities[mechanism], masks[mechanism])
            )
        elif stop - start == 1:
            contributions.append(
                (detectors[start], boundary, probabilities[mechanism], masks[mechanism])
            )
        elif stop > start:
            pending.append(mechanism)
    for mechanism in pending:
        chain = detectors[starts[mechanism] : starts[mechanism + 1]]
        probability, observables = probabilities[mechanism], masks[mechanism]
        for first, second in zip(chain[::2], chain[1::2]):
            contributions.append((first, second, probability, observables))
        if len(chain) % 2:
            contributions.append((chain[-1], boundary, probability, _NO_OBSERVABLES))

    # (u, v) -> [merged probability, dominant contribution, its observables];
    # dict order is first-insertion order.
    merged: dict[tuple[int, int], list] = {}
    for u, v, probability, observables in contributions:
        key = (u, v) if u < v else (v, u)
        entry = merged.get(key)
        if entry is None:
            entry = merged[key] = [0.0, 0.0, _NO_OBSERVABLES]
        previous = entry[0]
        entry[0] = previous * (1 - probability) + probability * (1 - previous)
        # Keep the observable signature of the dominant contribution.
        if probability > entry[1]:
            entry[1] = probability
            entry[2] = observables

    adjacency: list[list[tuple[int, float, int]]] = [[] for _ in range(boundary + 1)]
    for (u, v), (probability, _, observables) in merged.items():
        if probability > 0.5:
            target = "the boundary" if v == boundary else f"detector {v}"
            raise ValueError(
                f"MWPM edge between detector {u} and {target} has merged probability "
                f"{probability!r} > 0.5 (negative matching weight)"
            )
        weight = _edge_weight(probability)
        adjacency[u].append((v, weight, observables))
        adjacency[v].append((u, weight, observables))
    return adjacency


def _all_pairs_paths(
    adjacency: "list[list[tuple[int, float, int]]]", num_observables: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Dense shortest-path distances and path observable parities.

    One heap Dijkstra per source with networkx's tie rule (heap entries
    ``(dist, counter, node)``, adjacency order, strict ``<``); the parity
    of a node is fixed by the relaxation that last improved it, which is
    exactly the parity of the path networkx reconstructs from its
    predecessor map.  Returns the ``(N+1, N+1)`` float distances (``1e9``
    for unconnected pairs) and ``(N+1, N+1, num_observables)`` uint8
    parities.
    """
    size = len(adjacency)
    infinity = math.inf
    distance_rows = []
    parity_rows = []
    for source in range(size):
        seen = [infinity] * size
        parity = [0] * size
        seen[source] = 0
        fringe = [(0, 0, source)]
        counter = 1
        while fringe:
            dist_v, _, v = heappop(fringe)
            if dist_v > seen[v]:
                continue  # stale entry: v was already settled closer
            parity_v = parity[v]
            for u, weight, mask in adjacency[v]:
                dist_u = dist_v + weight
                if dist_u < seen[u]:
                    seen[u] = dist_u
                    parity[u] = parity_v ^ mask
                    heappush(fringe, (dist_u, counter, u))
                    counter += 1
        distance_rows.append(seen)
        parity_rows.append(parity)
    distance = np.array(distance_rows, dtype=np.float64)
    distance[distance == infinity] = _UNREACHABLE
    return distance, _mask_bits(parity_rows, size, num_observables)


def _mask_bits(rows: "list[list[int]]", size: int, width: int) -> np.ndarray:
    """Expand a ``size x size`` grid of int bitmasks to ``(size, size, width)`` bits."""
    nbytes = max(1, (width + 7) // 8)
    raw = b"".join(mask.to_bytes(nbytes, "little") for row in rows for mask in row)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(size, size, nbytes),
        axis=2,
        bitorder="little",
    )
    return np.ascontiguousarray(bits[:, :, :width])


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


class MWPMDecoder(Decoder):
    """Minimum-weight perfect matching on the DEM's decoding graph."""

    def __init__(self, dem: DetectorErrorModel) -> None:
        super().__init__(dem)
        self._boundary_index = dem.num_detectors
        self._distance, self._parity = _all_pairs_paths(
            _decoding_edges(dem), dem.num_observables
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        predictions = np.zeros(
            (syndromes.shape[0], self.dem.num_observables), dtype=np.uint8
        )
        counts = np.count_nonzero(syndromes, axis=1)
        for count in np.unique(counts):
            if count == 0:
                continue
            rows = np.nonzero(counts == count)[0]
            group = np.nonzero(syndromes[rows])[1].reshape(rows.size, count)
            if count > _ENUM_MAX_DEFECTS:
                for row, defects in zip(rows, group):
                    self._match_defects(defects, predictions[row])
                continue
            self._match_group(rows, group, predictions)
        return predictions

    def _match_group(
        self, rows: np.ndarray, group: np.ndarray, predictions: np.ndarray
    ) -> None:
        """Exactly match all syndromes with the same defect count at once.

        ``group`` is ``(g, count)`` defect indices.  Every candidate pairing
        of the whole group is costed with one fancy-indexed gather over the
        dense distance matrix; the argmin pairing is the minimum-weight
        perfect matching, and the first optimum's prediction is one gathered
        XOR-reduce for the whole block.  A cost tie between pairings that
        *agree* on the predicted flip is resolved for free; tied pairings
        that disagree (a genuinely degenerate optimum) defer to blossom so
        the historical tie-breaking is preserved bit for bit.
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
            tied = costs == costs.min(axis=1)[:, None]
            first = tied.argmax(axis=1)
            local = np.arange(rows_block.size)
            block_predictions = np.bitwise_xor.reduce(
                self._parity[u[local, first], v[local, first]], axis=1
            )
            for k in np.nonzero(np.count_nonzero(tied, axis=1) > 1)[0]:
                optimal = np.nonzero(tied[k])[0]
                candidates = np.bitwise_xor.reduce(
                    self._parity[u[k, optimal], v[k, optimal]], axis=1
                )
                if not (candidates == candidates[0]).all():
                    block_predictions[k] = 0
                    self._match_defects(group[start + k], block_predictions[k])
            predictions[rows_block] = block_predictions

    _pairing_tables: "dict[int, np.ndarray]" = {}

    @classmethod
    def _pairing_table(cls, count: int) -> np.ndarray:
        """Cached pairing enumeration for ``count`` defects (class-wide)."""
        table = cls._pairing_tables.get(count)
        if table is None:
            table = cls._pairing_tables[count] = _enumerate_pairings(count)
        return table

    def _match_defects(self, defects: np.ndarray, prediction: np.ndarray) -> None:
        """Match one defect set with blossom; XOR path parities into ``prediction``.

        Node ``i`` is defect ``i`` and node ``num_defects + i`` its boundary
        copy, the order the historical ``nx.from_edgelist`` graph inserted
        them; edges, their order and float weights are the historical ones
        too, so blossom returns networkx's matching.
        """
        boundary = self._boundary_index
        distance = self._distance
        num_defects = len(defects)
        edges = []
        for i in range(num_defects):
            u = defects[i]
            for j in range(i + 1, num_defects):
                edges.append((i, j, -float(distance[u, defects[j]])))
            edges.append((i, num_defects + i, -float(distance[u, boundary])))
        # Boundary copies may pair among themselves at zero cost.
        for i in range(num_defects):
            for j in range(i + 1, num_defects):
                edges.append((num_defects + i, num_defects + j, 0.0))

        for first, second in max_weight_matching(2 * num_defects, edges):
            if first >= num_defects and second >= num_defects:
                continue
            if first < num_defects and second < num_defects:
                u, v = defects[first], defects[second]
            else:
                u, v = defects[min(first, second)], boundary
            prediction ^= self._parity[u, v]
