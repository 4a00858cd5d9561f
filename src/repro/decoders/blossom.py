"""Maximum-weight matching by Edmonds' blossom algorithm, on int-indexed arrays.

The primal-dual algorithm of Galil ("Efficient Algorithms for Finding
Maximum Matching in Graphs", ACM Computing Surveys, 1986), after Joris van
Rantwijk's ``mwmatching.py`` and networkx's ``max_weight_matching``, in its
maximum-cardinality form: of all matchings with the most edges, return one
of maximum total weight.  Minimum-weight perfect matching is this with the
weights negated, which is how :mod:`repro.decoders.matching` uses it.

Nodes are ``0..n-1``; a non-trivial blossom is an int id in ``n..2n-1``
with parent, base, children and edge arrays, so a run builds nothing but
lists, dicts and tuples of ints and leaves no reference cycles behind.

Ties are common in decoding graphs (equal path lengths, zero-weight
boundary links), so *which* optimum comes out matters: every container is
walked in the order networkx walks its dicts — neighbours in edge
insertion order, the delta-3 scan over vertices then living blossoms in
creation order (deleted ones drop out, a recycled id goes to the end),
least-slack candidates in first-seen order, and the result pairs in the
order their first vertex was first matched.  On the same graph (nodes
numbered in networkx's insertion order, edges in the same order, the same
weights) the returned pairs are exactly the set
``nx.max_weight_matching(G, maxcardinality=True)`` returns, orientation
included; ``tests/test_blossom.py`` pins that against networkx.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

__all__ = ["max_weight_matching"]


def max_weight_matching(
    num_nodes: int, edges: Iterable[tuple[int, int, float]]
) -> list[tuple[int, int]]:
    """Maximum-cardinality matching of maximum weight.

    ``edges`` are ``(u, v, weight)`` with ``0 <= u, v < num_nodes``.  As in
    an ``nx.Graph``, a repeated pair keeps its first position and its last
    weight, and self-loops are ignored.  Returns the matched pairs ``(u, v)``
    in networkx's order and orientation.
    """
    return _Matcher(num_nodes, edges).solve()


class _Matcher:
    """State of one matching run; ids ``>= n`` are non-trivial blossoms.

    The per-id lists mirror networkx's dicts: ``0`` stands for a missing
    label, ``-1`` for a missing parent or vertex, ``None`` for a missing
    edge.  ``mate`` and ``blossomdual`` stay dicts because their iteration
    order is observable.
    """

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int, float]]) -> None:
        n = self.n = num_nodes
        # neighbours[v]: {w: weight} in first-insertion order.
        self.neighbours: list[dict[int, float]] = [{} for _ in range(n)]
        for u, v, weight in edges:
            if u != v:
                self.neighbours[u][v] = self.neighbours[v][u] = weight
        maxweight = 0
        for weights in self.neighbours:
            for weight in weights.values():
                if weight > maxweight:
                    maxweight = weight
        # dual[v] is 2 * u(v); every vertex starts at maxweight.
        self.dual = [maxweight] * n
        self.mate: dict[int, int] = {}
        self.label = [0] * (2 * n)
        self.labeledge: list[tuple[int, int] | None] = [None] * (2 * n)
        self.bestedge: list[tuple[int, int] | None] = [None] * (2 * n)
        self.inblossom = list(range(n))
        self.blossomparent = [-1] * (2 * n)
        self.blossombase = list(range(n)) + [-1] * n
        self.childs: list[list[int] | None] = [None] * (2 * n)
        self.blossomedges: list[list[tuple[int, int]] | None] = [None] * (2 * n)
        self.mybestedges: list[list[tuple[int, int]] | None] = [None] * (2 * n)
        self.blossomdual: dict[int, float] = {}
        self.unused = list(range(n, 2 * n))
        # allowed[v]: the w with edge (v, w) known to have zero slack.
        self.allowed: list[set[int]] = [set() for _ in range(n)]
        self.queue: list[int] = []

    def slack(self, v: int, w: int) -> float:
        """Twice the slack of edge ``(v, w)`` (not valid inside a blossom)."""
        return self.dual[v] + self.dual[w] - 2 * self.neighbours[v][w]

    def leaves(self, b: int) -> list[int]:
        """The vertices of blossom ``b``, in networkx's stack order."""
        n, childs = self.n, self.childs
        stack = list(childs[b])
        leaves = []
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                leaves.append(t)
        return leaves

    def assign_label(self, w: int, t: int, v: int) -> None:
        """Label the top-level blossom of ``w`` with ``t``, reached from ``v``."""
        b = self.inblossom[w]
        self.label[w] = self.label[b] = t
        self.labeledge[w] = self.labeledge[b] = None if v < 0 else (v, w)
        self.bestedge[w] = self.bestedge[b] = None
        if t == 1:
            # An S-blossom: queue its vertices.
            if b >= self.n:
                self.queue.extend(self.leaves(b))
            else:
                self.queue.append(b)
        else:
            # A T-blossom: its base's mate becomes S.
            base = self.blossombase[b]
            self.assign_label(self.mate[base], 1, base)

    def scan_blossom(self, v: int, w: int) -> int:
        """Trace back from ``v`` and ``w``: a new blossom's base, or -1 for a path."""
        inblossom, label, labeledge = self.inblossom, self.label, self.labeledge
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = self.blossombase[b]
                break
            path.append(b)
            label[b] = 5  # breadcrumb
            if labeledge[b] is None:
                v = -1  # b's base is single
            else:
                v = labeledge[b][0]
                v = labeledge[inblossom[v]][0]  # through the T-blossom
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(self, base: int, v: int, w: int) -> None:
        """Make a new S-blossom with ``base`` through S-vertices ``v`` and ``w``."""
        n, inblossom, label, labeledge = self.n, self.inblossom, self.label, self.labeledge
        blossomparent, bestedge = self.blossomparent, self.bestedge
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = self.unused.pop()
        self.blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = []
        edges = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edges.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edges.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edges.append((labeledge[bw][1], labeledge[bw][0]))
            bw = inblossom[labeledge[bw][0]]
        self.childs[b] = path
        self.blossomedges[b] = edges
        label[b] = 1
        labeledge[b] = labeledge[bb]
        self.blossomdual[b] = 0
        for leaf in self.leaves(b):
            if label[inblossom[leaf]] == 2:
                # A T-vertex inside an S-blossom becomes S.
                self.queue.append(leaf)
            inblossom[leaf] = b
        # Least-slack edges to each neighbouring S-blossom, first seen first.
        neighbours = self.neighbours
        bestedgeto: dict[int, tuple[int, int]] = {}
        for sub in path:
            if sub < n:
                candidates = [(sub, j) for j in neighbours[sub]]
            elif self.mybestedges[sub] is not None:
                candidates = self.mybestedges[sub]
                self.mybestedges[sub] = None
            else:
                candidates = [(i, j) for i in self.leaves(sub) for j in neighbours[i]]
            for k in candidates:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and (bj not in bestedgeto or self.slack(i, j) < self.slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            bestedge[sub] = None
        self.mybestedges[b] = list(bestedgeto.values())
        best = None
        for k in self.mybestedges[b]:
            kslack = self.slack(*k)
            if best is None or kslack < bestslack:
                best, bestslack = k, kslack
        bestedge[b] = best

    def expand_blossom(self, b: int, endstage: bool) -> None:
        """Dissolve top-level blossom ``b`` into its sub-blossoms."""
        n, inblossom, label, labeledge = self.n, self.inblossom, self.label, self.labeledge
        childs = self.childs[b]
        for s in childs:
            self.blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and self.blossomdual[s] == 0:
                self.expand_blossom(s, endstage)
            else:
                for leaf in self.leaves(s):
                    inblossom[leaf] = s
        if not endstage and label[b] == 2:
            # Relabel the sub-blossoms of an expanding T-blossom, from the
            # one it was entered through round to the base.
            edges = self.blossomedges[b]
            allowed = self.allowed
            entrychild = inblossom[labeledge[b][1]]
            j = childs.index(entrychild)
            if j & 1:
                j -= len(childs)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = edges[j]
                else:
                    q, p = edges[j - 1]
                label[w] = label[q] = 0
                self.assign_label(w, 2, v)
                allowed[p].add(q)
                allowed[q].add(p)
                j += jstep
                if jstep == 1:
                    v, w = edges[j]
                else:
                    w, v = edges[j - 1]
                allowed[v].add(w)
                allowed[w].add(v)
                j += jstep
            # The base sub-blossom becomes T without passing on to its mate.
            bw = childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            self.bestedge[bw] = None
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                if label[bv] == 1:
                    # Labelled S through a neighbour already.
                    j += jstep
                    continue
                if bv >= n:
                    for v in self.leaves(bv):
                        if label[v]:
                            break
                else:
                    v = bv
                if label[v]:
                    # A vertex of bv is reachable from outside: bv becomes T.
                    label[v] = 0
                    label[self.mate[self.blossombase[bv]]] = 0
                    self.assign_label(v, 2, labeledge[v][0])
                j += jstep
        label[b] = 0
        labeledge[b] = self.bestedge[b] = None
        self.blossomparent[b] = self.blossombase[b] = -1
        self.childs[b] = self.blossomedges[b] = self.mybestedges[b] = None
        del self.blossomdual[b]
        self.unused.append(b)

    def augment_blossom(self, b: int, v: int) -> None:
        """Swap matched edges along blossom ``b`` from ``v`` to its base."""
        n, blossomparent, mate = self.n, self.blossomparent, self.mate
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            self.augment_blossom(t, v)
        childs, edges = self.childs[b], self.blossomedges[b]
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = childs[j]
            if jstep == 1:
                w, x = edges[j]
            else:
                x, w = edges[j - 1]
            if t >= n:
                self.augment_blossom(t, w)
            j += jstep
            t = childs[j]
            if t >= n:
                self.augment_blossom(t, x)
            mate[w] = x
            mate[x] = w
        # Rotate so the new base comes first.
        self.childs[b] = childs[i:] + childs[:i]
        self.blossomedges[b] = edges[i:] + edges[:i]
        self.blossombase[b] = self.blossombase[self.childs[b][0]]

    def augment_matching(self, v: int, w: int) -> None:
        """Swap matched edges along the augmenting path through ``(v, w)``."""
        n, inblossom, labeledge, mate = self.n, self.inblossom, self.labeledge, self.mate
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    self.augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break  # reached a single vertex
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    self.augment_blossom(bt, j)
                mate[j] = s

    def solve(self) -> list[tuple[int, int]]:
        n = self.n
        inblossom, label, labeledge, bestedge = (
            self.inblossom, self.label, self.labeledge, self.bestedge
        )
        blossomparent, blossomdual, dual = self.blossomparent, self.blossomdual, self.dual
        allowed, queue, mate, slack = self.allowed, self.queue, self.mate, self.slack
        while True:
            # A stage: label from every single vertex, then grow until one
            # augmenting path is found or the duals prove none is left.
            label[:] = [0] * (2 * n)
            labeledge[:] = [None] * (2 * n)
            bestedge[:] = [None] * (2 * n)
            for b in blossomdual:
                self.mybestedges[b] = None
            for edges in allowed:
                edges.clear()
            queue.clear()
            for v in range(n):
                if v not in mate and label[inblossom[v]] == 0:
                    self.assign_label(v, 1, -1)
            augmented = False
            while True:
                while queue and not augmented:
                    v = queue.pop()
                    allowed_v = allowed[v]
                    for w, weight in self.neighbours[v].items():
                        bv = inblossom[v]
                        bw = inblossom[w]
                        if bv == bw:
                            continue  # internal to a blossom
                        if w not in allowed_v:
                            kslack = dual[v] + dual[w] - 2 * weight
                            if kslack <= 0:
                                allowed_v.add(w)
                                allowed[w].add(v)
                        if w in allowed_v:
                            if label[bw] == 0:
                                self.assign_label(w, 2, v)
                            elif label[bw] == 1:
                                base = self.scan_blossom(v, w)
                                if base != -1:
                                    self.add_blossom(base, v, w)
                                else:
                                    self.augment_matching(v, w)
                                    augmented = True
                                    break
                            elif label[w] == 0:
                                # w is inside a T-blossom: mark it reached.
                                label[w] = 2
                                labeledge[w] = (v, w)
                        elif label[bw] == 1:
                            if bestedge[bv] is None or kslack < slack(*bestedge[bv]):
                                bestedge[bv] = (v, w)
                        elif label[w] == 0:
                            if bestedge[w] is None or kslack < slack(*bestedge[w]):
                                bestedge[w] = (v, w)
                if augmented:
                    break
                # No augmenting path on allowed edges: move the duals by delta.
                deltatype = -1
                delta = deltaedge = deltablossom = None
                # delta2: least slack from an S-vertex to a free vertex.
                for v in range(n):
                    if label[inblossom[v]] == 0 and bestedge[v] is not None:
                        d = slack(*bestedge[v])
                        if deltatype == -1 or d < delta:
                            delta, deltatype, deltaedge = d, 2, bestedge[v]
                # delta3: half the least slack between two S-blossoms.
                for b in chain(range(n), blossomdual):
                    if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] is not None:
                        d = slack(*bestedge[b]) / 2.0
                        if deltatype == -1 or d < delta:
                            delta, deltatype, deltaedge = d, 3, bestedge[b]
                # delta4: least dual of a top-level T-blossom.
                for b in blossomdual:
                    if (
                        blossomparent[b] == -1
                        and label[b] == 2
                        and (deltatype == -1 or blossomdual[b] < delta)
                    ):
                        delta, deltatype, deltablossom = blossomdual[b], 4, b
                if deltatype == -1:
                    break  # maximum cardinality reached at maximum weight
                for v in range(n):
                    vlabel = label[inblossom[v]]
                    if vlabel == 1:
                        dual[v] -= delta
                    elif vlabel == 2:
                        dual[v] += delta
                for b in blossomdual:
                    if blossomparent[b] == -1:
                        if label[b] == 1:
                            blossomdual[b] += delta
                        elif label[b] == 2:
                            blossomdual[b] -= delta
                if deltatype == 4:
                    self.expand_blossom(deltablossom, False)
                else:
                    v, w = deltaedge
                    allowed[v].add(w)
                    allowed[w].add(v)
                    queue.append(v)
            if not augmented:
                break
            # End of stage: dissolve top-level S-blossoms whose dual is zero.
            for b in list(blossomdual):
                if (
                    b in blossomdual
                    and blossomparent[b] == -1
                    and label[b] == 1
                    and blossomdual[b] == 0
                ):
                    self.expand_blossom(b, True)
        # Each pair once, led by whichever vertex was matched first.
        pairs = []
        partners: set[int] = set()
        for v, w in mate.items():
            if v not in partners:
                partners.add(w)
                pairs.append((v, w))
        return pairs
