"""Belief propagation with ordered-statistics post-processing (BP-OSD).

The decoder of Roffe et al. (Phys. Rev. Research 2, 043423) as used in the
paper for colour and bivariate-bicycle codes:

* **BP stage** — normalised min-sum belief propagation on the Tanner graph
  of the DEM's check matrix, vectorised over shots with numpy.  Message
  state lives in edge-major ``(edges, shots)`` arrays and the block runs in
  tiles of :data:`_TILE` shots, whose work arrays every iteration reuses
  through ``out=``.  Per-check quantities are reduced over
  contiguous edge segments and gathered back to edges; message signs are
  set on the IEEE sign bit.  Per-mechanism sums reproduce
  ``np.add.reduceat`` bit for bit: that call adds a segment as ``x0``
  plus numpy's pairwise sum of the rest, which runs left to right below
  eight terms, so mechanisms of degree at most eight are summed a whole
  degree class at a time as ``x0 + ((x1 + x2) + ...)`` and only wider
  ones keep reduceat.  A column leaves the tile the iteration its hard
  decision reproduces the syndrome, so later iterations only pay for the
  columns still running.
* **OSD-0 stage** — only for the non-converged residue: columns are ranked
  by the BP posterior reliability, a full-rank column basis is selected
  greedily in that order, and the syndrome is solved exactly on that basis
  (all other mechanisms set to zero).  The elimination holds each row of
  ``H[:, order]`` as one Python integer.

The output per shot is the XOR of the observable signatures of the selected
mechanisms.

Batch decoding enters through the base class's packed dedup front end, so
BP message passing runs over the block of *unique* syndromes only — at
paper-regime error rates a 5–50x reduction in BP columns and OSD calls.
Deduplication is bit-transparent because BP here is *elementwise*: columns
never interact, and each column's posteriors/hard decision are frozen at
its own first convergence iteration, so every shot's result equals its
singleton decode regardless of what else shares the batch.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.decoders.base import Decoder
from repro.sim.dem import DetectorErrorModel

__all__ = [
    "BPOSDDecoder",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_SCALING_FACTOR",
    "check_bposd_parameters",
]

#: Defaults shared by :class:`BPOSDDecoder` and the ``bposd`` registry entry.
DEFAULT_MAX_ITERATIONS = 30
DEFAULT_SCALING_FACTOR = 0.75

_LLR_CLIP = 30.0

#: Unique syndromes per BP tile.  At 64 columns one ``(edges, shots)``
#: float64 array of the ``bb_18`` DEM is ~1.3 MB; a whole 400-column
#: block is about twice as slow.  32 columns are ~7% faster on ``bb_18``
#: but ~25% slower on surface d=3, whose per-iteration cost is mostly
#: call overhead.
_TILE = 64

#: Mechanisms of at most this many edges sum by degree class; numpy's
#: pairwise sum (which ``np.add.reduceat`` uses after the first term)
#: runs left to right below eight terms.
_SEQUENTIAL_DEGREE = 8


def _edge_buffers(columns: int, edges: int) -> tuple[np.ndarray, ...]:
    """Uninitialised ``(edges, columns)`` work arrays for one BP tile.

    Two float64 arrays (a scratch array and the check-to-mechanism
    messages) and two bool masks (negative messages and tied minima),
    reused by every iteration until the tile drops a column.
    """
    shape = (edges, columns)
    return np.empty(shape), np.empty(shape), np.empty(shape, bool), np.empty(shape, bool)


def check_bposd_parameters(
    max_iterations=DEFAULT_MAX_ITERATIONS, scaling_factor=DEFAULT_SCALING_FACTOR
) -> None:
    """Raise ``ValueError`` unless the BP parameters are usable.

    ``max_iterations`` must be a non-negative integer and
    ``scaling_factor`` a number in ``(0, 1]``.
    """
    if (
        not isinstance(max_iterations, numbers.Integral)
        or isinstance(max_iterations, bool)
        or max_iterations < 0
    ):
        raise ValueError(
            f"bposd max_iterations must be a non-negative integer, got {max_iterations!r}"
        )
    if (
        not isinstance(scaling_factor, numbers.Real)
        or isinstance(scaling_factor, bool)
        or not 0 < scaling_factor <= 1
    ):
        raise ValueError(f"bposd scaling_factor must be in (0, 1], got {scaling_factor!r}")


class BPOSDDecoder(Decoder):
    """Normalised min-sum BP + OSD-0 decoder."""

    def __init__(
        self,
        dem: DetectorErrorModel,
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        scaling_factor: float = DEFAULT_SCALING_FACTOR,
    ) -> None:
        check_bposd_parameters(max_iterations, scaling_factor)
        super().__init__(dem)
        self.max_iterations = max_iterations
        self.scaling_factor = scaling_factor
        self._h = self.check_matrix
        self._num_checks, self._num_mechanisms = self._h.shape
        priors = np.clip(self.priors, 1e-12, 0.5 - 1e-12)
        self._prior_llrs = np.log((1 - priors) / priors)
        # Tanner graph edges in edge-major layout.  ``np.nonzero`` yields
        # row-major order, so edges arrive sorted by check — per-check
        # reductions are contiguous segments, and per-check rows expand to
        # edges by gathering along ``_edge_check``.
        checks, mechanisms = np.nonzero(self._h)
        self._num_edges = checks.size
        self._check_present, self._check_starts, check_degrees = np.unique(
            checks, return_index=True, return_counts=True
        )
        # Compact per-check row index of each edge, and the narrowest
        # unsigned dtype that holds a tied-minimum count.
        self._edge_check = np.repeat(np.arange(check_degrees.size), check_degrees)
        self._count_dtype = np.min_scalar_type(int(check_degrees.max(initial=0)))
        self._build_mechanism_sums(mechanisms.astype(np.int64))

    def _build_mechanism_sums(self, edge_mechanism: np.ndarray) -> None:
        """Lay out the per-mechanism message sums by degree class.

        BP keeps its mechanism rows in an internal order sorted by degree
        (edge count), stably; ``_rank[m]`` is mechanism ``m``'s row.  The
        sums must equal ``np.add.reduceat`` over each mechanism's edges in
        check-ascending order, bit for bit, and reduceat adds a segment as
        ``x0 + pairwise(x1, ..., x_{d-1})`` with numpy's pairwise sum,
        which runs left to right below eight terms.  A mechanism of degree
        ``d <= 8`` therefore sums as ``x0 + ((x1 + x2) + ...)``, which the
        kernel evaluates for a whole degree class at once: ``_sum_perm``
        gathers the edges class by class, position ``k`` of every
        mechanism of the class in one contiguous block of rows.
        Mechanisms of degree above eight (pairwise blocks) keep
        ``np.add.reduceat`` over their check-ascending edge runs, which
        follow the class blocks in ``_sum_perm``.
        """
        degrees = np.bincount(edge_mechanism, minlength=self._num_mechanisms)
        by_mechanism = np.argsort(edge_mechanism, kind="stable")
        first_edge = np.cumsum(degrees) - degrees
        order = np.argsort(degrees, kind="stable")
        self._rank = np.argsort(order)
        self._edge_row = self._rank[edge_mechanism]
        self._row_priors = self._prior_llrs[order]
        # Float copy of H, columns in row order, for the convergence test:
        # BLAS sums of 0/1 products are exact integers far below 2**53.
        self._h_rows = self._h[:, order].astype(np.float64)
        row_degrees = degrees[order]
        # Rows of degree 0 never receive a message: their posterior stays
        # the prior.
        self._first_message_row = row = int(np.searchsorted(row_degrees, 1))
        pieces = []
        self._degree_classes = []
        for degree in range(1, _SEQUENTIAL_DEGREE + 1):
            stop = int(np.searchsorted(row_degrees, degree, side="right"))
            if stop > row:
                starts = first_edge[order[row:stop]]
                pieces.extend(by_mechanism[starts + k] for k in range(degree))
                self._degree_classes.append((row, stop, degree))
            row = stop
        self._reduceat_row = row
        tail = order[row:]
        tail_degrees = degrees[tail]
        pieces.extend(by_mechanism[first_edge[m] : first_edge[m] + degrees[m]] for m in tail)
        self._tail_starts = np.cumsum(tail_degrees) - tail_degrees
        self._sum_perm = np.concatenate([np.zeros(0, dtype=np.int64), *pieces])

    # ------------------------------------------------------------------
    # Batch decode (unique syndromes, via the base dedup front end)
    # ------------------------------------------------------------------
    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        shots = syndromes.shape[0]
        predictions = np.zeros((shots, self.dem.num_observables), dtype=np.uint8)
        if self._num_mechanisms == 0 or shots == 0:
            return predictions
        posteriors, hard_decisions, converged = self._run_bp(syndromes)
        if converged.any():
            predictions[converged] = self.predicted_observables_batch(
                hard_decisions[converged]
            )
        for shot in np.nonzero(~converged)[0]:
            error = self._osd_zero(syndromes[shot], posteriors[shot])
            predictions[shot] = self.predicted_observables(error)
        return predictions

    # ------------------------------------------------------------------
    # Belief propagation (edge-major, tiled over shots)
    # ------------------------------------------------------------------
    def _run_bp(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """BP posteriors, hard decisions and convergence flags per shot.

        Returns ``(shots, mechanisms)`` float64 posteriors and uint8 hard
        decisions, each frozen at the shot's first convergence iteration
        (or taken after the last iteration), and a ``(shots,)`` bool mask
        of the shots whose hard decision reproduces their syndrome.
        """
        shots = syndromes.shape[0]
        converged = np.zeros(shots, dtype=bool)
        if self._num_edges == 0 or self.max_iterations == 0:
            posteriors = np.tile(self._prior_llrs, (shots, 1))
            hard = np.zeros((shots, self._num_mechanisms), dtype=np.uint8)
            return posteriors, hard, converged
        # Tiles write mechanism rows in the kernel's degree-sorted order.
        posteriors = np.empty((shots, self._num_mechanisms))
        hard = np.empty((shots, self._num_mechanisms), dtype=np.uint8)
        for start in range(0, shots, _TILE):
            stop = min(start + _TILE, shots)
            self._run_bp_tile(
                syndromes[start:stop],
                posteriors[start:stop],
                hard[start:stop],
                converged[start:stop],
            )
        return posteriors[:, self._rank], hard[:, self._rank], converged

    def _run_bp_tile(
        self,
        syndromes: np.ndarray,
        posteriors_out: np.ndarray,
        hard_out: np.ndarray,
        converged_out: np.ndarray,
    ) -> None:
        """Run BP on one tile, writing each column out as it finishes.

        A column that converges is copied out and dropped from every
        message array, so later iterations run on the live columns only.
        Columns never interact, so neither tiling nor compaction changes a
        bit of any column's result.  Mechanism rows are in the
        degree-sorted order of :meth:`_build_mechanism_sums`.
        """
        starts = self._check_starts
        edge_check = self._edge_check
        scale = self.scaling_factor
        live = np.arange(syndromes.shape[0])
        target = syndromes.T.astype(np.float64)  # (checks, live)
        flipped = syndromes.T[self._check_present].astype(bool).view(np.uint8)
        mechanism_to_check = np.repeat(
            self._row_priors[self._edge_row, np.newaxis], live.size, axis=1
        )  # (edges, live)
        scratch, check_to_mechanism, negative, is_min = _edge_buffers(live.size, self._num_edges)
        posteriors = np.repeat(self._row_priors[:, np.newaxis], live.size, axis=1)

        for _ in range(self.max_iterations):
            np.less(mechanism_to_check, 0, out=negative)
            magnitudes = np.abs(mechanism_to_check, out=scratch)

            # Per check: the sign parity (syndrome included) and the
            # smallest and second-smallest magnitudes.  A magnitude within
            # 1e-15 of the minimum counts as a minimum; when it is the only
            # one, its edge sees the second minimum, otherwise every edge
            # sees the first.  A missing second minimum (inf) becomes 0.
            odd = np.bitwise_xor.reduceat(negative.view(np.uint8), starts)
            odd ^= flipped
            first_min = np.minimum.reduceat(magnitudes, starts)
            # Gathers take ``mode="clip"``: the indices are in range by
            # construction, and the default mode copies through a
            # temporary whenever ``out`` is given.
            np.take(first_min + 1e-15, edge_check, axis=0, out=check_to_mechanism, mode="clip")
            np.less_equal(magnitudes, check_to_mechanism, out=is_min)
            unique_min = np.add.reduceat(
                is_min.view(np.uint8), starts, dtype=self._count_dtype
            ) < 2
            np.copyto(magnitudes, np.inf, where=is_min)
            second_min = np.minimum.reduceat(magnitudes, starts)
            min_edge_value = np.where(unique_min, second_min, first_min)
            min_edge_value[np.isinf(min_edge_value)] = 0.0

            # Messages: scale * other_min, then the sign.  Every magnitude
            # is >= +0, so flipping the IEEE sign bit equals the reference's
            # product of +-1 factors: the check's parity is XOR-ed onto the
            # per-check values through a uint64 view, and each edge's own
            # sign flips its message by negation.
            sign_bits = np.left_shift(odd, 63, dtype=np.uint64)
            firsts = scale * first_min
            others = scale * min_edge_value
            for values in (firsts, others):
                np.bitwise_xor(values.view(np.uint64), sign_bits, out=values.view(np.uint64))
            np.take(firsts, edge_check, axis=0, out=check_to_mechanism, mode="clip")
            np.take(others, edge_check, axis=0, out=scratch, mode="clip")
            np.copyto(check_to_mechanism, scratch, where=is_min)
            np.negative(check_to_mechanism, out=check_to_mechanism, where=negative)

            self._sum_messages(check_to_mechanism, scratch, posteriors)
            np.take(posteriors, self._edge_row, axis=0, out=mechanism_to_check, mode="clip")
            mechanism_to_check -= check_to_mechanism
            np.clip(mechanism_to_check, -_LLR_CLIP, _LLR_CLIP, out=mechanism_to_check)

            hard = posteriors < 0
            parities = np.fmod(self._h_rows @ hard.astype(np.float64), 2.0)
            done = (parities == target).all(axis=0)
            if done.any():
                finished = live[done]
                posteriors_out[finished] = posteriors[:, done].T
                hard_out[finished] = hard[:, done].T
                converged_out[finished] = True
                keep = ~done
                live = live[keep]
                if live.size == 0:
                    return
                # ``np.compress`` keeps the arrays C-ordered; a boolean
                # column index would return them column-major, and every
                # row gather after that would stride.
                target = np.compress(keep, target, axis=1)
                flipped = np.compress(keep, flipped, axis=1)
                mechanism_to_check = np.compress(keep, mechanism_to_check, axis=1)
                posteriors = np.compress(keep, posteriors, axis=1)
                scratch, check_to_mechanism, negative, is_min = _edge_buffers(
                    live.size, self._num_edges
                )
        posteriors_out[live] = posteriors.T
        hard_out[live] = posteriors.T < 0

    def _sum_messages(
        self, messages: np.ndarray, scratch: np.ndarray, posteriors: np.ndarray
    ) -> None:
        """``posteriors = prior + per-mechanism message sums``, in place.

        The sums reproduce ``np.add.reduceat`` bit for bit: each degree
        class adds whole rows as ``x0 + ((x1 + x2) + ...)``, and the rows
        past the classes reduce with reduceat itself.  Rows below
        ``_first_message_row`` keep their prior.
        """
        gathered = np.take(messages, self._sum_perm, axis=0, out=scratch, mode="clip")
        offset = 0
        for row, stop, degree in self._degree_classes:
            block = gathered[offset : offset + degree * (stop - row)].reshape(
                degree, stop - row, -1
            )
            offset += block.shape[0] * block.shape[1]
            out = posteriors[row:stop]
            if degree == 1:
                out[...] = block[0]
            elif degree == 2:
                np.add(block[0], block[1], out=out)
            else:
                rest = block[1] + block[2]
                for term in block[3:]:
                    rest += term
                np.add(block[0], rest, out=out)
        if self._tail_starts.size:
            posteriors[self._reduceat_row :] = np.add.reduceat(
                gathered[offset:], self._tail_starts, axis=0
            )
        rows = posteriors[self._first_message_row :]
        rows += self._row_priors[self._first_message_row :, np.newaxis]

    # ------------------------------------------------------------------
    # Ordered statistics decoding (order 0)
    # ------------------------------------------------------------------
    def _osd_zero(self, syndrome: np.ndarray, posterior: np.ndarray) -> np.ndarray:
        """Solve ``H e = syndrome`` on the most reliable full-rank column basis.

        Gauss-Jordan elimination over GF(2) with columns in ascending
        posterior order: each row of ``H[:, order]`` is one Python integer
        (bit ``j`` is column ``j``, bit ``num_columns`` the syndrome bit),
        and the next pivot column is the lowest set bit among the rows not
        yet used as pivots — earlier columns are already zero there.  For
        an inconsistent syndrome the rows past the rank are ignored.
        """
        order = np.argsort(posterior, kind="stable")  # most likely errors first
        num_checks, num_columns = self._h.shape
        augmented = np.zeros((num_checks, num_columns + 1), dtype=np.uint8)
        augmented[:, :num_columns] = self._h[:, order]
        augmented[:, num_columns] = syndrome
        packed = np.packbits(augmented, axis=1, bitorder="little")
        rows = [int.from_bytes(row.tobytes(), "little") for row in packed]
        column_bits = (1 << num_columns) - 1
        pivot_columns: list[int] = []
        for row in range(num_checks):
            remaining = 0
            for value in rows[row:]:
                remaining |= value
            remaining &= column_bits
            if not remaining:
                break
            bit = remaining & -remaining
            pivot = next(index for index in range(row, num_checks) if rows[index] & bit)
            rows[row], rows[pivot] = rows[pivot], rows[row]
            pivot_row = rows[row]
            rows = [value ^ pivot_row if value & bit else value for value in rows]
            rows[row] = pivot_row
            pivot_columns.append(bit.bit_length() - 1)
        error = np.zeros(num_columns, dtype=np.uint8)
        for row, column in enumerate(pivot_columns):
            error[column] = rows[row] >> num_columns & 1
        result = np.zeros(num_columns, dtype=np.uint8)
        result[order] = error
        return result
