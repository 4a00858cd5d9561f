"""Belief propagation with ordered-statistics post-processing (BP-OSD).

The decoder of Roffe et al. (Phys. Rev. Research 2, 043423) as used in the
paper for colour and bivariate-bicycle codes:

* **BP stage** — normalised min-sum belief propagation on the Tanner graph
  of the DEM's check matrix, vectorised over shots with numpy.  Message
  state lives in shot-major ``(shots, edges)`` arrays whose edges are
  sorted by check, so each check's edges are one contiguous run of every
  row: per-check quantities are ``reduceat`` calls along axis 1 over those
  runs, and they expand back to edges with ``np.repeat``.  Message signs
  are set on the IEEE sign bit.  Per-mechanism sums reproduce
  ``np.add.reduceat`` bit for bit: that call adds a segment as ``x0``
  plus numpy's pairwise sum of the rest, which runs left to right below
  eight terms, so mechanisms of degree at most eight are summed a whole
  degree class at a time as ``x0 + ((x1 + x2) + ...)`` and only wider
  ones keep reduceat.  The block runs in tiles of :func:`_tile_width`
  shots, sized per DEM so that one float64 ``(tile, edges)`` array fits in
  :data:`_TILE_BYTES`.  A shot leaves the tile the iteration its hard
  decision reproduces the syndrome (its row is dropped from the message
  arrays), so later iterations only pay for the shots still running.
* **OSD-0 stage** — only for the non-converged residue, run on each tile's
  shots as soon as the tile's BP finishes, so no block-sized posterior
  array is ever held: columns are ranked by the BP posterior reliability,
  a full-rank column basis is selected greedily in that order, and the
  syndrome is solved exactly on that basis (all other mechanisms set to
  zero).  The elimination holds each row of ``H[:, order]`` as one Python
  integer.

The output per shot is the XOR of the observable signatures of the selected
mechanisms.

Batch decoding enters through the base class's packed dedup front end, so
BP message passing runs over the block of *unique* syndromes only — at
paper-regime error rates a 5–50x reduction in BP columns and OSD calls.
Deduplication is bit-transparent because BP here is *elementwise*: shots
never interact, and each shot's posteriors/hard decision are frozen at its
own first convergence iteration, so every shot's result equals its
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

#: Cache budget of one BP tile: the largest power of two between
#: :data:`_MIN_TILE` and :data:`_MAX_TILE` shots whose float64
#: ``(tile, edges)`` array fits in it is the DEM's tile width.  That gives
#: 32 shots on ``bb_18`` (2,562-2,586 edges), 128 on surface d=3 with
#: three rounds (854-893 edges) and 8 on ``bb_72_12_6`` (14,270-15,068
#: edges).  Wider tiles spill the message arrays out of cache; narrower
#: ones pay numpy's per-call overhead on too few shots.  Decoding 256
#: unique ``bb_18`` syndromes took 200 ms at 32 shots against 212 ms at
#: 64 and 254 ms at 256; surface d=3 took 53 ms at 64-128 against 91 ms
#: at 8; on ``bb_72_12_6`` every width from 8 to 256 was within 6%.
_TILE_BYTES = 1 << 20
_MIN_TILE = 8
_MAX_TILE = 256

#: Mechanisms of at most this many edges sum by degree class; numpy's
#: pairwise sum (which ``np.add.reduceat`` uses after the first term)
#: runs left to right below eight terms.
_SEQUENTIAL_DEGREE = 8


def _tile_width(edges: int) -> int:
    """Shots per BP tile for a Tanner graph of ``edges`` edges.

    The largest power of two in ``[_MIN_TILE, _MAX_TILE]`` whose float64
    ``(width, edges)`` array fits in :data:`_TILE_BYTES`, or ``_MIN_TILE``
    when none does.
    """
    width = _MAX_TILE
    while width > _MIN_TILE and width * edges * 8 > _TILE_BYTES:
        width //= 2
    return width


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
        # Tanner graph edges, the last axis of the shot-major message
        # arrays.  ``np.nonzero`` yields row-major order, so edges arrive
        # sorted by check: per-check reductions run over contiguous
        # segments of each shot's row, and per-check values expand to edges
        # by repeating each one ``_check_degrees`` times.
        checks, mechanisms = np.nonzero(self._h)
        self._num_edges = checks.size
        self._tile = _tile_width(self._num_edges)
        self._check_present, self._check_starts, self._check_degrees = np.unique(
            checks, return_index=True, return_counts=True
        )
        # The narrowest unsigned dtype that holds a tied-minimum count.
        self._count_dtype = np.min_scalar_type(int(self._check_degrees.max(initial=0)))
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
        mechanism of the class in one contiguous block of columns.
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
        # Float copy of H's transpose, rows in the kernel's order, for the
        # convergence test: BLAS sums of 0/1 products are exact integers
        # far below 2**53.
        self._h_rows_t = np.ascontiguousarray(self._h[:, order].T, dtype=np.float64)
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
        for start in range(0, shots, self._tile):
            tile = syndromes[start : start + self._tile]
            out = predictions[start : start + self._tile]
            posteriors, hard_decisions, converged = self._run_bp_tile(tile)
            if converged.any():
                out[converged] = self.predicted_observables_batch(hard_decisions[converged])
            for shot in np.flatnonzero(~converged):
                error = self._osd_zero(tile[shot], posteriors[shot])
                out[shot] = self.predicted_observables(error)
        return predictions

    # ------------------------------------------------------------------
    # Belief propagation (shot-major, tiled over shots)
    # ------------------------------------------------------------------
    def _run_bp(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_run_bp_tile` over the whole block, tiles concatenated.

        Decoding never holds the whole block's posteriors; this is the
        block-wide view the kernel tests compare with the oracle.  An empty
        block runs as one empty tile.
        """
        tiles = [
            self._run_bp_tile(syndromes[start : start + self._tile])
            for start in range(0, max(syndromes.shape[0], 1), self._tile)
        ]
        return tuple(np.concatenate(parts) for parts in zip(*tiles))

    def _run_bp_tile(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """BP posteriors, hard decisions and convergence flags of one tile.

        Returns ``(shots, mechanisms)`` float64 posteriors and uint8 hard
        decisions in mechanism order, each frozen at the shot's first
        convergence iteration (or taken after the last iteration), and a
        ``(shots,)`` bool mask of the shots whose hard decision reproduces
        their syndrome.  A shot that converges is copied out and its row
        dropped from every message array, so later iterations run on the
        live shots only.  Shots never interact, so neither tiling nor
        compaction changes a bit of any shot's result.
        """
        shots = syndromes.shape[0]
        converged = np.zeros(shots, dtype=bool)
        if shots == 0 or self._num_edges == 0 or self.max_iterations == 0:
            posteriors = np.tile(self._prior_llrs, (shots, 1))
            return posteriors, np.zeros(posteriors.shape, dtype=np.uint8), converged
        starts = self._check_starts
        degrees = self._check_degrees
        scale = self.scaling_factor
        # Mechanism columns are in the degree-sorted order of
        # :meth:`_build_mechanism_sums` until the tile returns.
        posteriors_out = np.empty((shots, self._num_mechanisms))
        hard_out = np.empty((shots, self._num_mechanisms), dtype=np.uint8)
        live = np.arange(shots)
        target = syndromes.astype(np.float64)  # (live, checks)
        flipped = syndromes[:, self._check_present].astype(bool).view(np.uint8)
        mechanism_to_check = np.tile(self._row_priors[self._edge_row], (shots, 1))
        posteriors = np.tile(self._row_priors, (shots, 1))
        # Work arrays for every iteration; a compacted tile uses their
        # leading rows, which stay C-contiguous.
        edge_shape = (shots, self._num_edges)
        scratch_rows = np.empty(edge_shape)
        negative_rows = np.empty(edge_shape, dtype=bool)
        is_min_rows = np.empty(edge_shape, dtype=bool)

        for _ in range(self.max_iterations):
            scratch = scratch_rows[: live.size]
            negative = np.less(mechanism_to_check, 0, out=negative_rows[: live.size])
            is_min = is_min_rows[: live.size]
            magnitudes = np.abs(mechanism_to_check, out=scratch)

            # Per check: the sign parity (syndrome included) and the
            # smallest and second-smallest magnitudes.  A magnitude within
            # 1e-15 of the minimum counts as a minimum; when it is the only
            # one, its edge sees the second minimum, otherwise every edge
            # sees the first.  A missing second minimum (inf) becomes 0.
            odd = np.bitwise_xor.reduceat(negative.view(np.uint8), starts, axis=1)
            odd ^= flipped
            first_min = np.minimum.reduceat(magnitudes, starts, axis=1)
            np.less_equal(magnitudes, np.repeat(first_min + 1e-15, degrees, axis=1), out=is_min)
            unique_min = np.add.reduceat(
                is_min.view(np.uint8), starts, axis=1, dtype=self._count_dtype
            ) < 2
            np.copyto(magnitudes, np.inf, where=is_min)
            second_min = np.minimum.reduceat(magnitudes, starts, axis=1)
            min_edge_value = np.where(unique_min, second_min, first_min)
            min_edge_value[np.isinf(min_edge_value)] = 0.0

            # Messages: scale * other_min, then the sign.  Every magnitude
            # is >= +0, so flipping the IEEE sign bit equals the reference's
            # product of +-1 factors: the check's parity is XOR-ed onto the
            # per-check values through a uint64 view, and each edge's own
            # sign flips its message by negation (few edges are negative,
            # so the masked negation skips most of the array).
            sign_bits = np.left_shift(odd, 63, dtype=np.uint64)
            firsts = scale * first_min
            others = scale * min_edge_value
            for values in (firsts, others):
                np.bitwise_xor(values.view(np.uint64), sign_bits, out=values.view(np.uint64))
            check_to_mechanism = np.repeat(firsts, degrees, axis=1)
            np.copyto(check_to_mechanism, np.repeat(others, degrees, axis=1), where=is_min)
            np.negative(check_to_mechanism, out=check_to_mechanism, where=negative)

            self._sum_messages(check_to_mechanism, scratch, posteriors)
            # Gathers take ``mode="clip"``: the indices are in range by
            # construction, and the default mode copies through a
            # temporary whenever ``out`` is given.
            np.take(posteriors, self._edge_row, axis=1, out=mechanism_to_check, mode="clip")
            mechanism_to_check -= check_to_mechanism
            np.clip(mechanism_to_check, -_LLR_CLIP, _LLR_CLIP, out=mechanism_to_check)

            hard = posteriors < 0
            parities = np.fmod(hard.astype(np.float64) @ self._h_rows_t, 2.0)
            done = (parities == target).all(axis=1)
            if done.any():
                finished = live[done]
                posteriors_out[finished] = posteriors[done]
                hard_out[finished] = hard[done]
                converged[finished] = True
                keep = ~done
                live = live[keep]
                target = target[keep]
                flipped = flipped[keep]
                mechanism_to_check = mechanism_to_check[keep]
                posteriors = posteriors[keep]
                if live.size == 0:
                    break
        posteriors_out[live] = posteriors
        hard_out[live] = posteriors < 0
        return posteriors_out[:, self._rank], hard_out[:, self._rank], converged

    def _sum_messages(
        self, messages: np.ndarray, scratch: np.ndarray, posteriors: np.ndarray
    ) -> None:
        """``posteriors = prior + per-mechanism message sums``, in place.

        The sums reproduce ``np.add.reduceat`` bit for bit: each degree
        class adds whole ``(shots, mechanisms)`` views as
        ``x0 + ((x1 + x2) + ...)``, and the columns past the classes reduce
        with reduceat itself.  Columns below ``_first_message_row`` keep
        their prior.
        """
        gathered = np.take(messages, self._sum_perm, axis=1, out=scratch, mode="clip")
        offset = 0
        for row, stop, degree in self._degree_classes:
            width = degree * (stop - row)
            block = gathered[:, offset : offset + width].reshape(-1, degree, stop - row)
            offset += width
            out = posteriors[:, row:stop]
            if degree == 1:
                out[...] = block[:, 0]
            elif degree == 2:
                np.add(block[:, 0], block[:, 1], out=out)
            else:
                rest = block[:, 1] + block[:, 2]
                for term in range(3, degree):
                    rest += block[:, term]
                np.add(block[:, 0], rest, out=out)
        if self._tail_starts.size:
            posteriors[:, self._reduceat_row :] = np.add.reduceat(
                gathered[:, offset:], self._tail_starts, axis=1
            )
        columns = posteriors[:, self._first_message_row :]
        columns += self._row_priors[self._first_message_row :]

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
