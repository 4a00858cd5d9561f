"""Belief propagation with ordered-statistics post-processing (BP-OSD).

The decoder of Roffe et al. (Phys. Rev. Research 2, 043423) as used in the
paper for colour and bivariate-bicycle codes:

* **BP stage** — normalised min-sum belief propagation on the Tanner graph
  of the DEM's check matrix, vectorised over shots with numpy.  Message
  state lives in edge-major ``(edges, shots)`` arrays and the block runs in
  tiles of :data:`_TILE` shots, so one iteration's temporaries stay in
  cache.  Per-check quantities are reduced over contiguous edge segments
  and expanded back with ``np.repeat``; a column leaves the tile the
  iteration its hard decision reproduces the syndrome, so later iterations
  only pay for the columns still running.
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
#: float64 temporary of a bivariate-bicycle DEM is ~1.3 MB, so an
#: iteration's working set stays in L2; a whole 400-column block is
#: about twice as slow.
_TILE = 64


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
        self._h = self.check_matrix.astype(np.uint8)
        # Float copy of H for the convergence test: BLAS sums of 0/1
        # products are exact integers far below 2**53.
        self._h_float = self._h.astype(np.float64)
        self._num_checks, self._num_mechanisms = self._h.shape
        priors = np.clip(self.priors, 1e-12, 0.5 - 1e-12)
        self._prior_llrs = np.log((1 - priors) / priors)
        # Tanner graph edges in edge-major layout.  ``np.nonzero`` yields
        # row-major order, so edges arrive sorted by check — per-check
        # reductions are contiguous segments, and per-check rows expand to
        # edges with ``np.repeat`` over the check degrees.
        checks, mechanisms = np.nonzero(self._h)
        self._num_edges = checks.size
        self._edge_mechanism = mechanisms.astype(np.int64)
        self._check_present, self._check_starts, self._check_degrees = np.unique(
            checks, return_index=True, return_counts=True
        )
        # Per-mechanism sums run over the mechanism-major permutation, a
        # *stable* sort, so within one mechanism the edges keep their
        # check-ascending order.  ``np.add.reduceat`` along axis 0 does not
        # add a segment left to right: up to eight terms numpy groups it as
        # ``x0 + ((x1 + x2) + x3 ...)``.  Changing the call would change
        # the last bit of a posterior, so it stays.
        self._mech_perm = np.argsort(self._edge_mechanism, kind="stable")
        self._mech_present, self._mech_starts = np.unique(
            self._edge_mechanism[self._mech_perm], return_index=True
        )

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
        posteriors = np.tile(self._prior_llrs, (shots, 1))
        hard = np.zeros((shots, self._num_mechanisms), dtype=np.uint8)
        converged = np.zeros(shots, dtype=bool)
        if self._num_edges == 0 or self.max_iterations == 0:
            return posteriors, hard, converged
        for start in range(0, shots, _TILE):
            stop = min(start + _TILE, shots)
            self._run_bp_tile(
                syndromes[start:stop],
                posteriors[start:stop],
                hard[start:stop],
                converged[start:stop],
            )
        return posteriors, hard, converged

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
        bit of any column's result.
        """
        starts = self._check_starts
        degrees = self._check_degrees
        mech_perm = self._mech_perm
        mech_starts = self._mech_starts
        scale = self.scaling_factor
        prior_column = self._prior_llrs[:, np.newaxis]
        live = np.arange(syndromes.shape[0])
        target = syndromes.T.astype(np.float64)  # (checks, live)
        flipped = syndromes.T[self._check_present].astype(bool)  # (present checks, live)
        mechanism_to_check = np.repeat(
            self._prior_llrs[self._edge_mechanism, np.newaxis], live.size, axis=1
        )  # (edges, live)

        for _ in range(self.max_iterations):
            negative = mechanism_to_check < 0
            magnitudes = np.abs(mechanism_to_check)

            # Per check: the sign parity (syndrome included) and the
            # smallest and second-smallest magnitudes.  A magnitude within
            # 1e-15 of the minimum counts as a minimum; when it is the only
            # one, its edge sees the second minimum, otherwise every edge
            # sees the first.  A missing second minimum (inf) becomes 0.
            odd = np.logical_xor.reduceat(negative, starts) ^ flipped
            first_min = np.minimum.reduceat(magnitudes, starts)
            is_min = magnitudes <= np.repeat(first_min + 1e-15, degrees, axis=0)
            unique_min = np.add.reduceat(is_min, starts) < 2
            masked = np.where(is_min, np.inf, magnitudes)
            second_min = np.minimum.reduceat(masked, starts)
            min_edge_value = np.where(unique_min, second_min, first_min)
            min_edge_value[np.isinf(min_edge_value)] = 0.0

            # Messages: scale * other_min with the sign set by copysign; the
            # reference's product of +-1 factors is exact, so the float is
            # the same.
            check_to_mechanism = np.where(
                is_min,
                np.repeat(scale * min_edge_value, degrees, axis=0),
                np.repeat(scale * first_min, degrees, axis=0),
            )
            sign_flip = np.repeat(odd, degrees, axis=0)
            sign_flip ^= negative
            np.copysign(check_to_mechanism, 1.0 - 2.0 * sign_flip, out=check_to_mechanism)

            totals = np.add.reduceat(check_to_mechanism[mech_perm], mech_starts)
            if totals.shape[0] != self._num_mechanisms:
                padded = np.zeros((self._num_mechanisms, live.size))
                padded[self._mech_present] = totals
                totals = padded
            posteriors = prior_column + totals
            mechanism_to_check = posteriors[self._edge_mechanism]
            mechanism_to_check -= check_to_mechanism
            np.clip(mechanism_to_check, -_LLR_CLIP, _LLR_CLIP, out=mechanism_to_check)

            hard = posteriors < 0
            parities = np.fmod(self._h_float @ hard.astype(np.float64), 2.0)
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
                target = target[:, keep]
                flipped = flipped[:, keep]
                mechanism_to_check = mechanism_to_check[:, keep]
                posteriors = posteriors[:, keep]
                hard = hard[:, keep]
        posteriors_out[live] = posteriors.T
        hard_out[live] = hard.T

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
