"""Reference BP+OSD decoder: whole-block BP and dense-row OSD-0.

This is the original :class:`repro.decoders.bposd.BPOSDDecoder`, kept as
the oracle for the production kernel.  BP runs normalised min-sum over the
whole unique block at once in edge-major ``(edges, shots)`` arrays, with
per-edge gathers of every per-check quantity and an int64 residual matmul
each iteration; each column freezes at its own first convergence
iteration.  OSD-0 eliminates a dense ``uint8`` copy of ``H[:, order]``
row by row.

The production decoder must reproduce it exactly: the same posteriors and
hard decisions from ``_run_bp`` (floats equal under ``==``) and the same
predictions from ``_decode_unique``.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.base import Decoder
from repro.sim.dem import DetectorErrorModel

__all__ = ["ReferenceBPOSDDecoder"]

_LLR_CLIP = 30.0


class ReferenceBPOSDDecoder(Decoder):
    """The original normalised min-sum BP + OSD-0 decoder, kept verbatim."""

    def __init__(
        self,
        dem: DetectorErrorModel,
        *,
        max_iterations: int = 30,
        scaling_factor: float = 0.75,
    ) -> None:
        super().__init__(dem)
        self.max_iterations = max_iterations
        self.scaling_factor = scaling_factor
        self._h = self.check_matrix.astype(np.uint8)
        # Cached int64 casts of H (and transpose) for the residual matmuls —
        # recomputing them per decode dominated small-batch calls.
        self._h_int = self._h.astype(np.int64)
        self._h_int_t = np.ascontiguousarray(self._h_int.T)
        self._num_checks, self._num_mechanisms = self._h.shape
        priors = np.clip(self.priors, 1e-12, 0.5 - 1e-12)
        self._prior_llrs = np.log((1 - priors) / priors)
        # Tanner graph edges in edge-major layout (scatter axis first).
        # ``np.nonzero`` yields row-major order, so edges arrive sorted by
        # check — per-check reductions are contiguous segments.
        checks, mechanisms = np.nonzero(self._h)
        self._edge_check = checks.astype(np.int64)
        self._edge_mechanism = mechanisms.astype(np.int64)
        # Segment layout for ``reduceat``-based message reductions: the
        # checks/mechanisms that own at least one edge, with the start of
        # each one's contiguous edge run.  The mechanism-major permutation
        # is a *stable* sort, so within one mechanism the edges keep their
        # check-ascending order.  ``np.add.reduceat`` along axis 0 groups a
        # segment as ``x0 + ((x1 + x2) + x3 ...)``, which is neither a
        # left-to-right loop nor the ``ufunc.at`` scatter order; the
        # production kernel keeps the same call, so it inherits the same
        # grouping.
        if checks.size:
            self._check_present, check_starts = np.unique(
                self._edge_check, return_index=True
            )
            self._check_starts = check_starts
            self._mech_perm = np.argsort(self._edge_mechanism, kind="stable")
            self._mech_present, mech_starts = np.unique(
                self._edge_mechanism[self._mech_perm], return_index=True
            )
            self._mech_starts = mech_starts

    # ------------------------------------------------------------------
    # Batch decode (unique syndromes, via the base dedup front end)
    # ------------------------------------------------------------------
    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        shots = syndromes.shape[0]
        predictions = np.zeros((shots, self.dem.num_observables), dtype=np.uint8)
        if self._num_mechanisms == 0 or shots == 0:
            return predictions
        posteriors, hard_decisions = self._run_bp(syndromes)
        residual = (hard_decisions.astype(np.int64) @ self._h_int_t) % 2
        converged = (residual == syndromes).all(axis=1)
        if converged.any():
            predictions[converged] = self.predicted_observables_batch(
                hard_decisions[converged]
            )
        for shot in np.nonzero(~converged)[0]:
            error = self._osd_zero(syndromes[shot], posteriors[shot])
            predictions[shot] = self.predicted_observables(error)
        return predictions

    # ------------------------------------------------------------------
    # Belief propagation (edge-major, vectorised over shots)
    # ------------------------------------------------------------------
    def _run_bp(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shots = syndromes.shape[0]
        num_edges = self._edge_check.shape[0]
        posteriors = np.tile(self._prior_llrs, (shots, 1)).T.copy()  # (mechanisms, shots)
        hard = np.zeros((self._num_mechanisms, shots), dtype=np.uint8)
        if num_edges == 0:
            return posteriors.T, hard.T

        edge_check = self._edge_check
        edge_mechanism = self._edge_mechanism
        mechanism_to_check = np.tile(
            self._prior_llrs[edge_mechanism], (shots, 1)
        ).T.copy()  # (edges, shots)
        syndrome_signs = (1.0 - 2.0 * syndromes.astype(np.float64)).T  # (checks, shots)

        check_present = self._check_present
        check_starts = self._check_starts
        mech_perm = self._mech_perm
        mech_present = self._mech_present
        mech_starts = self._mech_starts

        # Per-column freezing: a shot's result is committed at *its own*
        # first convergence iteration, so every column's output equals its
        # singleton decode — ``decode_batch`` is elementwise and the dedup
        # front end (and any batch composition) cannot change predictions.
        syndromes_t = syndromes.T
        frozen_posteriors = posteriors.copy()
        frozen_hard = hard.copy()
        committed = np.zeros(shots, dtype=bool)

        for _ in range(self.max_iterations):
            signs = np.where(mechanism_to_check >= 0, 1.0, -1.0)
            magnitudes = np.abs(mechanism_to_check)

            # Per-check reductions over contiguous edge segments (reduceat).
            sign_product = np.ones((self._num_checks, shots))
            sign_product[check_present] = np.multiply.reduceat(signs, check_starts)

            first_min = np.full((self._num_checks, shots), np.inf)
            first_min[check_present] = np.minimum.reduceat(magnitudes, check_starts)
            is_min = magnitudes <= first_min[edge_check] + 1e-15
            min_count = np.zeros((self._num_checks, shots))
            min_count[check_present] = np.add.reduceat(
                is_min.astype(np.float64), check_starts
            )
            masked = np.where(is_min, np.inf, magnitudes)
            second_min = np.full((self._num_checks, shots), np.inf)
            second_min[check_present] = np.minimum.reduceat(masked, check_starts)

            # Per edge: minimum magnitude among the *other* edges of the check.
            other_min = np.where(
                is_min & (min_count[edge_check] < 2),
                second_min[edge_check],
                first_min[edge_check],
            )
            other_min = np.where(np.isinf(other_min), 0.0, other_min)
            check_to_mechanism = (
                self.scaling_factor
                * sign_product[edge_check]
                * signs
                * syndrome_signs[edge_check]
                * other_min
            )

            totals = np.zeros((self._num_mechanisms, shots))
            totals[mech_present] = np.add.reduceat(
                check_to_mechanism[mech_perm], mech_starts
            )
            posteriors = self._prior_llrs[:, np.newaxis] + totals
            mechanism_to_check = posteriors[edge_mechanism] - check_to_mechanism
            np.clip(mechanism_to_check, -_LLR_CLIP, _LLR_CLIP, out=mechanism_to_check)

            hard = (posteriors < 0).astype(np.uint8)
            residual = (self._h_int @ hard.astype(np.int64)) % 2
            converged = (residual == syndromes_t).all(axis=0)
            newly = converged & ~committed
            if newly.any():
                frozen_posteriors[:, newly] = posteriors[:, newly]
                frozen_hard[:, newly] = hard[:, newly]
                committed |= newly
            if committed.all():
                break
        remaining = ~committed
        if remaining.any():
            frozen_posteriors[:, remaining] = posteriors[:, remaining]
            frozen_hard[:, remaining] = hard[:, remaining]
        return frozen_posteriors.T, frozen_hard.T

    # ------------------------------------------------------------------
    # Ordered statistics decoding (order 0)
    # ------------------------------------------------------------------
    def _osd_zero(self, syndrome: np.ndarray, posterior: np.ndarray) -> np.ndarray:
        order = np.argsort(posterior, kind="stable")  # most likely errors first
        h = self._h[:, order].copy()
        target = syndrome.copy()
        num_checks, num_columns = h.shape
        pivot_columns: list[int] = []
        row = 0
        for column in range(num_columns):
            if row >= num_checks:
                break
            pivot_candidates = np.nonzero(h[row:, column])[0]
            if pivot_candidates.size == 0:
                continue
            pivot = row + pivot_candidates[0]
            if pivot != row:
                h[[row, pivot]] = h[[pivot, row]]
                target[[row, pivot]] = target[[pivot, row]]
            for other in np.nonzero(h[:, column])[0]:
                if other != row:
                    h[other] ^= h[row]
                    target[other] ^= target[row]
            pivot_columns.append(column)
            row += 1
        error = np.zeros(num_columns, dtype=np.uint8)
        for row_index, column in enumerate(pivot_columns):
            error[column] = target[row_index]
        result = np.zeros(num_columns, dtype=np.uint8)
        result[order] = error
        return result
