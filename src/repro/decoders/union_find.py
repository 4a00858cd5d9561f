"""Hypergraph union-find decoder.

A cluster-growth decoder in the spirit of Delfosse–Nickerson union-find,
generalised to hypergraph decoding problems (mechanisms may flip more than
two detectors, as in colour-code DEMs):

1. every defect (triggered detector) seeds a cluster;
2. a cluster is *valid* when the defects inside it can be explained by
   mechanisms whose detector sets lie entirely inside the cluster (checked
   with a GF(2) solve over the cluster's sub-matrix); clusters containing a
   boundary-adjacent mechanism can also absorb leftover parity;
3. invalid clusters grow by one step — every mechanism touching the cluster
   is absorbed together with all detectors it flips — and overlapping
   clusters merge;
4. once every cluster is valid, a correction is read off from the GF(2)
   solution inside each cluster and the predicted observable flips are the
   XOR of the chosen mechanisms' observable signatures.

This keeps the defining characteristics the paper relies on: it is fast,
greedy, and distinctly *not* maximum-likelihood, so schedules can be
tailored to (or against) its failure patterns.

The batch path rides the base class's packed dedup front end (cluster
growth runs once per *unique* syndrome) and the per-syndrome state is kept
as numpy boolean masks over detectors/mechanisms: growth is one incidence
matmul for **all** of a syndrome's clusters at once, in-cluster column
selection is a vectorised sub-matrix test, and cluster sub-problems slice
``H`` directly with ``np.ix_``.  The growth/merge/solve *order* is the
same as the historical set-based implementation, so predictions are
bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.base import Decoder
from repro.pauli.gf2 import gf2_solve
from repro.sim.dem import DetectorErrorModel

__all__ = ["UnionFindDecoder"]


class UnionFindDecoder(Decoder):
    """Cluster-growth (union-find style) decoder on the DEM hypergraph.

    Growth stops once every cluster is valid, or after ``num_detectors + 1``
    rounds: a round that changes a cluster adds at least one detector to
    it, so by then every cluster has reached its whole connected component.
    """

    def __init__(self, dem: DetectorErrorModel) -> None:
        super().__init__(dem)
        # Detector-by-mechanism incidence, in the forms the mask algebra
        # wants: boolean for unions, int32 for overflow-safe matmul growth.
        self._incidence = self.check_matrix.astype(bool)
        self._incidence_int = self.check_matrix.astype(np.int32)
        # Per-mechanism observable signatures, column-major for XOR reduce.
        self._observables_by_mechanism = np.ascontiguousarray(self.observable_matrix.T)

    # ------------------------------------------------------------------
    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        predictions = np.zeros(
            (syndromes.shape[0], self.dem.num_observables), dtype=np.uint8
        )
        for row, defects in enumerate(self._defects_per_row(syndromes)):
            if defects.size:
                self._decode_defects(syndromes[row], defects, predictions[row])
        return predictions

    def _decode_defects(
        self, syndrome: np.ndarray, defects: np.ndarray, prediction: np.ndarray
    ) -> None:
        """Grow/merge/solve the clusters of one syndrome into ``prediction``."""
        num_detectors = self.dem.num_detectors
        # One singleton cluster per defect, in ascending defect order
        # (np.nonzero already yields sorted indices).
        det_masks = np.zeros((defects.size, num_detectors), dtype=bool)
        det_masks[np.arange(defects.size), defects] = True
        mech_masks = np.zeros((defects.size, self.dem.num_mechanisms), dtype=bool)

        for _ in range(num_detectors + 1):
            det_masks, mech_masks = self._merge_overlapping(det_masks, mech_masks)
            # A cluster is invalid when its sub-problem is unsolvable (False)
            # or solves to the empty correction with defects left over ([]).
            invalid = np.array(
                [
                    not self._try_solve(det_masks[i], mech_masks[i], syndrome)
                    for i in range(det_masks.shape[0])
                ],
                dtype=bool,
            )
            if not invalid.any():
                break
            # Grow every invalid cluster in one matmul: mechanisms touching
            # any cluster detector are absorbed with all their detectors.
            touching = (det_masks[invalid].astype(np.int32) @ self._incidence_int) > 0
            mech_masks[invalid] |= touching
            det_masks[invalid] |= (touching.astype(np.int32) @ self._incidence_int.T) > 0
        det_masks, mech_masks = self._merge_overlapping(det_masks, mech_masks)

        for i in range(det_masks.shape[0]):
            solution = self._try_solve(det_masks[i], mech_masks[i], syndrome)
            if solution is False:
                # Give up on this cluster (should be rare: the full detector
                # set always admits a solution when the DEM is consistent).
                continue
            if len(solution):
                prediction ^= np.bitwise_xor.reduce(
                    self._observables_by_mechanism[solution], axis=0
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _merge_overlapping(
        det_masks: np.ndarray, mech_masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-pass first-fit merge, preserving historical cluster order.

        Each cluster merges into the *first* already-kept cluster it shares
        a detector with (exactly the set-based implementation's semantics —
        intentionally not a transitive closure; the round loop re-merges).
        """
        kept: list[int] = []
        for i in range(det_masks.shape[0]):
            target = None
            for j in kept:
                if (det_masks[j] & det_masks[i]).any():
                    target = j
                    break
            if target is None:
                kept.append(i)
            else:
                det_masks[target] |= det_masks[i]
                mech_masks[target] |= mech_masks[i]
        if len(kept) == det_masks.shape[0]:
            return det_masks, mech_masks
        return det_masks[kept], mech_masks[kept]

    def _try_solve(self, det_mask: np.ndarray, mech_mask: np.ndarray, syndrome: np.ndarray):
        """Return the list of chosen mechanism columns, or False if unsolvable."""
        detectors = np.nonzero(det_mask)[0]
        candidates = np.nonzero(mech_mask)[0]
        if candidates.size:
            # Keep columns whose detector support lies entirely inside the
            # cluster: no touched detector outside the mask.
            outside = ~det_mask
            escapes = self._incidence[outside][:, candidates].any(axis=0)
            columns = candidates[~escapes]
        else:
            columns = candidates
        target = syndrome[detectors]
        if columns.size == 0:
            return False if target.any() else []
        sub_matrix = self.check_matrix[np.ix_(detectors, columns)]
        solution = gf2_solve(sub_matrix, target)
        if solution is None:
            return False
        return [int(c) for c in columns[np.nonzero(solution)[0]]]
