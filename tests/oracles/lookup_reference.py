"""Reference lookup decoder: a Python loop over ``itertools.combinations``.

This is the original :class:`repro.decoders.lookup.LookupDecoder` table
build, kept as the oracle for the vectorised production build.  It walks
every combination of up to ``max_order`` mechanisms in enumeration order,
sums the log-priors left to right from ``0.0``, XORs the detector and
observable rows, and keeps per syndrome (keyed by the dense row's bytes)
the most likely pattern — the first one on a tie, by the strict ``>``.

The production decoder must reproduce it exactly: the same set of
reachable syndromes, the same correction per syndrome, and therefore the
same predictions from ``_decode_unique``.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.decoders.base import Decoder
from repro.sim.dem import DetectorErrorModel

__all__ = ["ReferenceLookupDecoder"]


class ReferenceLookupDecoder(Decoder):
    """The original dict-table lookup decoder, with its build kept verbatim."""

    def __init__(self, dem: DetectorErrorModel, *, max_order: int = 2) -> None:
        super().__init__(dem)
        self.max_order = max_order
        self._table: dict[bytes, tuple[float, np.ndarray]] = {}
        self._build_table()

    def _build_table(self) -> None:
        num = self.dem.num_mechanisms
        log_priors = np.log(np.clip(self.priors, 1e-15, 1.0))
        # Each mechanism's detector and observable flips as a 0/1 row.
        detector_flips = self.check_matrix.T
        observable_flips = self.observable_matrix.T
        for order in range(0, self.max_order + 1):
            for combo in itertools.combinations(range(num), order):
                detectors = np.zeros(self.dem.num_detectors, dtype=np.uint8)
                observables = np.zeros(self.dem.num_observables, dtype=np.uint8)
                log_probability = 0.0
                for column in combo:
                    detectors ^= detector_flips[column]
                    observables ^= observable_flips[column]
                    log_probability += log_priors[column]
                key = detectors.tobytes()
                existing = self._table.get(key)
                if existing is None or log_probability > existing[0]:
                    self._table[key] = (log_probability, observables)

    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        """One dict lookup per distinct row; unseen syndromes predict no flip."""
        predictions = np.zeros(
            (syndromes.shape[0], self.dem.num_observables), dtype=np.uint8
        )
        for row, syndrome in enumerate(syndromes):
            entry = self._table.get(syndrome.tobytes())
            if entry is not None:
                predictions[row] = entry[1]
        return predictions
