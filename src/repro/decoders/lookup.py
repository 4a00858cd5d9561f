"""Brute-force lookup decoder for small decoding problems.

Enumerates error patterns up to a configurable number of simultaneous
mechanisms, records the most likely pattern for every reachable syndrome and
decodes by table lookup (falling back to "no logical flip" for unseen
syndromes).  Only practical for small DEMs; used as a near-maximum-likelihood
reference in tests and for the smallest codes.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.decoders.base import Decoder
from repro.sim.bitops import pack_rows
from repro.sim.dem import DetectorErrorModel

__all__ = ["DEFAULT_MAX_ORDER", "LookupDecoder"]

#: Default fault order, shared by :class:`LookupDecoder` and the ``lookup``
#: registry entry.
DEFAULT_MAX_ORDER = 2


class LookupDecoder(Decoder):
    """Most-likely-error table decoder (exact up to ``max_order`` faults)."""

    def __init__(self, dem: DetectorErrorModel, *, max_order: int = DEFAULT_MAX_ORDER) -> None:
        super().__init__(dem)
        self.max_order = max_order
        self._table: dict[bytes, tuple[float, np.ndarray]] = {}
        self._build_table()
        self._build_packed_table()

    def _build_packed_table(self) -> None:
        """Precompute the sorted packed-key form of the table for decode_batch.

        Each syndrome bit-string packs into one ``uint64`` key (the table is
        only built for DEMs with <= 64 detectors; beyond that decode_batch
        falls back to the per-shot dict lookup).  Keys are sorted once here
        so every batch decode is a single ``searchsorted`` + gather.
        """
        self._packed_keys: np.ndarray | None = None
        self._packed_corrections: np.ndarray | None = None
        if not 0 < self.dem.num_detectors <= 64 or not self._table:
            return
        syndromes = np.array(
            [np.frombuffer(key, dtype=np.uint8) for key in self._table], dtype=np.uint8
        ).reshape(len(self._table), self.dem.num_detectors)
        corrections = np.array(
            [entry[1] for entry in self._table.values()], dtype=np.uint8
        ).reshape(len(self._table), self.dem.num_observables)
        keys = self._pack(syndromes)
        order = np.argsort(keys)
        self._packed_keys = keys[order]
        self._packed_corrections = corrections[order]

    @staticmethod
    def _pack(rows: np.ndarray) -> np.ndarray:
        """Pack ``(n, num_detectors <= 64)`` bit rows into ``(n,)`` uint64 keys.

        Delegates to :func:`repro.sim.bitops.pack_rows`, whose explicit
        little-endian word dtype (``np.dtype('<u8')``) makes the keys
        platform-independent (a bare ``.view(np.uint64)`` of the padded
        bytes would flip them on big-endian hosts) and identical to the
        packed syndromes the sampler emits.
        """
        return pack_rows(rows).reshape(-1)

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
        """Resolve a (deduplicated) dense block against the table.

        With an applicable packed key table the block packs into ``uint64``
        keys and resolves in one ``searchsorted``; otherwise each distinct
        row costs one dict lookup — and thanks to the base front end that
        per-row Python now runs per *unique* syndrome only.
        """
        if self._packed_keys is not None:
            return self._lookup_keys(self._pack(syndromes))
        predictions = np.zeros(
            (syndromes.shape[0], self.dem.num_observables), dtype=np.uint8
        )
        for row, syndrome in enumerate(syndromes):
            entry = self._table.get(syndrome.tobytes())
            if entry is not None:
                predictions[row] = entry[1]
        return predictions

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Vectorised table lookup for a ``(shots, num_detectors)`` batch.

        With an applicable key table the whole batch packs into ``uint64``
        keys and resolves with one ``searchsorted`` + gather — already a
        single pass, so the dedup front end would only add overhead and is
        skipped.  Unseen syndromes keep the "no logical flip" fallback.
        DEMs with more than 64 detectors (where the table would be
        impractically large anyway) use the inherited dedup front end over
        the per-row dict lookup.
        """
        if self._packed_keys is None:
            return super().decode_batch(syndromes)
        syndromes = np.ascontiguousarray(syndromes, dtype=np.uint8)
        if syndromes.shape[0] == 0:
            return self._empty_predictions()
        return self._lookup_keys(self._pack(syndromes))

    def decode_batch_packed(self, packed: np.ndarray) -> np.ndarray:
        """Decode bit-packed syndromes without re-packing.

        The sampler's ``packed_detectors`` words use the same little-endian
        layout as the table keys, so for DEMs with <= 64 detectors the
        packed column *is* the key and decoding is a single ``searchsorted``
        straight off the packed batch.  Larger DEMs (or an empty table) fall
        back to the inherited packed dedup front end.
        """
        packed = np.asarray(packed)
        if self._packed_keys is None or packed.shape[1] != 1 or packed.shape[0] == 0:
            return super().decode_batch_packed(packed)
        return self._lookup_keys(packed.reshape(-1))

    def _lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        """Resolve uint64 syndrome keys against the pre-sorted table."""
        result = np.zeros((keys.shape[0], self.dem.num_observables), dtype=np.uint8)
        positions = np.searchsorted(self._packed_keys, keys)
        positions = np.minimum(positions, len(self._packed_keys) - 1)
        hits = self._packed_keys[positions] == keys
        result[hits] = self._packed_corrections[positions[hits]]
        return result
