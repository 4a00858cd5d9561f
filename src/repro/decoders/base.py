"""Batch-first decoder interface.

All decoders consume a :class:`~repro.sim.dem.DetectorErrorModel` (the
decoding problem: check matrix ``H``, per-mechanism priors, observable
matrix ``L``) and map detector syndromes to predicted logical-observable
flips.  The heuristic decoders here mirror the three used in the paper:
minimum-weight perfect matching, (hypergraph) union-find, and BP-OSD.

The abstract surface is *batch-first*: subclasses implement
:meth:`Decoder._decode_unique`, which receives a block of **distinct**
dense syndromes, and the base class supplies the one batch front end,
:meth:`Decoder.decode_batch_packed`, which no subclass overrides.  It

1. takes the batch as bit-packed ``uint64`` words (:mod:`repro.sim.bitops`):
   the sampler's packed words directly, never materialising a dense copy
   of the full batch, or a dense batch that :meth:`Decoder.decode_batch`
   packs first;
2. deduplicates repeated syndromes with one ``np.unique`` over the packed
   rows (at paper-regime physical error rates most shots share few
   distinct syndromes, so this alone is a 5–50x shot-count reduction);
3. decodes the unique block once and scatters predictions back.

:meth:`Decoder.decode` decodes one syndrome straight through
``_decode_unique`` (a single row needs no dedup), behind the same width
check as the batch entry points.  Deduplication is a pure routing
change: every decoder's ``_decode_unique`` is elementwise (a row's
prediction depends on nothing but the row itself — BP freezes each column
at its own convergence), so the scattered predictions are bit-identical to
decoding every shot in place, and batch composition can never change a
prediction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.sim.bitops import pack_rows, packed_words, unpack_rows
from repro.sim.dem import DetectorErrorModel

__all__ = ["Decoder"]


class Decoder(ABC):
    """Base class: build from a DEM, decode syndrome batches (or singles)."""

    def __init__(self, dem: DetectorErrorModel) -> None:
        self.dem = dem
        self.check_matrix = dem.check_matrix
        self.observable_matrix = dem.observable_matrix
        self.priors = dem.priors
        # Cached int64 cast of L (and its transpose): predicted_observables
        # used to re-cast the observable matrix on every call.
        self._observable_int = self.observable_matrix.astype(np.int64)
        self._observable_int_t = np.ascontiguousarray(self._observable_int.T)

    # ------------------------------------------------------------------
    # Abstract batch surface
    # ------------------------------------------------------------------
    @abstractmethod
    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode a ``(unique_shots, num_detectors)`` block of distinct rows.

        The front end guarantees ``syndromes`` is a C-contiguous uint8
        array whose rows are pairwise distinct (and non-empty).  Implement
        the decoder's real work here, vectorised over the block.
        """

    # ------------------------------------------------------------------
    # Shared batch front end
    # ------------------------------------------------------------------
    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Decode one syndrome (length ``num_detectors``) to observable flips.

        A single row skips the dedup machinery and goes straight to
        ``_decode_unique``.  Anything but a 1-D array of length
        ``num_detectors`` raises ``ValueError``.
        """
        syndrome = np.ascontiguousarray(syndrome, dtype=np.uint8)[np.newaxis]
        self._check_width(syndrome)
        return self._decode_unique(syndrome)[0]

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode dense ``(shots, num_detectors)`` syndromes.

        Packs the batch and hands it to :meth:`decode_batch_packed`, the one
        dedup front end.  A row width other than ``num_detectors`` raises
        ``ValueError``.
        """
        syndromes = np.asarray(syndromes)
        self._check_width(syndromes)
        return self.decode_batch_packed(pack_rows(syndromes))

    def _check_width(self, syndromes: np.ndarray) -> None:
        """Raise the one-line ``ValueError`` unless rows are ``num_detectors`` wide."""
        if syndromes.ndim != 2 or syndromes.shape[1] != self.dem.num_detectors:
            raise ValueError(
                f"expected syndromes of shape (shots, {self.dem.num_detectors}), "
                f"got {syndromes.shape}"
            )

    def decode_batch_packed(self, packed: np.ndarray) -> np.ndarray:
        """Decode syndromes given in bit-packed form.

        ``packed`` has shape ``(shots, ceil(num_detectors / 64))`` with the
        little-endian word layout of :func:`repro.sim.bitops.pack_rows`
        (what the packed sampler emits as ``SampleBatch.packed_detectors``).
        Deduplication happens directly on the packed words; only the unique
        rows are ever unpacked, so duplicate shots never touch dense memory.
        A word count other than the DEM's raises ``ValueError``.
        """
        packed = np.asarray(packed)
        words = packed_words(self.dem.num_detectors)
        if packed.ndim != 2 or packed.shape[1] != words:
            raise ValueError(
                f"expected packed syndromes of shape (shots, {words}), got {packed.shape}"
            )
        shots = packed.shape[0]
        if shots == 0:
            return np.zeros((0, self.dem.num_observables), dtype=np.uint8)
        if packed.shape[1] == 0:
            empty = np.zeros((1, self.dem.num_detectors), dtype=np.uint8)
            return np.repeat(self._decode_unique(empty), shots, axis=0)
        unique_words, inverse = np.unique(packed, axis=0, return_inverse=True)
        unique = unpack_rows(unique_words, self.dem.num_detectors)
        return self._decode_unique(np.ascontiguousarray(unique))[inverse.reshape(-1)]

    # ------------------------------------------------------------------
    # Observable projection
    # ------------------------------------------------------------------
    def predicted_observables(self, error_vector: np.ndarray) -> np.ndarray:
        """Map a mechanism-indicator vector to observable flips."""
        if self.dem.num_observables == 0:
            return np.zeros(0, dtype=np.uint8)
        return (self._observable_int @ error_vector.astype(np.int64)).astype(
            np.uint8
        ) % 2

    def predicted_observables_batch(self, errors: np.ndarray) -> np.ndarray:
        """Map ``(shots, num_mechanisms)`` mechanism indicators to flips.

        The batched form of :meth:`predicted_observables` the vectorised
        decode paths use: one int64 matmul against the cached ``L``
        transpose instead of a per-shot product.
        """
        errors = np.asarray(errors)
        if self.dem.num_observables == 0 or errors.shape[0] == 0:
            return np.zeros((errors.shape[0], self.dem.num_observables), dtype=np.uint8)
        return (errors.astype(np.int64) @ self._observable_int_t).astype(np.uint8) % 2

    # ------------------------------------------------------------------
    # Helpers for per-unique-syndrome decoders
    # ------------------------------------------------------------------
    @staticmethod
    def _defects_per_row(syndromes: np.ndarray) -> "list[np.ndarray]":
        """Vectorised defect extraction: triggered-detector indices per row.

        One ``np.nonzero`` over the whole unique block, split at row
        boundaries — replaces a per-shot ``nonzero`` loop.
        """
        rows, columns = np.nonzero(syndromes)
        counts = np.bincount(rows, minlength=syndromes.shape[0])
        return np.split(columns, np.cumsum(counts)[:-1])

