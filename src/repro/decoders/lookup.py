"""Brute-force lookup decoder for small decoding problems.

Enumerates error patterns up to a configurable number of simultaneous
mechanisms, records the most likely pattern for every reachable syndrome and
decodes by table lookup (falling back to "no logical flip" for unseen
syndromes).  Only practical for small DEMs; used as a near-maximum-likelihood
reference in tests and for the smallest codes.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from repro.decoders.base import Decoder
from repro.sim.bitops import pack_rows, unpack_rows
from repro.sim.dem import DetectorErrorModel

__all__ = ["DEFAULT_MAX_ORDER", "LookupDecoder", "check_lookup_parameters"]

#: Default fault order, shared by :class:`LookupDecoder` and the ``lookup``
#: registry entry.
DEFAULT_MAX_ORDER = 2

#: Fewest combinations folded into the table at once.  A fold also takes
#: at least as many combinations as the table holds, so re-sorting the
#: table costs no more than sorting the block.
_MIN_BLOCK = 1 << 14


def check_lookup_parameters(max_order=DEFAULT_MAX_ORDER) -> None:
    """Raise ``ValueError`` unless ``max_order`` is a non-negative integer."""
    if (
        not isinstance(max_order, numbers.Integral)
        or isinstance(max_order, bool)
        or max_order < 0
    ):
        raise ValueError(f"lookup max_order must be a non-negative integer, got {max_order!r}")


def _search_keys(words: np.ndarray) -> np.ndarray:
    """One comparable scalar per packed row: the row's words as raw bytes.

    Sorting and ``searchsorted`` both compare these ``void`` scalars
    bytewise, so the table order and the search agree for any word count.
    Zero-detector rows get one zero word: they all share the empty key.
    """
    words = np.ascontiguousarray(words)
    if words.shape[1] == 0:
        words = np.zeros((words.shape[0], 1), dtype=words.dtype)
    return words.view(np.dtype((np.void, words.itemsize * words.shape[1]))).reshape(-1)


def _keep_most_likely(
    keys: np.ndarray, log_probability: np.ndarray, corrections: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep one row per key: the largest log-probability, the first on a tie.

    Rows arrive in enumeration order; the stable ``lexsort`` groups equal
    keys and orders each group by descending log-probability, leaving
    ties in arrival order, so each group's first row is the one a
    strict-``>`` loop over the rows would keep.  Keys sort as byte-swapped
    words, first word first: the bytewise order of :func:`_search_keys`.
    """
    order = np.lexsort((-log_probability, *keys.byteswap().T[::-1]))
    keys, log_probability, corrections = keys[order], log_probability[order], corrections[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return keys[first], log_probability[first], corrections[first]


class LookupDecoder(Decoder):
    """Most-likely-error table decoder (exact up to ``max_order`` faults).

    The table holds the :func:`~repro.sim.bitops.pack_rows` words of every
    reachable syndrome (``_packed_keys``, sorted in search order) and the
    observable flips of its most likely pattern (``_packed_corrections``).
    """

    def __init__(self, dem: DetectorErrorModel, *, max_order: int = DEFAULT_MAX_ORDER) -> None:
        check_lookup_parameters(max_order)
        super().__init__(dem)
        self.max_order = max_order
        self._build_table()

    def _build_table(self) -> None:
        """Enumerate every pattern of up to ``max_order`` mechanisms, in blocks.

        Patterns are the ``itertools.combinations`` of each order in turn.
        A pattern's log-probability is its mechanisms' log-priors summed
        left to right from ``0.0``; its key and correction XOR their packed
        detector and observable words.  Each block of consecutive patterns
        is folded into the running table by :func:`_keep_most_likely`, so
        memory is bounded by the table plus one block.
        """
        num = self.dem.num_mechanisms
        log_priors = np.log(np.clip(self.priors, 1e-15, 1.0))
        detector_words = pack_rows(self.check_matrix.T)
        observable_words = pack_rows(self.observable_matrix.T)
        # Order 0: the empty pattern, the first entry in enumeration order.
        keys = np.zeros((1, detector_words.shape[1]), dtype=detector_words.dtype)
        log_probability = np.zeros(1)
        corrections = np.zeros((1, observable_words.shape[1]), dtype=observable_words.dtype)
        for order in range(1, self.max_order + 1):
            combinations = itertools.combinations(range(num), order)
            remaining = math.comb(num, order)
            while remaining:
                size = min(remaining, max(_MIN_BLOCK, len(keys)))
                remaining -= size
                block = np.fromiter(
                    itertools.chain.from_iterable(itertools.islice(combinations, size)),
                    dtype=np.intp,
                    count=size * order,
                ).reshape(size, order)
                block_keys = np.zeros((size, keys.shape[1]), dtype=keys.dtype)
                block_corrections = np.zeros((size, corrections.shape[1]), dtype=corrections.dtype)
                block_log_probability = np.zeros(size)
                for column in block.T:
                    block_keys ^= detector_words[column]
                    block_corrections ^= observable_words[column]
                    block_log_probability += log_priors[column]
                keys, log_probability, corrections = _keep_most_likely(
                    np.concatenate([keys, block_keys]),
                    np.concatenate([log_probability, block_log_probability]),
                    np.concatenate([corrections, block_corrections]),
                )
        self._packed_keys = keys
        self._packed_corrections = unpack_rows(corrections, self.dem.num_observables)

    def _decode_unique(self, syndromes: np.ndarray) -> np.ndarray:
        """Resolve a block of distinct syndromes with one ``searchsorted``.

        Unseen syndromes keep the "no logical flip" fallback.
        """
        table = _search_keys(self._packed_keys)
        keys = _search_keys(pack_rows(syndromes))
        positions = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        hits = table[positions] == keys
        predictions = np.zeros((len(keys), self.dem.num_observables), dtype=np.uint8)
        predictions[hits] = self._packed_corrections[positions[hits]]
        return predictions
