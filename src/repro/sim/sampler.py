"""Vectorised sampling of detector error models.

Because every fault mechanism of a :class:`DetectorErrorModel` is an
independent Bernoulli variable, sampling a memory experiment reduces to a
binary matrix multiplication: draw the fault vector for every shot, then
XOR together the detector/observable signatures of the fired mechanisms.
This is mathematically identical to frame-simulating the Clifford circuit
with Pauli noise (what stim does), but needs only numpy.

The XOR runs bit-packed: fault draws are packed along the *shot* axis into
``uint64`` words (:mod:`repro.sim.bitops`), and each detector/observable
row is one XOR-reduce over the packed rows of the mechanisms that flip it —
64 shots per word operation, no multiplies, no ``(shots, mechanisms)``
``int64`` temporaries.  The original dense ``int64`` matmul-mod-2 lives on
as the test oracle ``tests/oracles/sampler_reference.py``, which consumes
the random stream identically (one ``rng.random((shots, mechanisms))``
draw) and must agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.bitops import pack_rows, unpack_rows, xor_reduce_rows

if TYPE_CHECKING:  # repro.sim.dem imports this module through repro.sim.frames
    from repro.sim.dem import DetectorErrorModel

__all__ = ["SampleBatch", "DemSampler", "sample_detector_error_model"]


@dataclass
class SampleBatch:
    """Sampled detector and observable flips.

    ``detectors`` has shape ``(shots, num_detectors)``; ``observables`` has
    shape ``(shots, num_observables)``; both are uint8 arrays of 0/1 values.
    ``packed_detectors`` is the bit-packed form of ``detectors`` (shape
    ``(shots, ceil(num_detectors / 64))``, little-endian ``uint64`` words as
    produced by :func:`repro.sim.bitops.pack_rows`).  The decoders' one
    batch front end, ``decode_batch_packed``, consumes it directly: it
    deduplicates repeated syndromes on the packed words and unpacks only
    the unique rows, so the packed form is the primary hand-off from
    sampler to decoder.  Every sampler sets it.
    """

    detectors: np.ndarray
    observables: np.ndarray
    packed_detectors: np.ndarray

    @property
    def num_shots(self) -> int:
        return int(self.detectors.shape[0])


class DemSampler:
    """DEM-backed sampler on the common sampler interface (spec ``"dem"``).

    The default sampler backend: wraps :func:`sample_detector_error_model`
    over a prebuilt :class:`DetectorErrorModel`, so its batches are
    bit-identical to direct calls for equal seeds.  The
    ``circuit`` argument is part of the shared factory signature
    ``factory(circuit, dem)`` and is unused here.
    """

    def __init__(self, circuit=None, dem: DetectorErrorModel | None = None) -> None:
        if dem is None:
            raise ValueError("DemSampler requires a detector error model")
        self.dem = dem

    def sample(
        self, shots: int, *, seed: "int | np.random.SeedSequence | None" = None
    ) -> SampleBatch:
        return sample_detector_error_model(self.dem, shots, seed=seed)


def sample_detector_error_model(
    dem: DetectorErrorModel,
    shots: int,
    *,
    seed: "int | np.random.SeedSequence | None" = None,
) -> SampleBatch:
    """Draw ``shots`` independent samples from the DEM.

    ``seed`` may be an integer, ``None`` (fresh OS entropy), or a
    :class:`numpy.random.SeedSequence` stream derived with
    :mod:`repro.seeding` — the latter is what the estimator and the
    ``repro.api`` pipeline pass so that every stage draws from an
    independent stream.
    """
    rng = np.random.default_rng(seed)
    if dem.num_mechanisms == 0:
        detectors = np.zeros((shots, dem.num_detectors), dtype=np.uint8)
        return SampleBatch(
            detectors=detectors,
            observables=np.zeros((shots, dem.num_observables), dtype=np.uint8),
            packed_detectors=pack_rows(detectors),
        )
    fired = rng.random((shots, dem.num_mechanisms)) < dem.priors
    packed_fired = pack_rows(fired.T)  # (mechanisms, shot_words)
    # Each detector (observable) row is the XOR of the fired rows of the
    # mechanisms that flip it: the DEM's transposed incidence, derived once
    # per model.
    detectors_by_row = xor_reduce_rows(packed_fired, dem.detector_mechanisms)
    observables_by_row = xor_reduce_rows(packed_fired, dem.observable_mechanisms)
    detectors = np.ascontiguousarray(unpack_rows(detectors_by_row, shots).T)
    observables = np.ascontiguousarray(unpack_rows(observables_by_row, shots).T)
    return SampleBatch(
        detectors=detectors,
        observables=observables,
        packed_detectors=pack_rows(detectors),
    )
