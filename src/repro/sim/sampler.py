"""Vectorised sampling of detector error models.

Because every fault mechanism of a :class:`DetectorErrorModel` is an
independent Bernoulli variable, sampling a memory experiment reduces to a
binary matrix multiplication: draw the fault vector for every shot, then
XOR together the detector/observable signatures of the fired mechanisms.
This is mathematically identical to frame-simulating the Clifford circuit
with Pauli noise (what stim does), but needs only numpy.

Two backends compute that XOR:

``"packed"`` (the default)
    Fault draws are bit-packed along the *shot* axis into ``uint64`` words
    (:mod:`repro.sim.bitops`), and each detector/observable row is one
    XOR-reduce over the packed rows of the mechanisms that flip it — 64
    shots per word operation, no multiplies, no ``(shots, mechanisms)``
    ``int64`` temporaries.

``"dense"``
    The original ``int64`` matmul-mod-2, kept as the bit-identical
    reference the packed backend is benchmarked and tested against.

Both backends consume the random stream identically (one
``rng.random((shots, mechanisms))`` draw), so for a fixed seed they produce
bit-identical :class:`SampleBatch` contents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.bitops import pack_rows, unpack_rows, xor_reduce_rows
from repro.sim.dem import DetectorErrorModel

__all__ = ["SampleBatch", "DemSampler", "sample_detector_error_model"]


@dataclass
class SampleBatch:
    """Sampled detector and observable flips.

    ``detectors`` has shape ``(shots, num_detectors)``; ``observables`` has
    shape ``(shots, num_observables)``; both are uint8 arrays of 0/1 values.
    ``packed_detectors`` is the bit-packed form of ``detectors`` (shape
    ``(shots, ceil(num_detectors / 64))``, little-endian ``uint64`` words as
    produced by :func:`repro.sim.bitops.pack_rows`).  Every decoder's batch
    front end now consumes it directly — ``decode_batch_packed``
    deduplicates repeated syndromes on the packed words and unpacks only
    the unique rows — so the packed form is the primary hand-off from
    sampler to decoder, not a fast-path extra.  It is ``None`` only when
    the batch came from the dense reference backend.
    """

    detectors: np.ndarray
    observables: np.ndarray
    packed_detectors: np.ndarray | None = None

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

    def __init__(self, circuit=None, dem: DetectorErrorModel | None = None, backend: str = "packed") -> None:
        if dem is None:
            raise ValueError("DemSampler requires a detector error model")
        if backend not in ("packed", "dense"):
            raise ValueError(f"backend must be 'packed' or 'dense', got {backend!r}")
        self.dem = dem
        self.backend = backend

    def sample(
        self, shots: int, *, seed: "int | np.random.SeedSequence | None" = None
    ) -> SampleBatch:
        return sample_detector_error_model(
            self.dem, shots, seed=seed, backend=self.backend
        )


def _signature_groups(dem: DetectorErrorModel) -> tuple[list[list[int]], list[list[int]]]:
    """Mechanism column indices per detector row / observable row.

    This is the sparse, transposed view of ``dem.check_matrix`` /
    ``dem.observable_matrix`` the XOR backend reduces over.
    """
    detector_groups: list[list[int]] = [[] for _ in range(dem.num_detectors)]
    observable_groups: list[list[int]] = [[] for _ in range(dem.num_observables)]
    for column, mechanism in enumerate(dem.mechanisms):
        for detector in mechanism.detectors:
            detector_groups[detector].append(column)
        for observable in mechanism.observables:
            observable_groups[observable].append(column)
    return detector_groups, observable_groups


def _sample_packed(dem: DetectorErrorModel, shots: int, fired: np.ndarray) -> SampleBatch:
    """XOR/popcount word-ops backend: fault draws bit-packed along the shot axis."""
    packed_fired = pack_rows(fired.T)  # (mechanisms, shot_words)
    detector_groups, observable_groups = _signature_groups(dem)
    detectors_by_row = xor_reduce_rows(packed_fired, detector_groups)
    observables_by_row = xor_reduce_rows(packed_fired, observable_groups)
    detectors = np.ascontiguousarray(unpack_rows(detectors_by_row, shots).T)
    observables = np.ascontiguousarray(unpack_rows(observables_by_row, shots).T)
    return SampleBatch(
        detectors=detectors,
        observables=observables,
        packed_detectors=pack_rows(detectors),
    )


def _sample_dense(dem: DetectorErrorModel, shots: int, fired: np.ndarray) -> SampleBatch:
    """Reference dense ``int64`` matmul backend (bit-identical to packed)."""
    check = dem.check_matrix
    observable = dem.observable_matrix
    wide = fired.astype(np.int64)
    detectors = (wide @ check.T.astype(np.int64)) % 2
    observables = (wide @ observable.T.astype(np.int64)) % 2
    return SampleBatch(
        detectors=detectors.astype(np.uint8),
        observables=observables.astype(np.uint8),
    )


def sample_detector_error_model(
    dem: DetectorErrorModel,
    shots: int,
    *,
    seed: "int | np.random.SeedSequence | None" = None,
    backend: str = "packed",
) -> SampleBatch:
    """Draw ``shots`` independent samples from the DEM.

    ``seed`` may be an integer, ``None`` (fresh OS entropy), or a
    :class:`numpy.random.SeedSequence` stream derived with
    :mod:`repro.seeding` — the latter is what the estimator and the
    ``repro.api`` pipeline pass so that every stage draws from an
    independent stream.

    ``backend`` selects the XOR/popcount bit-packed path (``"packed"``, the
    default) or the dense ``int64`` matmul reference (``"dense"``).  The two
    are bit-identical for the same seed; only speed differs.
    """
    if backend not in ("packed", "dense"):
        raise ValueError(f"backend must be 'packed' or 'dense', got {backend!r}")
    rng = np.random.default_rng(seed)
    priors = dem.priors
    if dem.num_mechanisms == 0:
        detectors = np.zeros((shots, dem.num_detectors), dtype=np.uint8)
        return SampleBatch(
            detectors=detectors,
            observables=np.zeros((shots, dem.num_observables), dtype=np.uint8),
            packed_detectors=pack_rows(detectors) if backend == "packed" else None,
        )
    fired = rng.random((shots, dem.num_mechanisms)) < priors
    if backend == "dense":
        return _sample_dense(dem, shots, fired)
    return _sample_packed(dem, shots, fired)
