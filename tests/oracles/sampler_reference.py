"""Reference DEM sampler: the dense ``int64`` matmul-mod-2.

This is the original sampling backend of
:func:`repro.sim.sampler.sample_detector_error_model`, kept as the oracle
for its bit-packed XOR.  It draws the fault matrix exactly as the packed
sampler does (one ``rng.random((shots, mechanisms))`` draw compared with
the priors), so for equal seeds the two must return bit-identical detector
and observable flips.
"""

from __future__ import annotations

import numpy as np

from repro.sim.dem import DetectorErrorModel

__all__ = ["sample_dense"]


def sample_dense(
    dem: DetectorErrorModel,
    shots: int,
    *,
    seed: "int | np.random.SeedSequence | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(detectors, observables)`` uint8 flips of ``shots`` dense samples."""
    rng = np.random.default_rng(seed)
    if dem.num_mechanisms == 0:
        return (
            np.zeros((shots, dem.num_detectors), dtype=np.uint8),
            np.zeros((shots, dem.num_observables), dtype=np.uint8),
        )
    fired = rng.random((shots, dem.num_mechanisms)) < dem.priors
    wide = fired.astype(np.int64)
    detectors = (wide @ dem.check_matrix.T.astype(np.int64)) % 2
    observables = (wide @ dem.observable_matrix.T.astype(np.int64)) % 2
    return detectors.astype(np.uint8), observables.astype(np.uint8)
