"""Noise models for syndrome-measurement circuits.

:mod:`repro.noise.models` holds the one model type, :class:`NoiseModel` —
a tuple of :class:`Channel` objects asked once per ``(kind, qubits)`` —
its channels and the presets behind the registry spec strings.
"""

from repro.noise.models import (
    BRISBANE_IDLE_ERROR,
    BRISBANE_MEASUREMENT_TIME_NS,
    BRISBANE_TWO_QUBIT_ERROR,
    BRISBANE_TWO_QUBIT_TIME_NS,
    Channel,
    Dephasing,
    IdleBiasedPauli,
    IdleDepolarizing,
    MeasurementFlip,
    NoiseModel,
    NoiseOp,
    ResetFlip,
    TwoQubitBiasedPauli,
    TwoQubitDepolarizing,
    biased_noise,
    biased_pauli_rates,
    brisbane_noise,
    dephasing_noise,
    depolarizing_noise,
    non_uniform_noise,
    scaled_noise,
    two_qubit_biased_rates,
)

__all__ = [
    "NoiseModel",
    "Channel",
    "NoiseOp",
    "TwoQubitDepolarizing",
    "IdleDepolarizing",
    "TwoQubitBiasedPauli",
    "IdleBiasedPauli",
    "Dephasing",
    "MeasurementFlip",
    "ResetFlip",
    # Presets
    "depolarizing_noise",
    "brisbane_noise",
    "scaled_noise",
    "non_uniform_noise",
    "biased_noise",
    "dephasing_noise",
    "biased_pauli_rates",
    "two_qubit_biased_rates",
    "BRISBANE_TWO_QUBIT_ERROR",
    "BRISBANE_IDLE_ERROR",
    "BRISBANE_TWO_QUBIT_TIME_NS",
    "BRISBANE_MEASUREMENT_TIME_NS",
]
