"""Circuit-level noise models (the uniform/legacy family).

The paper's main error model (Section 5.1.2) is adapted from IBM Brisbane:
every two-qubit gate is followed by a two-qubit depolarizing channel with
probability ``p_two = 0.0074`` and every idling qubit accumulates a
single-qubit depolarizing channel with probability ``p_idle = 0.0052`` per
tick.  Error rates may be uniform across qubits or per-qubit ("non-uniform
error model", Section 5.7); measurement/reset flip probabilities are
supported but default to zero to match the paper.

:class:`NoiseModel` is the historical four-rate dataclass.  Since the
channel refactor it is a thin facade over :mod:`repro.noise.channels`: its
rates decompose into a fixed channel tuple (:meth:`NoiseModel.channels`)
and the circuit builders consume it through the same
``channel_ops(site)`` protocol as any composed model, so the legacy
uniform models flow through the exact code path new channel compositions
do — with bit-identical instruction streams, pinned by regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.noise.channels import (
    Channel,
    IdleDepolarizing,
    MeasurementFlip,
    NoiseOp,
    NoiseSite,
    ResetFlip,
    TwoQubitDepolarizing,
)

__all__ = ["NoiseModel", "brisbane_noise", "scaled_noise", "non_uniform_noise"]

#: Two-qubit depolarizing probability measured on IBM Brisbane (paper Sec. 5.1.2).
BRISBANE_TWO_QUBIT_ERROR = 0.0074
#: Per-tick idling depolarizing probability (paper Sec. 5.1.2).
BRISBANE_IDLE_ERROR = 0.0052
#: Two-qubit gate duration in nanoseconds (paper Sec. 5.3.2).
BRISBANE_TWO_QUBIT_TIME_NS = 600.0
#: Ancilla readout duration in nanoseconds (paper Sec. 5.3.2).
BRISBANE_MEASUREMENT_TIME_NS = 4000.0


@dataclass
class NoiseModel:
    """Per-qubit circuit-level depolarizing noise.

    Attributes
    ----------
    two_qubit_error:
        Default depolarizing probability applied after each two-qubit gate.
    idle_error:
        Default depolarizing probability applied to each idling qubit per tick.
    measurement_error:
        Probability of flipping a measurement outcome (X error before an
        X-basis readout / Z-basis readout flip).
    reset_error:
        Probability of a Pauli flip immediately after a reset.
    per_qubit_two_qubit:
        Optional per-qubit overrides; a two-qubit gate uses the maximum of
        its two qubits' rates (the paper varies the *ancilla* rate, which
        this rule honours).
    per_qubit_idle:
        Optional per-qubit idle-rate overrides.
    """

    two_qubit_error: float = BRISBANE_TWO_QUBIT_ERROR
    idle_error: float = BRISBANE_IDLE_ERROR
    measurement_error: float = 0.0
    reset_error: float = 0.0
    per_qubit_two_qubit: dict[int, float] = field(default_factory=dict)
    per_qubit_idle: dict[int, float] = field(default_factory=dict)

    def two_qubit_rate(self, first: int, second: int) -> float:
        """Depolarizing probability for a two-qubit gate on ``(first, second)``."""
        rates = [
            self.per_qubit_two_qubit.get(first, self.two_qubit_error),
            self.per_qubit_two_qubit.get(second, self.two_qubit_error),
        ]
        return max(rates)

    def idle_rate(self, qubit: int) -> float:
        """Per-tick idling depolarizing probability for ``qubit``."""
        return self.per_qubit_idle.get(qubit, self.idle_error)

    def channels(self) -> tuple[Channel, ...]:
        """This model's decomposition into composable channels.

        Gate depolarizing, idle depolarizing, measurement flip and reset
        flip — asked in exactly the order the legacy emitters fired, so
        routing through the channel path reproduces the historical
        instruction stream bit for bit.

        The tuple is computed once and cached (``channel_ops`` runs once
        per noise site in the circuit-builder hot loop); models are
        treated as immutable after their first use.
        """
        cached = self.__dict__.get("_channels")
        if cached is None:
            cached = (
                TwoQubitDepolarizing(self.two_qubit_error, self.per_qubit_two_qubit),
                IdleDepolarizing(self.idle_error, self.per_qubit_idle),
                MeasurementFlip(self.measurement_error),
                ResetFlip(self.reset_error),
            )
            self.__dict__["_channels"] = cached
        return cached

    def channel_ops(self, site: NoiseSite) -> tuple[NoiseOp, ...]:
        """Noise ops to append at ``site`` (the shared builder protocol).

        Same contract as
        :meth:`repro.noise.channels.ComposedNoiseModel.channel_ops`: the
        concatenated ops of :meth:`channels` at ``site``.

        The four channels read only ``site.kind`` and ``site.qubits``,
        never the tick or round, so the ops are memoised per model on that
        key (a circuit asks for the same idle qubit at every tick), under
        the same immutable-after-first-use contract as :meth:`channels`.
        """
        memo = self.__dict__.setdefault("_site_ops", {})
        key = (site.kind, site.qubits)
        ops = memo.get(key)
        if ops is None:
            ops = memo[key] = tuple(
                op for channel in self.channels() for op in channel.ops(site)
            )
        return ops

    def is_noiseless(self) -> bool:
        """True when every rate (and every per-qubit override) is zero."""
        return (
            self.two_qubit_error == 0
            and self.idle_error == 0
            and self.measurement_error == 0
            and self.reset_error == 0
            and not self.per_qubit_two_qubit
            and not self.per_qubit_idle
        )

    def scaled(self, factor: float) -> "NoiseModel":
        """Return a copy with every probability multiplied by ``factor``."""
        return NoiseModel(
            two_qubit_error=self.two_qubit_error * factor,
            idle_error=self.idle_error * factor,
            measurement_error=self.measurement_error * factor,
            reset_error=self.reset_error * factor,
            per_qubit_two_qubit={
                q: p * factor for q, p in self.per_qubit_two_qubit.items()
            },
            per_qubit_idle={q: p * factor for q, p in self.per_qubit_idle.items()},
        )


def brisbane_noise() -> NoiseModel:
    """The uniform IBM-Brisbane-derived model used in most experiments."""
    return NoiseModel()


def scaled_noise(physical_error_rate: float) -> NoiseModel:
    """Uniform model with both CNOT and idle error set to ``physical_error_rate``.

    Used by the low-physical-error-rate scaling study (Figure 14), which
    sweeps the rate over ``1e-2 ... 1e-5``.
    """
    return NoiseModel(
        two_qubit_error=physical_error_rate, idle_error=physical_error_rate
    )


def non_uniform_noise(
    ancilla_qubits: list[int],
    *,
    base: NoiseModel | None = None,
    variance: float = 0.5,
    seed: int = 7,
) -> NoiseModel:
    """Per-ancilla noise variation used in the Figure 15 experiment.

    Each listed ancilla qubit receives a two-qubit error rate drawn
    uniformly from ``base_rate * [1 - variance, 1 + variance]``.
    """
    base = base or brisbane_noise()
    rng = np.random.default_rng(seed)
    factors = rng.uniform(1.0 - variance, 1.0 + variance, size=len(ancilla_qubits))
    per_qubit = {
        qubit: float(base.two_qubit_error * factor)
        for qubit, factor in zip(ancilla_qubits, factors)
    }
    return NoiseModel(
        two_qubit_error=base.two_qubit_error,
        idle_error=base.idle_error,
        measurement_error=base.measurement_error,
        reset_error=base.reset_error,
        per_qubit_two_qubit=per_qubit,
        per_qubit_idle=dict(base.per_qubit_idle),
    )
