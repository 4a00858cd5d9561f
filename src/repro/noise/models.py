"""Circuit-level noise: one model type, a tuple of channels.

The paper's main error model (Section 5.1.2) is adapted from IBM Brisbane:
every two-qubit gate is followed by a two-qubit depolarizing channel with
probability ``p_two = 0.0074`` and every idling qubit accumulates a
single-qubit depolarizing channel with probability ``p_idle = 0.0052`` per
tick.  Its variants are scaled rates (Figure 14) and per-ancilla rates
(Figure 15); measurement/reset flip probabilities are supported but default
to zero to match the paper.

A :class:`Channel` is a frozen value object that answers one question:
*which noise instructions fire at this kind of circuit location, on these
qubits?*  A :class:`NoiseModel` is a tuple of channels; its one method,
:meth:`NoiseModel.ops`, concatenates its channels' answers in channel order
and memoises them per ``(kind, qubits)``.  The presets at the bottom of
this module (:func:`depolarizing_noise`, :func:`brisbane_noise`,
:func:`biased_noise`, ...) build the registered models.

Site kinds (see :func:`repro.circuits.builder.append_syndrome_round` for
where each fires):

``"gate"``
    immediately after each two-qubit Pauli check; the qubits are the
    ``(ancilla, data)`` pair.
``"idle"``
    once per idling qubit per tick; the single qubit.
``"measure"``
    immediately before each ancilla readout; the single ancilla.
``"reset"``
    immediately after ancilla preparation; every prepared ancilla at once
    (one multi-qubit op).

Bias convention: a biased Pauli channel of total probability ``p`` and
bias ``eta`` splits as ``p_x = p_y = p / (eta + 2)`` and
``p_z = p * eta / (eta + 2)``, so ``eta = 1`` reduces *exactly* to the
depolarizing split ``p/3`` (bit-identical detector error models, pinned by
tests) and ``eta -> inf`` approaches pure dephasing.  The two-qubit biased
channel weights each of the 15 non-identity Pauli pairs by the product of
per-letter weights (``I, X, Y -> 1``, ``Z -> eta``), which at ``eta = 1``
is exactly the uniform ``p/15`` split of ``DEPOLARIZE2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import TWO_QUBIT_PAULIS

__all__ = [
    "GATE",
    "IDLE",
    "MEASURE",
    "RESET",
    "NoiseOp",
    "Channel",
    "TwoQubitDepolarizing",
    "IdleDepolarizing",
    "TwoQubitBiasedPauli",
    "IdleBiasedPauli",
    "Dephasing",
    "MeasurementFlip",
    "ResetFlip",
    "NoiseModel",
    "biased_pauli_rates",
    "two_qubit_biased_rates",
    "depolarizing_noise",
    "brisbane_noise",
    "scaled_noise",
    "non_uniform_noise",
    "biased_noise",
    "dephasing_noise",
]

#: Canonical site kinds.
GATE = "gate"
IDLE = "idle"
MEASURE = "measure"
RESET = "reset"

#: Two-qubit depolarizing probability measured on IBM Brisbane (paper Sec. 5.1.2).
BRISBANE_TWO_QUBIT_ERROR = 0.0074
#: Per-tick idling depolarizing probability (paper Sec. 5.1.2).
BRISBANE_IDLE_ERROR = 0.0052
#: Two-qubit gate duration in nanoseconds (paper Sec. 5.3.2).
BRISBANE_TWO_QUBIT_TIME_NS = 600.0
#: Ancilla readout duration in nanoseconds (paper Sec. 5.3.2).
BRISBANE_MEASUREMENT_TIME_NS = 4000.0


@dataclass(frozen=True)
class NoiseOp:
    """One noise instruction a channel asks the circuit to append.

    Attributes
    ----------
    name:
        Circuit noise mnemonic (``"DEPOLARIZE2"``, ``"Z_ERROR"``,
        ``"PAULI_CHANNEL_1"``, ...).
    qubits:
        Qubits the instruction acts on.
    probability:
        Error probability for single-probability channels; ``None`` for
        ``PAULI_CHANNEL_*`` ops, which carry ``probabilities`` instead.
    probabilities:
        Per-Pauli probability tuple for ``PAULI_CHANNEL_1`` (X, Y, Z) and
        ``PAULI_CHANNEL_2`` (the 15 non-identity pairs in
        :data:`repro.circuits.circuit.TWO_QUBIT_PAULIS` order).
    """

    name: str
    qubits: tuple[int, ...]
    probability: float | None = None
    probabilities: tuple[float, ...] | None = None


def _site_rate(base: float, per_qubit: dict, qubits: tuple[int, ...]) -> float:
    """Resolve a site's rate: the maximum per-qubit override over its qubits.

    Two-qubit gates take the maximum of the two qubits' rates (the paper
    varies the *ancilla* rate, which this rule honours); single-qubit sites
    reduce to their one qubit's override.
    """
    return max(per_qubit.get(qubit, base) for qubit in qubits)


def biased_pauli_rates(p: float, eta: float) -> tuple[float, float, float]:
    """Split total probability ``p`` into ``(p_x, p_y, p_z)`` at bias ``eta``.

    ``p_x = p_y = p / (eta + 2)`` and ``p_z = p * eta / (eta + 2)``:
    ``eta = 1`` is exactly the depolarizing ``p/3`` split, ``eta -> inf``
    pure dephasing.

    Raises
    ------
    ValueError
        If ``eta`` is negative.
    """
    if eta < 0:
        raise ValueError(f"bias eta must be >= 0, got {eta}")
    share = p / (eta + 2.0)
    return (share, share, p * eta / (eta + 2.0))


def two_qubit_biased_rates(p: float, eta: float) -> tuple[float, ...]:
    """The 15 two-qubit Pauli-pair probabilities of a biased channel.

    Each non-identity pair ``(P, Q)`` is weighted by the product of
    per-letter weights (``I, X, Y -> 1``; ``Z -> eta``), normalised so the
    total is ``p``.  At ``eta = 1`` every weight is 1 and the result is the
    exact ``p/15`` split of ``DEPOLARIZE2``.  Pair order follows
    :data:`repro.circuits.circuit.TWO_QUBIT_PAULIS`.

    Raises
    ------
    ValueError
        If ``eta`` is negative.
    """
    if eta < 0:
        raise ValueError(f"bias eta must be >= 0, got {eta}")
    letter_weight = {"I": 1.0, "X": 1.0, "Y": 1.0, "Z": eta}
    weights = [
        letter_weight[first] * letter_weight[second] for first, second in TWO_QUBIT_PAULIS
    ]
    normaliser = sum(weights)
    if normaliser <= 0:
        return tuple(0.0 for _ in weights)
    return tuple(p * weight / normaliser for weight in weights)


class Channel:
    """Base class of all noise channels.

    A channel is a frozen value object answering ``ops(kind, qubits)`` —
    the noise instructions to append at one site of that kind on those
    qubits.  Channels respond only to their own site kinds and return
    ``()`` everywhere else, so a model composes channels by concatenation.
    """

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """Noise ops this channel fires at a ``kind`` site on ``qubits``."""
        raise NotImplementedError


@dataclass(frozen=True)
class TwoQubitDepolarizing(Channel):
    """Two-qubit depolarizing after each Pauli check (``DEPOLARIZE2``).

    Attributes
    ----------
    p:
        Default depolarizing probability.
    per_qubit:
        Optional per-qubit overrides; a gate uses the maximum of its two
        qubits' rates.
    """

    p: float
    per_qubit: dict = field(default_factory=dict)

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """One ``DEPOLARIZE2`` op on gate sites; ``()`` elsewhere."""
        if kind != GATE:
            return ()
        rate = _site_rate(self.p, self.per_qubit, qubits)
        return (NoiseOp("DEPOLARIZE2", qubits, probability=rate),)


@dataclass(frozen=True)
class IdleDepolarizing(Channel):
    """Single-qubit depolarizing on each idling qubit per tick (``DEPOLARIZE1``)."""

    p: float
    per_qubit: dict = field(default_factory=dict)

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """One ``DEPOLARIZE1`` op on idle sites; ``()`` elsewhere."""
        if kind != IDLE:
            return ()
        rate = _site_rate(self.p, self.per_qubit, qubits)
        return (NoiseOp("DEPOLARIZE1", qubits, probability=rate),)


@dataclass(frozen=True)
class TwoQubitBiasedPauli(Channel):
    """Z-biased two-qubit Pauli channel after each check (``PAULI_CHANNEL_2``).

    Attributes
    ----------
    p:
        Total error probability of the channel.
    eta:
        Bias: per-letter weight of Z relative to X/Y (see
        :func:`two_qubit_biased_rates`).  ``eta = 1`` is exactly
        ``DEPOLARIZE2``.
    per_qubit:
        Optional per-qubit overrides of ``p`` (maximum-of-pair rule).
    """

    p: float
    eta: float = 1.0
    per_qubit: dict = field(default_factory=dict)

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """One ``PAULI_CHANNEL_2`` op on gate sites; ``()`` elsewhere."""
        if kind != GATE:
            return ()
        rate = _site_rate(self.p, self.per_qubit, qubits)
        return (
            NoiseOp(
                "PAULI_CHANNEL_2", qubits, probabilities=two_qubit_biased_rates(rate, self.eta)
            ),
        )


@dataclass(frozen=True)
class IdleBiasedPauli(Channel):
    """Z-biased single-qubit Pauli channel on idling qubits (``PAULI_CHANNEL_1``)."""

    p: float
    eta: float = 1.0
    per_qubit: dict = field(default_factory=dict)

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """One ``PAULI_CHANNEL_1`` op on idle sites; ``()`` elsewhere."""
        if kind != IDLE:
            return ()
        rate = _site_rate(self.p, self.per_qubit, qubits)
        return (
            NoiseOp("PAULI_CHANNEL_1", qubits, probabilities=biased_pauli_rates(rate, self.eta)),
        )


@dataclass(frozen=True)
class Dephasing(Channel):
    """Pure-Z dephasing on idle ticks and (optionally) after gates.

    Attributes
    ----------
    p:
        Z-error probability per site.
    gates:
        When true (the default), gate sites also dephase both gate qubits;
        otherwise only idle sites fire.
    """

    p: float
    gates: bool = True

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """A ``Z_ERROR`` op on idle (and optionally gate) sites."""
        if kind == IDLE or (self.gates and kind == GATE):
            return (NoiseOp("Z_ERROR", qubits, probability=self.p),)
        return ()


@dataclass(frozen=True)
class MeasurementFlip(Channel):
    """Readout flip: ``Z_ERROR`` on the ancilla just before its X-basis readout."""

    p: float
    per_qubit: dict = field(default_factory=dict)

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """One ``Z_ERROR`` op on measure sites; ``()`` elsewhere."""
        if kind != MEASURE:
            return ()
        rate = _site_rate(self.p, self.per_qubit, qubits)
        return (NoiseOp("Z_ERROR", qubits, probability=rate),)


@dataclass(frozen=True)
class ResetFlip(Channel):
    """Preparation flip: ``Z_ERROR`` on every prepared ancilla after reset.

    Fires once per round on the reset site covering *all* prepared
    ancillas, producing a single multi-qubit instruction.
    """

    p: float

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """One multi-qubit ``Z_ERROR`` op on reset sites; ``()`` elsewhere."""
        if kind != RESET:
            return ()
        return (NoiseOp("Z_ERROR", qubits, probability=self.p),)


@dataclass(frozen=True)
class NoiseModel:
    """A noise model: a tuple of channels, asked in order at every site.

    Attributes
    ----------
    channels:
        The channels, asked in order at every site.
    name:
        Label for ``repr`` and diagnostics.
    """

    channels: tuple[Channel, ...] = ()
    name: str = "noise"
    _ops: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def ops(self, kind: str, qubits: tuple[int, ...]) -> tuple[NoiseOp, ...]:
        """All channels' ops at a ``kind`` site on ``qubits``, in channel order.

        Channels see only the kind and the qubits, so the answer is
        computed once per ``(kind, qubits)`` and reused: a circuit asks for
        the same idle qubit at every tick.
        """
        key = (kind, qubits)
        ops = self._ops.get(key)
        if ops is None:
            ops = self._ops[key] = tuple(
                op for channel in self.channels for op in channel.ops(kind, qubits)
            )
        return ops


# ----------------------------------------------------------------------
# Presets behind the registry spec strings
# ----------------------------------------------------------------------
def depolarizing_noise(
    two_qubit: float,
    idle: float,
    measurement: float = 0.0,
    reset: float = 0.0,
    *,
    per_qubit_two_qubit: dict[int, float] | None = None,
    per_qubit_idle: dict[int, float] | None = None,
) -> NoiseModel:
    """Gate and idle depolarizing plus readout and reset flips.

    Parameters
    ----------
    two_qubit:
        Depolarizing probability after each two-qubit gate.
    idle:
        Depolarizing probability on each idling qubit per tick.
    measurement:
        Readout flip probability (default 0).
    reset:
        Preparation flip probability (default 0).
    per_qubit_two_qubit:
        Optional per-qubit gate-rate overrides; a gate uses the maximum of
        its two qubits' rates (the paper varies the *ancilla* rate).
    per_qubit_idle:
        Optional per-qubit idle-rate overrides.
    """
    return NoiseModel(
        (
            TwoQubitDepolarizing(two_qubit, dict(per_qubit_two_qubit or {})),
            IdleDepolarizing(idle, dict(per_qubit_idle or {})),
            MeasurementFlip(measurement),
            ResetFlip(reset),
        ),
        "depolarizing",
    )


def brisbane_noise() -> NoiseModel:
    """The uniform IBM-Brisbane-derived model used in most experiments."""
    return depolarizing_noise(BRISBANE_TWO_QUBIT_ERROR, BRISBANE_IDLE_ERROR)


def scaled_noise(physical_error_rate: float) -> NoiseModel:
    """Uniform model with both CNOT and idle error set to ``physical_error_rate``.

    Used by the low-physical-error-rate scaling study (Figure 14), which
    sweeps the rate over ``1e-2 ... 1e-5``.
    """
    return depolarizing_noise(physical_error_rate, physical_error_rate)


def non_uniform_noise(
    ancilla_qubits: list[int], *, variance: float = 0.5, seed: int | None = 7
) -> NoiseModel:
    """Per-ancilla noise variation used in the Figure 15 experiment.

    Each listed ancilla qubit receives a two-qubit error rate drawn
    uniformly from ``BRISBANE_TWO_QUBIT_ERROR * [1 - variance, 1 + variance]``;
    everything else is the Brisbane model.
    """
    rng = np.random.default_rng(seed)
    factors = rng.uniform(1.0 - variance, 1.0 + variance, size=len(ancilla_qubits))
    per_qubit = {
        qubit: float(BRISBANE_TWO_QUBIT_ERROR * factor)
        for qubit, factor in zip(ancilla_qubits, factors)
    }
    return depolarizing_noise(
        BRISBANE_TWO_QUBIT_ERROR, BRISBANE_IDLE_ERROR, per_qubit_two_qubit=per_qubit
    )


def biased_noise(
    p: float = 1e-3,
    eta: float = 10.0,
    *,
    idle: float | None = None,
    measurement: float = 0.0,
    reset: float = 0.0,
) -> NoiseModel:
    """Uniform Z-biased model: gate + idle biased channels plus optional flips.

    Parameters
    ----------
    p:
        Total two-qubit gate error probability.
    eta:
        Bias (``eta = 1`` is depolarizing; larger favours Z).
    idle:
        Idle error probability per tick (defaults to ``p``, mirroring the
        uniform ``scaled`` model).
    measurement:
        Readout flip probability (default 0).
    reset:
        Preparation flip probability (default 0).
    """
    channels: tuple[Channel, ...] = (
        TwoQubitBiasedPauli(p, eta),
        IdleBiasedPauli(p if idle is None else idle, eta),
    )
    if measurement:
        channels += (MeasurementFlip(measurement),)
    if reset:
        channels += (ResetFlip(reset),)
    return NoiseModel(channels, "biased")


def dephasing_noise(p: float = 1e-3, *, gates: bool = True) -> NoiseModel:
    """Pure-Z dephasing model (spec string ``"dephasing:p=..."``).

    Parameters
    ----------
    p:
        Z-error probability per idle tick (and per gate qubit when
        ``gates`` is true).
    gates:
        Also dephase both qubits after each two-qubit gate (default true).
    """
    return NoiseModel((Dephasing(p, gates),), "dephasing")
