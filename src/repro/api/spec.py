"""Declarative run configuration: :class:`Budget` and :class:`RunSpec`.

A :class:`RunSpec` is a frozen, JSON/dict-round-trippable description of one
end-to-end run — which code, noise model, scheduler and decoder (all as
registry spec strings), the compute budget, the master seed and the worker
count.  It is the unit of configuration everywhere: the ``repro`` CLI reads
one from flags or a JSON file, :class:`repro.api.Pipeline` executes one, and
experiment sweeps are lists of them.

Because every field that names a component is a registry spec string, a
RunSpec is trivially serialisable and hashable, and sweeping a parameter is
just ``spec.replace(code="surface:d=5")``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Budget", "RunSpec", "canonical_spec"]


@dataclass(frozen=True)
class Budget:
    """Compute budget of one run (evaluation, precision and synthesis knobs).

    ``shots`` is the Monte-Carlo budget per logical basis for the final
    evaluation.  ``synthesis_shots`` / ``iterations_per_step`` /
    ``max_evaluations`` only matter when the scheduler is ``"alphasyndrome"``
    (they bound the MCTS search).

    The precision knobs switch evaluation from fixed-shot to *adaptive*
    mode: with ``target_rse`` set, sampling proceeds chunk by chunk
    (:mod:`repro.parallel`) and stops per basis as soon as the Wilson
    relative error of the observed rate drops to ``target_rse`` (at the
    given two-sided ``confidence``), or when ``max_shots`` — the adaptive
    ceiling, defaulting to ``shots`` — is exhausted.  ``target_rse=None``
    (the default) reproduces fixed-shot results bit for bit.
    """

    shots: int = 2000
    synthesis_shots: int = 300
    iterations_per_step: int = 4
    max_evaluations: int | None = None
    target_rse: float | None = None
    max_shots: int | None = None
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
        if self.synthesis_shots < 0:
            raise ValueError(f"synthesis_shots must be >= 0, got {self.synthesis_shots}")
        if self.iterations_per_step < 1:
            raise ValueError(
                f"iterations_per_step must be >= 1, got {self.iterations_per_step}"
            )
        if self.max_evaluations is not None and self.max_evaluations < 0:
            raise ValueError(f"max_evaluations must be >= 0, got {self.max_evaluations}")
        if self.target_rse is not None and self.target_rse <= 0:
            raise ValueError(f"target_rse must be positive, got {self.target_rse}")
        if self.max_shots is not None and self.max_shots < 0:
            raise ValueError(f"max_shots must be >= 0, got {self.max_shots}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")

    @property
    def adaptive(self) -> bool:
        """True when evaluation should stream chunks through a stopping rule."""
        return self.target_rse is not None

    @property
    def plan_shots(self) -> int:
        """The shot count that fixes a run's deterministic chunk plan.

        A fixed-shot run consumes the whole plan, ``shots``.  An adaptive
        run lays out the chunk sizes and per-chunk seed streams for its
        ceiling, ``max_shots`` (default ``shots``), and consumes a prefix,
        so any early stop is bit-identical to the first chunks of the
        fixed-shot run at ``shots=plan_shots`` (the prefix-reproducibility
        guarantee).  ``max_shots`` is only that ceiling: without a
        ``target_rse`` it is ignored.
        """
        if self.adaptive and self.max_shots is not None:
            return self.max_shots
        return self.shots

    def stopping_rule(self):
        """The :class:`repro.analysis.stats.StoppingRule` for this budget.

        Every rate estimate runs one: without ``target_rse`` the rule never
        stops early and the run samples exactly ``shots`` per basis.
        """
        # Imported here so the spec layer stays import-light for CLI startup.
        from repro.analysis.stats import StoppingRule, z_for_confidence

        return StoppingRule(
            max_shots=self.plan_shots,
            target_rse=self.target_rse,
            z=z_for_confidence(self.confidence),
        )

    def replace(self, **changes) -> "Budget":
        """Return a copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain-dict form of the budget (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Budget":
        """Rebuild a budget from :meth:`to_dict` output.

        Raises
        ------
        ValueError
            If ``payload`` carries keys that are not Budget fields.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown Budget fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class RunSpec:
    """Frozen description of one code/noise/scheduler/decoder run.

    All component fields are registry spec strings (see
    :mod:`repro.api.registry`), e.g. ``code="surface:d=5"`` or
    ``decoder="lookup:max_order=3"``.  ``workers`` > 1 runs the
    sampling/decoding hot path on a process pool; because shards are
    fixed-size chunks with their own seed streams (:mod:`repro.parallel`),
    the results are bit-identical for every worker count.

    ``eval_stage`` optionally names a seeding *stage* for the evaluation
    sampling streams: when set, the pipeline derives its per-basis streams
    from ``named_stream(seed, eval_stage)`` (:mod:`repro.seeding`) instead
    of ``seed`` directly.  The experiment suites set it to ``"evaluation"``
    so their runs consume exactly the stage stream the original
    hand-rolled drivers used, keeping suite-backed tables bit-identical to
    the historical output; the
    default ``None`` keeps the original ``basis_streams(seed)`` derivation.

    ``sampler`` selects the syndrome-sampling backend by registry spec
    string (:data:`repro.api.registries.samplers`): ``"dem"`` (the default
    first-order DEM mechanism sampler, bit-identical to the historical
    behaviour), ``"frames"`` (the batched circuit-level Pauli-frame
    propagator) or ``"tableau"`` (the per-shot reference simulator).
    Worker-count invariance and the chunk cache apply to every backend:
    chunk layout and per-chunk seed streams depend only on the shot plan,
    and the sampler spec enters every chunk address.

    ``rounds`` is the number of consecutive noisy syndrome rounds in the
    memory experiment (the paper uses one).  More rounds grow the detector
    volume (evaluation at distance ``d`` uses ``rounds = d``); every noisy
    round carries the same noise.  It is a sweepable axis like any other
    field.  It is an
    *evaluation* axis only: synthesising schedulers (``"alphasyndrome"``)
    score candidate schedules on the paper's single-round experiment
    regardless of ``rounds`` — a schedule is a per-round object, and one
    search therefore serves every ``rounds`` value (the suites memoise it
    accordingly).
    """

    code: str = "surface:d=3"
    noise: str = "brisbane"
    scheduler: str = "lowest_depth"
    decoder: str = "mwpm"
    budget: Budget = Budget()
    seed: int | None = 0
    workers: int = 1
    eval_stage: str | None = None
    rounds: int = 1
    sampler: str = "dem"

    def __post_init__(self) -> None:
        if isinstance(self.budget, dict):
            object.__setattr__(self, "budget", Budget.from_dict(self.budget))
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "RunSpec":
        """Return a copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def eval_seed(self):
        """Root seed of the evaluation's per-basis stream derivation.

        ``seed`` itself when no ``eval_stage`` is set (the historical
        behaviour), otherwise the independent named stage stream.  The
        result feeds :func:`repro.sim.estimator.basis_streams`.
        """
        if self.eval_stage is None:
            return self.seed
        # Imported here so the spec layer stays import-light for CLI startup.
        from repro.seeding import named_stream

        return named_stream(self.seed, self.eval_stage)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form of the spec, budget nested (inverse of :meth:`from_dict`).

        ``sampler`` is omitted while it holds its default (``"dem"``) — the
        output-side dual of :meth:`from_dict`'s missing-field defaulting.
        Together the two rules mean growing the spec a defaulted field
        never invalidates stored payloads: old chunk-cache addresses, suite
        fingerprints and serve job keys keep matching runs that don't use
        the new field, while any non-default value enters them all.
        """
        payload = dataclasses.asdict(self)
        payload["budget"] = self.budget.to_dict()
        if self.sampler == "dem":
            del payload["sampler"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Missing fields assume their defaults (which is what lets old
        stored payloads keep matching as the spec grows fields).

        Raises
        ------
        ValueError
            If ``payload`` carries keys that are not RunSpec fields.
        """
        payload = dict(payload)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        budget = payload.get("budget")
        if isinstance(budget, dict):
            payload["budget"] = Budget.from_dict(budget)
        return cls(**payload)

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON text form of the spec (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the spec as JSON to ``path``; returns the written path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunSpec":
        """Read a spec previously written with :meth:`save` (or any spec JSON)."""
        return cls.from_json(Path(path).read_text())


def canonical_spec(payload: dict) -> dict:
    """Normalised spec payload used as a resume key (sweeps, suite rows).

    ``workers`` is dropped: it is an execution detail that never changes
    results (the worker-invariance guarantee), so work interrupted on an
    8-core server resumes cleanly on a 1-core laptop.  The payload is
    normalised through a :class:`RunSpec` round trip so rows written before
    a Budget/RunSpec field was introduced keep matching the spec they
    describe (missing fields assume their defaults); unknown or renamed
    fields leave the payload as-is, which simply never matches.
    """
    try:
        payload = RunSpec.from_dict(payload).to_dict()
    except (TypeError, ValueError):
        payload = dict(payload)
    payload.pop("workers", None)
    return payload
