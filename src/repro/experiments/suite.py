"""Declarative experiment suites on the ``repro.api`` stack.

This module collapses the historical two-stack split of the repository —
the scale machinery (worker-invariant sharding, the content-addressed
chunk cache, adaptive precision budgets, resumable sweeps) on one side and
the hand-rolled paper-table drivers on the other — into one abstraction:

:class:`ExperimentRow`
    one output row of a paper table/figure, expressed as a tuple of named
    :class:`~repro.api.spec.RunSpec` executions plus a ``derive`` callable
    that folds the executed pipelines into the published row dictionary.

:class:`ExperimentSuite`
    a named, registered builder mapping a :class:`SuiteConfig` (budget,
    seed, quick/full, workers) to the suite's rows.  The paper assets
    (``table2`` ... ``figure15``) register themselves via
    :func:`register_suite` from their declaration modules.

:class:`SuiteRunner`
    executes suites through :class:`repro.api.Pipeline` — every run gets
    the pool-sharded hot path (``workers``), the chunk cache and the
    adaptive stopping rule for free — memoises AlphaSyndrome syntheses on
    :class:`SynthSpec` so rows that evaluate one synthesised schedule under
    several decoders search once, and resumes completed rows from the
    :class:`~repro.experiments.artifacts.ArtifactStore` with zero
    resampling.

Determinism contract: every evaluation spec carries
``eval_stage="evaluation"``, so its sampling streams are derived from
``named_stream(seed, "evaluation")`` — the stage stream the retired
hand-rolled drivers consumed.  At fixed seeds and quick budgets the suite
output is therefore **bit-identical** to their output, frozen in
``tests/data/suite_equivalence_rows.json`` and pinned by
``tests/test_suite_equivalence.py``, for every worker count.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from repro.api.pipeline import Pipeline, RunResult
from repro.api.registries import schedulers
from repro.api.registry import parse_spec
from repro.api.spec import Budget, RunSpec
from repro.experiments.artifacts import ArtifactStore, row_fingerprint
from repro.seeding import stage_seed
from repro.sim.estimator import LogicalErrorRates

__all__ = [
    "EVALUATION_STAGE",
    "QUICK_BUDGET",
    "ExperimentRow",
    "ExperimentRun",
    "ExperimentSuite",
    "RowOutcome",
    "RowView",
    "SUITES",
    "SuiteConfig",
    "SuiteResult",
    "SuiteRowError",
    "SuiteRunner",
    "SynthSpec",
    "available_suites",
    "comparison_row",
    "get_suite",
    "register_suite",
    "run_suite",
    "synthesis_scheduler",
]

#: The laptop-sized "quick" budget of the paper's tables (the default of
#: ``repro experiments run``).  Paper-scale runs raise the numbers (and
#: usually set ``target_rse``).
QUICK_BUDGET = Budget(
    shots=400, synthesis_shots=150, iterations_per_step=4, max_evaluations=24
)

#: Seeding stage named by every suite evaluation spec; matches the retired
#: drivers' ``named_stream(seed, "evaluation")`` derivation bit for bit.
EVALUATION_STAGE = "evaluation"

#: Seconds ``SuiteRunner`` waits for one served cell's result.
SERVER_TIMEOUT = 900.0


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuiteConfig:
    """Suite-wide execution knobs: budget, seed, quick/full and workers.

    ``budget.target_rse`` switches every evaluation to adaptive
    precision-targeted sampling (see :class:`repro.api.Budget`); with it
    unset the suite reproduces the frozen fixed-shot rows bit for bit.
    ``workers`` pools the sampling/decoding hot path and the synthesis
    evaluator — it never changes any number.
    """

    budget: Budget = QUICK_BUDGET
    seed: int | None = 0
    quick: bool = True
    workers: int = 1

    def replace(self, **changes) -> "SuiteConfig":
        """Return a copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def spec(self, **overrides) -> RunSpec:
        """An evaluation RunSpec carrying this config's budget/seed/workers."""
        return RunSpec(
            budget=self.budget,
            seed=self.seed,
            workers=self.workers,
            eval_stage=EVALUATION_STAGE,
            **overrides,
        )

    def stage_seed(self, stage: str) -> int | None:
        """Integer stage seed for spec strings (e.g. the Figure 15 noise)."""
        return stage_seed(self.seed, stage)


def synthesis_scheduler(compile_decoder: str | None = None) -> str:
    """The AlphaSyndrome scheduler spec, optionally compiled cross-decoder.

    ``compile_decoder=None`` synthesises against the run's own decoder;
    naming one produces Table 4's cross cells, e.g.
    ``"alphasyndrome:compile_decoder=bposd"`` evaluated with
    ``decoder="unionfind"``.
    """
    if compile_decoder is None:
        return "alphasyndrome"
    return f"alphasyndrome:compile_decoder={compile_decoder}"


# ----------------------------------------------------------------------
# The synthesis-spec variant
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SynthSpec:
    """What uniquely determines one AlphaSyndrome search.

    The synthesis-only variant of :class:`RunSpec`: the code, the noise,
    the decoder the schedule is *compiled for* (which Table 4 decouples
    from the decoder that evaluates it), the search budget and the seed.
    The runner memoises :class:`~repro.core.SynthesisResult` objects on
    this key, so a suite that evaluates one synthesised schedule in many
    cells (Table 4's 2x2 matrix, Figure 12's schedule comparison) searches
    once per distinct SynthSpec, derived from the specs instead of
    re-coded per table.
    """

    code: str
    decoder: str
    noise: str = "brisbane"
    synthesis_shots: int = 300
    iterations_per_step: int = 4
    max_evaluations: int | None = None
    seed: int | None = 0
    #: Canonical scheduler spec (compile_decoder resolved into ``decoder``,
    #: remaining arguments — e.g. ``rollout_batch`` — kept sorted) so two
    #: different search configurations can never share a memo slot.
    scheduler: str = "alphasyndrome"

    @classmethod
    def from_run_spec(cls, spec: RunSpec) -> "SynthSpec | None":
        """The synthesis key of ``spec`` (``None`` for fixed schedulers)."""
        name, positional, keyword = parse_spec(spec.scheduler)
        if name not in schedulers or schedulers.entry(name).name != "alphasyndrome":
            return None
        if positional:
            # Positional scheduler arguments have no canonical spelling;
            # skip sharing rather than risk keying two searches together.
            return None
        keyword = dict(keyword)
        compile_decoder = keyword.pop("compile_decoder", spec.decoder)
        extra = ",".join(f"{key}={keyword[key]}" for key in sorted(keyword))
        return cls(
            code=spec.code,
            decoder=str(compile_decoder),
            noise=spec.noise,
            synthesis_shots=spec.budget.synthesis_shots,
            iterations_per_step=spec.budget.iterations_per_step,
            max_evaluations=spec.budget.max_evaluations,
            seed=spec.seed,
            scheduler="alphasyndrome" + (f":{extra}" if extra else ""),
        )


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentRun:
    """One named RunSpec execution inside a row (a 'cell')."""

    name: str
    spec: RunSpec


@dataclass(frozen=True)
class ExperimentRow:
    """One published table/figure row: named runs plus a derivation.

    ``derive`` receives a :class:`RowView` over the executed pipelines and
    returns the row dictionary in its published key order (the renderer
    takes column order from the first row).
    """

    key: str
    runs: "tuple[ExperimentRun, ...]"
    derive: "Callable[[RowView], dict]"

    def __post_init__(self) -> None:
        names = [run.name for run in self.runs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate run names in row {self.key!r}: {names}")

    def run_payloads(self) -> "list[tuple[str, dict]]":
        """``(name, spec payload)`` pairs for fingerprinting."""
        return [(run.name, run.spec.to_dict()) for run in self.runs]


class RowView:
    """Executed pipelines of one row, as seen by its ``derive`` callable."""

    def __init__(self, row: ExperimentRow, pipelines: "dict[str, Pipeline]") -> None:
        self._row = row
        self._pipelines = pipelines

    def pipeline(self, name: str) -> Pipeline:
        """The executed :class:`Pipeline` of run ``name`` (full stage access)."""
        return self._pipelines[name]

    def spec(self, name: str) -> RunSpec:
        """The :class:`RunSpec` run ``name`` executed."""
        return self._pipelines[name].spec

    def code(self, name: str):
        """The constructed code object of run ``name`` (n/k/d columns)."""
        return self._pipelines[name].code

    def rates(self, name: str):
        """The measured :class:`~repro.sim.LogicalErrorRates` of run ``name``."""
        return self._pipelines[name].rates

    def depth(self, name: str) -> int:
        """The schedule depth of run ``name``."""
        return self._pipelines[name].schedule.depth

    def result(self, name: str) -> RunResult:
        """The terminal :class:`RunResult` of run ``name``."""
        return self._pipelines[name].result


def comparison_row(
    code: str,
    decoder: str,
    config: SuiteConfig,
    *,
    noise: str = "brisbane",
    key: str | None = None,
) -> ExperimentRow:
    """AlphaSyndrome vs lowest-depth on one (code, decoder): Table 2's shape."""
    return ExperimentRow(
        key=key or f"{code}/{decoder}",
        runs=(
            ExperimentRun(
                "alpha",
                config.spec(
                    code=code, noise=noise, decoder=decoder, scheduler=synthesis_scheduler()
                ),
            ),
            ExperimentRun(
                "lowest",
                config.spec(
                    code=code, noise=noise, decoder=decoder, scheduler="lowest_depth"
                ),
            ),
        ),
        derive=_derive_comparison,
    )


def _derive_comparison(view: RowView) -> dict:
    code = view.code("alpha")
    spec = view.spec("alpha")
    alpha = view.rates("alpha")
    lowest = view.rates("lowest")
    reduction = 0.0
    if lowest.overall > 0:
        reduction = 1.0 - alpha.overall / lowest.overall
    return {
        "code": spec.code,
        "n": code.num_qubits,
        "k": code.num_logical_qubits,
        "d": code.declared_distance,
        "decoder": spec.decoder,
        "alpha_err_x": alpha.error_x,
        "alpha_err_z": alpha.error_z,
        "alpha_overall": alpha.overall,
        "alpha_depth": view.depth("alpha"),
        "lowest_err_x": lowest.error_x,
        "lowest_err_z": lowest.error_z,
        "lowest_overall": lowest.overall,
        "lowest_depth": view.depth("lowest"),
        "overall_reduction": reduction,
    }


# ----------------------------------------------------------------------
# Suite registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSuite:
    """A named builder of rows (one per paper table/figure)."""

    name: str
    build: "Callable[[SuiteConfig], Iterable[ExperimentRow]]"
    help: str = ""

    def rows(self, config: SuiteConfig) -> "list[ExperimentRow]":
        """The suite's rows under ``config`` (builder output, materialised)."""
        return list(self.build(config))


#: Registered suites by name.  Populated by the declaration modules
#: (``repro.experiments.table2`` ...), which ``repro.experiments`` imports —
#: import the package, not this module, to see them all.
SUITES: "dict[str, ExperimentSuite]" = {}


def register_suite(name: str, *, help: str = "") -> Callable:
    """Decorator registering a row builder as the suite ``name``."""

    def decorator(build: Callable) -> Callable:
        if name in SUITES:
            raise ValueError(f"duplicate experiment suite {name!r}")
        SUITES[name] = ExperimentSuite(name=name, build=build, help=help)
        return build

    return decorator


def get_suite(name: str) -> ExperimentSuite:
    """Resolve a registered suite by name.

    Raises
    ------
    KeyError
        If no suite of that name is registered (the message lists what is).
    """
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment suite {name!r}; available: {', '.join(available_suites())}"
        ) from None


def available_suites() -> "list[str]":
    """Sorted names of every registered suite."""
    return sorted(SUITES)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class SuiteRowError(RuntimeError):
    """A suite row failed.  Rows completed before it remain in the store."""

    def __init__(self, suite: str, key: str, error: BaseException) -> None:
        super().__init__(f"suite {suite!r} row {key!r} failed: {error}")
        self.suite = suite
        self.key = key
        self.error = error


@dataclass
class RowOutcome:
    """One completed (or store-replayed) row of a suite run."""

    key: str
    fingerprint: str
    row: dict
    results: "list[dict]" = field(default_factory=list)
    loaded: bool = False

    def _adaptive_sum(self, field_name: str) -> int:
        return sum(
            (result.get("adaptive") or {}).get(field_name, 0) for result in self.results
        )

    @property
    def cache_hits(self) -> int:
        """Chunk-cache replays across the row's runs (adaptive mode only)."""
        return self._adaptive_sum("cache_hits")

    @property
    def fresh_chunks(self) -> int:
        """Freshly sampled chunks across the row's runs (adaptive mode only)."""
        return self._adaptive_sum("fresh_chunks")

    def record(self) -> dict:
        """The artifact-store record of this outcome."""
        return {
            "key": self.key,
            "fingerprint": self.fingerprint,
            "row": self.row,
            "runs": self.results,
        }


@dataclass
class SuiteResult:
    """All row outcomes of one suite run plus the written artifact paths."""

    suite: str
    config: SuiteConfig
    outcomes: "list[RowOutcome]"
    rows_path: Path | None = None
    text_path: Path | None = None
    json_path: Path | None = None

    @property
    def rows(self) -> "list[dict]":
        """The published row dictionaries, in suite order."""
        return [outcome.row for outcome in self.outcomes]

    @property
    def executed(self) -> "list[RowOutcome]":
        """Outcomes that actually ran this time (not replayed from the store)."""
        return [outcome for outcome in self.outcomes if not outcome.loaded]

    @property
    def resumed(self) -> "list[RowOutcome]":
        """Outcomes replayed from the artifact store without re-execution."""
        return [outcome for outcome in self.outcomes if outcome.loaded]

    @property
    def cache_hits(self) -> int:
        """Chunk-cache replays summed over the executed rows (adaptive mode)."""
        return sum(outcome.cache_hits for outcome in self.executed)

    @property
    def fresh_chunks(self) -> int:
        """Freshly sampled chunks summed over the executed rows (adaptive mode)."""
        return sum(outcome.fresh_chunks for outcome in self.executed)

    def summary(self) -> str:
        """One-line human summary: row counts plus cache counters when adaptive."""
        parts = [
            f"{self.suite}: {len(self.outcomes)} rows"
            f" ({len(self.executed)} run, {len(self.resumed)} resumed)"
        ]
        if any((result.get("adaptive")) for o in self.executed for result in o.results):
            parts.append(
                f"cache_hits={self.cache_hits} fresh_chunks={self.fresh_chunks}"
            )
        return " ".join(parts)


class _RemoteRun:
    """Duck-typed stand-in for an executed :class:`Pipeline` in server mode.

    Built from a ``repro serve`` RunResult payload; exposes exactly the
    attributes :class:`RowView` reaches for (``spec``, ``code``, ``rates``,
    ``schedule.depth``, ``result``).  The reconstructed
    :class:`RunResult` round-trips to the served payload bit for bit, so
    artifact-store rows are identical whichever mode produced them.
    """

    def __init__(self, spec: RunSpec, payload: dict) -> None:
        self.spec = spec
        adaptive = payload.get("adaptive")
        shots_by_basis = converged = None
        if adaptive is not None:
            shots_by_basis = {
                basis: entry["shots"] for basis, entry in adaptive["bases"].items()
            }
            converged = adaptive["converged"]
        self.rates = LogicalErrorRates(
            error_x=payload["error_x"],
            error_z=payload["error_z"],
            shots=payload["shots"],
            depth=payload["depth"],
            shots_by_basis=shots_by_basis,
            converged=converged,
        )
        self.schedule = SimpleNamespace(depth=payload["depth"])
        self.result = RunResult(
            spec=spec,
            rates=self.rates,
            depth=payload["depth"],
            synthesis_evaluations=payload.get("synthesis_evaluations"),
            baseline_overall=payload.get("baseline_overall"),
            adaptive=adaptive,
        )

    @property
    def code(self):
        """The constructed code object (built locally; codes are cheap)."""
        from repro.api import registries

        return registries.codes.build(self.spec.code)


class SuiteRunner:
    """Executes suite rows: cached, parallel, adaptive and resumable.

    Parameters
    ----------
    config:
        The :class:`SuiteConfig` every row builder receives.
    cache:
        Optional :class:`repro.cache.ResultCache` (or its directory) handed
        to every pipeline; adaptive runs resume/refine chunk summaries from
        it with zero resampling of converged points.
    store:
        Optional :class:`~repro.experiments.artifacts.ArtifactStore` (or
        its directory).  With a store, completed rows are appended as they
        finish and replayed on the next run instead of re-executed.
    server:
        Optional ``repro serve`` endpoint (URL string or
        :class:`repro.serve.client.ServeClient`).  With a server, rows are
        not executed in this process: every cell is submitted as a job
        (identical cells across suites coalesce server-side) and results
        stream back — bit-identical to local execution, so resumed stores
        mix freely with either mode.  Each cell's result is awaited for at
        most :data:`SERVER_TIMEOUT` seconds.
    """

    def __init__(
        self,
        config: SuiteConfig | None = None,
        *,
        cache=None,
        store=None,
        server=None,
    ) -> None:
        self.config = config or SuiteConfig()
        if isinstance(cache, (str, Path)):
            from repro.cache import ResultCache

            cache = ResultCache(cache)
        self.cache = cache
        if isinstance(store, (str, Path)):
            store = ArtifactStore(store)
        self.store: ArtifactStore | None = store
        if isinstance(server, str):
            from repro.serve.client import ServeClient

            server = ServeClient(server)
        self.server = server
        #: SynthesisResult memo shared by every row this runner executes.
        self._syntheses: dict = {}

    @property
    def synthesis_searches(self) -> int:
        """Distinct AlphaSyndrome searches performed so far."""
        return len(self._syntheses)

    # ------------------------------------------------------------------
    def run_row(self, row: ExperimentRow) -> "tuple[dict, list[RunResult]]":
        """Execute one row's pipelines and derive its published dictionary."""
        if self.server is not None:
            return self._run_row_remote(row)
        pipelines: dict[str, Pipeline] = {}
        for run in row.runs:
            pipeline = Pipeline(run.spec, cache=self.cache)
            synth_key = SynthSpec.from_run_spec(run.spec)
            if synth_key is not None:
                if synth_key in self._syntheses:
                    # cached_property honours pre-seeded instance state:
                    # identical (deterministic) searches are never repeated.
                    pipeline.__dict__["_scheduled"] = self._syntheses[synth_key]
                else:
                    self._syntheses[synth_key] = pipeline._scheduled
            pipeline.run()
            pipelines[run.name] = pipeline
        view = RowView(row, pipelines)
        return row.derive(view), [pipelines[run.name].result for run in row.runs]

    def _run_row_remote(self, row: ExperimentRow) -> "tuple[dict, list[RunResult]]":
        """Run one row against the configured server.

        Every cell is submitted before any result is awaited, so the
        server's worker fleet runs a row's cells concurrently (and
        deduplicates cells shared with other rows or other clients).
        """
        job_ids = {
            run.name: self.server.submit(run.spec)["job"]["id"] for run in row.runs
        }
        remotes = {
            run.name: _RemoteRun(
                run.spec,
                self.server.result(job_ids[run.name], timeout=SERVER_TIMEOUT),
            )
            for run in row.runs
        }
        view = RowView(row, remotes)
        return row.derive(view), [remotes[run.name].result for run in row.runs]

    def run_rows(self, rows: "Iterable[ExperimentRow]") -> "list[dict]":
        """Execute ``rows`` (no store) and return their dictionaries."""
        return [self.run_row(row)[0] for row in rows]

    def run(self, suite: "ExperimentSuite | str", *, resume: bool = True) -> SuiteResult:
        """Run one suite end to end, resuming completed rows from the store."""
        if isinstance(suite, str):
            suite = get_suite(suite)
        rows = suite.rows(self.config)
        stored = self.store.load(suite.name) if (self.store is not None and resume) else {}
        outcomes: list[RowOutcome] = []
        for row in rows:
            fingerprint = row_fingerprint(suite.name, row.key, row.run_payloads())
            record = stored.get(fingerprint)
            if record is not None:
                outcomes.append(
                    RowOutcome(
                        key=row.key,
                        fingerprint=fingerprint,
                        row=record["row"],
                        results=record.get("runs", []),
                        loaded=True,
                    )
                )
                continue
            try:
                row_dict, results = self.run_row(row)
            except Exception as error:
                raise SuiteRowError(suite.name, row.key, error) from error
            outcome = RowOutcome(
                key=row.key,
                fingerprint=fingerprint,
                row=row_dict,
                results=[result.to_dict() for result in results],
            )
            if self.store is not None:
                self.store.append(suite.name, outcome.record())
            outcomes.append(outcome)
        result = SuiteResult(suite=suite.name, config=self.config, outcomes=outcomes)
        if self.store is not None:
            result.rows_path = self.store.rows_path(suite.name)
            result.text_path, result.json_path = self.store.render(suite.name, result.rows)
        return result


def run_suite(
    suite: "ExperimentSuite | str",
    config: SuiteConfig | None = None,
    *,
    cache=None,
    store=None,
    resume: bool = True,
) -> SuiteResult:
    """One-call convenience wrapper around :class:`SuiteRunner`."""
    return SuiteRunner(config, cache=cache, store=store).run(suite, resume=resume)
