"""The ``repro`` command-line interface.

Subcommands::

    repro run [spec.json] [overrides]   execute a full RunSpec end to end
    repro sweep [--grid f=v1,v2 ...]    run a spec grid, resumable JSONL output
    repro cache {ls,clear}              inspect / empty the chunk-result cache
    repro list {codes,decoders,noise,schedulers,samplers,all}
    repro experiments {run,ls,render}   declarative paper-table suites
    repro serve [--workers N ...]       run the execution service
    repro submit [spec.json] [overrides]  submit a RunSpec to a running server
    repro jobs [job_id]                 list / inspect jobs on a running server
    repro import FILE [--dem]           validate a stim text file, show a summary
    repro export [overrides] [--dem]    emit a spec's circuit/DEM as stim text

``import``/``export`` speak stim's circuit and detector-error-model text
formats (:mod:`repro.io`); an imported circuit file runs end to end via the
``stimfile`` code spec (``repro run --code stimfile:PATH``), with the
sampler axis, chunk cache and serve stack applying unchanged.

``submit``/``jobs`` find their server via ``--server`` or the
``REPRO_SERVER`` environment variable (default ``http://127.0.0.1:8642``,
the ``repro serve`` default bind).

``run``/``sweep`` accept ``--target-rse`` (with ``--max-shots`` /
``--confidence``) to switch evaluation to adaptive precision-targeted
sampling; adaptive runs resume from — and refine — the content-addressed
chunk cache under ``--cache-dir`` (``repro.cache``).

``run``/``sweep``/``submit``/``export`` build their RunSpec the same way:
flags override fields of the JSON spec when both are given, and each
budget field has exactly one flag (:data:`_BUDGET_FIELDS`).  Synthesis is
one choice of scheduler: ``repro run --scheduler alphasyndrome`` searches
under the budget's synthesis fields, then prints the synthesis summary
and the schedule it found.

Installed as a console script via the ``[project.scripts]`` table in
``pyproject.toml``; also runnable as ``python -m repro.api.cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.api.pipeline import Pipeline
from repro.api.registries import codes, decoders, noise, samplers, schedulers
from repro.api.spec import Budget, RunSpec, canonical_spec

__all__ = ["main", "add_budget_flags"]

_REGISTRIES = {
    "codes": codes,
    "decoders": decoders,
    "noise": noise,
    "schedulers": schedulers,
    "samplers": samplers,
}

#: Every Budget field with its flag, value caster and help text: the one
#: table behind the budget flags, their overrides and the ``--grid`` axes.
_BUDGET_FIELDS = {
    "shots": ("--shots", int, "evaluation shots per basis"),
    "synthesis_shots": ("--synthesis-shots", int, "shots used inside MCTS rollouts"),
    "iterations_per_step": ("--iterations", int, "MCTS iterations per scheduling step"),
    "max_evaluations": (
        "--max-evaluations",
        int,
        "cap on rollout evaluations per partition",
    ),
    "target_rse": (
        "--target-rse",
        float,
        "adaptive mode: stop sampling once the Wilson relative error of "
        "each basis rate reaches this target (e.g. 0.1 for 10%%)",
    ),
    "max_shots": (
        "--max-shots",
        int,
        "adaptive mode: per-basis shot ceiling (defaults to --shots); "
        "also fixes the deterministic chunk plan",
    ),
    "confidence": (
        "--confidence",
        float,
        "confidence level of the adaptive stopping rule (default 0.95)",
    ),
}
#: String-valued top-level RunSpec fields (``eval_stage`` is a grid axis only).
_COMPONENT_FIELDS = ("code", "noise", "scheduler", "decoder", "eval_stage", "sampler")
#: Integer-valued top-level RunSpec fields.
_INT_FIELDS = ("seed", "workers", "rounds")


def add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """Add one flag per budget field, plus ``--seed``."""
    for field, (flag, caster, help_text) in _BUDGET_FIELDS.items():
        parser.add_argument(flag, dest=field, type=caster, default=None, help=help_text)
    parser.add_argument("--seed", type=int, default=None, help="master seed")


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    """The RunSpec surface: an optional JSON file, then per-field overrides."""
    parser.add_argument("spec", nargs="?", default=None, help="path to a RunSpec JSON file")
    parser.add_argument("--code", default=None, help='code spec, e.g. "surface:d=5"')
    parser.add_argument("--noise", default=None, help='noise spec, e.g. "scaled:p=0.001"')
    parser.add_argument("--decoder", default=None, help='decoder spec, e.g. "mwpm"')
    parser.add_argument("--scheduler", default=None, help='scheduler spec, e.g. "lowest_depth"')
    parser.add_argument(
        "--workers", type=int, default=None, help="process-pool shards for sampling/decoding"
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="noisy syndrome rounds per memory experiment (default 1)",
    )
    parser.add_argument(
        "--sampler",
        default=None,
        help='sampling backend spec: "dem" (default), "frames" or "tableau"',
    )
    add_budget_flags(parser)


def _given(args: argparse.Namespace, fields) -> dict:
    """The values of ``fields`` that were set on the command line."""
    values = {field: getattr(args, field, None) for field in fields}
    return {field: value for field, value in values.items() if value is not None}


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    """Assemble the RunSpec: JSON file (if given) overridden by explicit flags."""
    spec = RunSpec.load(args.spec) if args.spec else RunSpec()
    spec = spec.replace(
        budget=spec.budget.replace(**_given(args, _BUDGET_FIELDS)),
        **_given(args, _COMPONENT_FIELDS + _INT_FIELDS),
    )
    _check_precision_flags(args, spec.budget)
    return spec


def _check_precision_flags(args: argparse.Namespace, budget: Budget) -> None:
    """Reject ``--max-shots``/``--confidence`` that would be silently ignored.

    The precision knobs only take effect in adaptive mode
    (``target_rse`` set — by flag, by the spec file, or by a ``--grid``
    axis); accepting them in fixed-shot mode would store them in the spec
    while sampling ``budget.shots`` anyway, a confusing no-op.
    """
    if budget.adaptive:
        return
    grid_fields = {
        _parse_grid_axis(axis)[0] for axis in getattr(args, "grid", None) or []
    }
    if "target_rse" in grid_fields:
        return
    given = [_BUDGET_FIELDS[name][0] for name in _given(args, ("max_shots", "confidence"))]
    given += [
        f"--grid {name}=..." for name in ("max_shots", "confidence") if name in grid_fields
    ]
    if given:
        raise ValueError(
            f"{' and '.join(given)} only take effect with --target-rse "
            "(adaptive mode); set a target (--target-rse or a target_rse "
            "grid axis) or drop them"
        )


#: Default cache directory of `repro run` / `repro sweep` / `repro cache`.
DEFAULT_CACHE_DIR = "results/cache"


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="content-addressed chunk-result cache directory (used by "
        "adaptive runs to resume and refine across processes)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the chunk-result cache for this invocation",
    )


def _cache_from_args(args: argparse.Namespace):
    """The ResultCache an adaptive run should use (None when disabled)."""
    if args.no_cache or not args.cache_dir:
        return None
    from repro.cache import ResultCache

    return ResultCache(args.cache_dir)


def _print_result(payload: dict) -> None:
    """Print a RunResult payload: the run, its rates and any adaptive report."""
    spec = payload["spec"]
    print(
        f"{spec['code']} | scheduler={spec['scheduler']} "
        f"decoder={spec['decoder']} noise={spec['noise']}"
    )
    print(
        f"  depth={payload['depth']} shots={payload['shots']} "
        f"err_x={payload['error_x']:.3e} err_z={payload['error_z']:.3e} "
        f"overall={payload['overall']:.3e}"
    )
    report = payload.get("adaptive")
    if report is not None:
        print(_adaptive_line(report))


def _adaptive_line(report: dict) -> str:
    """The indented ``adaptive:`` line of an adaptive run's report.

    The one spelling of the adaptive fields: `run`, `submit` and each
    `sweep` point print it.
    """
    shots = " ".join(
        f"{basis}={entry['shots']}" for basis, entry in sorted(report["bases"].items())
    )
    return (
        f"  adaptive: target_rse={report['target_rse']} "
        f"converged={report['converged']} shots[{shots}] "
        f"cache_hits={report['cache_hits']} fresh_chunks={report['fresh_chunks']}"
    )


def _write_out(out: str | None, text: str, what: str) -> None:
    """Write ``text`` to ``--out`` (making its directory) and say so."""
    if not out:
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"{what} written to {path}")


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    pipeline = Pipeline(_spec_from_args(args), cache=_cache_from_args(args))
    result = pipeline.result.to_dict()
    _print_result(result)
    synthesis = pipeline.synthesis
    if synthesis is not None:
        print(
            f"  synthesis: {synthesis.evaluations} rollout evaluations, "
            f"baseline overall {synthesis.baseline_rates.overall:.3e} "
            f"(reduction {synthesis.overall_reduction:.1%})"
        )
        print("schedule (tick -> checks):")
        for tick, check_list in sorted(pipeline.schedule.ticks().items()):
            rendered = ", ".join(
                f"S{check.stabilizer}:{check.pauli}@q{check.data_qubit}"
                for check in check_list
            )
            print(f"  tick {tick:>2}: {rendered}")
    _write_out(args.out, json.dumps(result, indent=2) + "\n", "result")
    return 0


def _parse_grid_axis(text: str) -> tuple[str, list[str]]:
    """Parse one ``--grid field=v1,v2`` axis.

    Values are split on ``|`` when present, otherwise on ``,`` — the pipe
    form exists for registry specs that themselves contain commas
    (``--grid 'code=bb:l=3,m=3|surface:d=5'``).
    """
    name, separator, values_text = text.partition("=")
    name = name.strip()
    split_on = "|" if "|" in values_text else ","
    values = [value.strip() for value in values_text.split(split_on) if value.strip()]
    if not separator or not name or not values:
        raise ValueError(f"--grid expects FIELD=V1,V2[,...], got {text!r}")
    return name, values


def _apply_grid_value(spec: RunSpec, name: str, value: str) -> RunSpec:
    if name in _COMPONENT_FIELDS:
        return spec.replace(**{name: value})
    if name in _INT_FIELDS:
        return spec.replace(**{name: int(value)})
    if name in _BUDGET_FIELDS:
        caster = _BUDGET_FIELDS[name][1]
        return spec.replace(budget=spec.budget.replace(**{name: caster(value)}))
    valid = ", ".join(_COMPONENT_FIELDS + _INT_FIELDS + tuple(_BUDGET_FIELDS))
    raise ValueError(f"unknown --grid field {name!r}; expected one of: {valid}")


def _spec_fingerprint(payload: dict) -> str:
    """Canonical JSON of a spec dict — the resume key of one sweep entry.

    The normalisation (drop ``workers``, round-trip through RunSpec so old
    rows keep matching as fields grow defaults) is shared with the suite
    artifact store via :func:`repro.api.spec.canonical_spec`.
    """
    return json.dumps(canonical_spec(payload), sort_keys=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run the cartesian grid of specs, appending one JSONL row per run.

    Completed specs already present in ``--out`` are skipped, so an
    interrupted sweep resumes where it stopped (re-running with the same
    flags is idempotent).
    """
    base = _spec_from_args(args)
    specs = [base]
    for axis in args.grid or []:
        name, values = _parse_grid_axis(axis)
        specs = [_apply_grid_value(spec, name, value) for spec in specs for value in values]
    out = Path(args.out)
    done: set[str] = set()
    if out.exists():
        for line in out.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from an interrupted run; re-run that spec
            if isinstance(payload, dict) and "spec" in payload:
                done.add(_spec_fingerprint(payload["spec"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    cache = _cache_from_args(args)
    ran = skipped = 0
    with out.open("a") as handle:
        for index, spec in enumerate(specs, start=1):
            if _spec_fingerprint(spec.to_dict()) in done:
                skipped += 1
                continue
            pipeline = Pipeline(spec, cache=cache)
            result = pipeline.result
            handle.write(json.dumps(result.to_dict()) + "\n")
            handle.flush()
            ran += 1
            print(
                f"[{index}/{len(specs)}] {spec.code} scheduler={spec.scheduler} "
                f"decoder={spec.decoder} noise={spec.noise} "
                f"overall={result.rates.overall:.3e}"
            )
            if result.adaptive is not None:
                print(_adaptive_line(result.adaptive))
    print(f"sweep done: {ran} run, {skipped} already in {out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (`ls`) or empty (`clear`) the chunk-result cache directory."""
    from repro.cache import ResultCache

    cache = ResultCache(args.dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached chunk(s) from {cache.root}")
        return 0
    entries = cache.entries()
    print(f"{len(entries)} cached chunk(s) in {cache.root}")
    for entry in entries:
        address = entry.get("address", {})
        spec = address.get("spec", {})
        print(
            f"  {entry.get('key', '?')[:12]}  {spec.get('code', '?')} "
            f"decoder={spec.get('decoder', '?')} noise={spec.get('noise', '?')} "
            f"seed={spec.get('seed', '?')} basis={address.get('basis', '?')} "
            f"chunk={address.get('chunk', '?')} shots={entry.get('shots', '?')} "
            f"errors={entry.get('errors', '?')}"
        )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    """List registered components with their spec syntax and help text.

    Each line shows the entry's full spec-string syntax — name plus
    parameter signature with defaults (``biased:p=0.001,eta=10.0,...``) —
    so spec strings are discoverable without reading source.
    """
    categories = list(_REGISTRIES) if args.category == "all" else [args.category]
    for category in categories:
        registry = _REGISTRIES[category]
        print(f"{category} ({len(registry)}):")
        for name in registry.available():
            entry = registry.entry(name)
            alias_note = (
                f" (aliases: {', '.join(entry.aliases)})" if entry.aliases and args.aliases else ""
            )
            help_note = f" - {entry.help}" if entry.help else ""
            print(f"  {entry.spec_syntax}{alias_note}{help_note}")
    return 0


def _suite_config_from_args(args: argparse.Namespace):
    """Build the SuiteConfig for `repro experiments run`."""
    from repro.experiments.suite import QUICK_BUDGET, SuiteConfig

    budget = QUICK_BUDGET.replace(**_given(args, _BUDGET_FIELDS))
    _check_precision_flags(args, budget)
    return SuiteConfig(
        budget=budget,
        seed=args.seed if args.seed is not None else 0,
        quick=args.quick,
        workers=args.workers,
    )


def run_assets(
    assets: list[str],
    config,
    out_dir: str | Path = "results",
    *,
    cache=None,
    resume: bool = True,
    server=None,
) -> list[Path]:
    """Regenerate ``assets``, print each table and return the written paths.

    One runner executes every asset of the :class:`SuiteConfig` ``config``,
    so AlphaSyndrome syntheses shared between suites (e.g. Table 2's and
    Table 4's ``hexagonal_color_d3``/``bposd`` search) run once.  Raises
    :class:`~repro.experiments.suite.SuiteRowError` on the first failed
    row: the rendered text/JSON views of the failed asset are not
    (re)written, so published artifacts are never silently partial, and
    completed rows stay in the JSONL log for the next invocation to resume.

    ``server`` (a ``repro serve`` URL or client) switches execution to a
    running service: cells become deduplicated jobs instead of in-process
    pipelines, with bit-identical rows either way.
    """
    from repro.experiments.artifacts import ArtifactStore
    from repro.experiments.suite import SuiteRunner

    runner = SuiteRunner(config, cache=cache, store=ArtifactStore(out_dir), server=server)
    paths = []
    for asset in assets:
        result = runner.run(asset, resume=resume)
        print(f"== {asset} ==")
        print(runner.store.render_text(result.rows))
        print(result.summary())
        print(f"written to {result.text_path}")
        paths.append(result.text_path)
    return paths


def _run_suites(assets: list[str], args: argparse.Namespace) -> int:
    """The executor of `repro experiments run`: exit 1 on a failed row."""
    from repro.experiments.suite import SuiteRowError

    try:
        run_assets(
            assets,
            _suite_config_from_args(args),
            args.out,
            cache=_cache_from_args(args),
            resume=not args.fresh,
            server=args.suite_server,
        )
    except SuiteRowError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    """The `repro experiments {run,ls,render}` suite surface."""
    # Imported lazily so `repro list` / `repro run` never pay for the
    # experiment-suite imports (importing the package registers the suites).
    from repro.experiments import available_suites
    from repro.experiments.artifacts import ArtifactStore

    if args.action == "ls":
        from repro.experiments.suite import SUITES

        print(f"experiment suites ({len(SUITES)}):")
        for name in available_suites():
            print(f"  {name} - {SUITES[name].help}")
        return 0
    names = available_suites() if args.suite == "all" else [args.suite]
    unknown = [name for name in names if name not in available_suites()]
    if unknown:
        print(
            f"unknown suite {unknown[0]!r}; available: "
            f"{', '.join(available_suites())}, all",
            file=sys.stderr,
        )
        return 2
    if args.action == "render":
        store = ArtifactStore(args.out)
        status = 0
        for name in names:
            rows = store.latest_rows(name)
            if not rows:
                print(f"no stored rows for {name!r} in {store.rows_path(name)}", file=sys.stderr)
                status = 2
                continue
            text_path, json_path = store.render(name, rows)
            print(f"{name}: {len(rows)} rows rendered to {text_path} and {json_path}")
        return status
    return _run_suites(names, args)


#: Default endpoint of `repro submit` / `repro jobs` (overridden by
#: ``--server`` or the ``REPRO_SERVER`` environment variable).
DEFAULT_SERVER = "http://127.0.0.1:8642"


def _add_server_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server",
        default=None,
        help=f"serve endpoint (default: $REPRO_SERVER or {DEFAULT_SERVER})",
    )


def _client_from_args(args: argparse.Namespace):
    """The ServeClient for ``--server`` / ``$REPRO_SERVER`` (lazy import)."""
    from repro.serve.client import ServeClient

    return ServeClient(args.server or os.environ.get("REPRO_SERVER") or DEFAULT_SERVER)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serve daemon in the foreground (`repro serve`)."""
    from repro.serve.__main__ import config_from_args, run_server

    return run_server(config_from_args(args))


def _format_progress(event: dict) -> str:
    rse = event.get("rse")
    rse_note = f" rse={rse:.3f}" if isinstance(rse, float) else ""
    converged = " converged" if event.get("converged") else ""
    return (
        f"  {event.get('basis', '?')}: chunk {event.get('chunks_done', 0)}"
        f"/{event.get('chunks_planned', 0)} shots={event.get('shots', 0)} "
        f"errors={event.get('errors', 0)} rate={event.get('rate', 0.0):.3e}"
        f"{rse_note}{converged}"
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a RunSpec to a running server; stream progress until done."""
    from repro.serve.client import ServeError

    client = _client_from_args(args)
    spec = _spec_from_args(args)
    try:
        submitted = client.submit(spec, priority=args.priority)
    except (ConnectionError, OSError) as error:
        print(
            f"error: cannot reach {client.base_url} ({error}); "
            "start a server with `repro serve`",
            file=sys.stderr,
        )
        return 2
    job = submitted["job"]
    note = "coalesced into" if submitted["coalesced"] else "queued as"
    print(f"{note} job {job['id']} (state={job['state']})")
    if args.no_wait:
        return 0
    result = None
    try:
        for event in client.events(job["id"]):
            kind = event.get("event")
            if kind == "progress":
                print(_format_progress(event))
            elif kind == "done":
                result = event["result"]
            elif kind == "failed":
                print(f"error: job failed: {event.get('error')}", file=sys.stderr)
                return 1
            elif kind == "job" and event["job"]["state"] == "done":
                result = client.result(job["id"], timeout=5.0)
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if result is None:  # stream ended without a terminal event
        result = client.result(job["id"], timeout=args.timeout)
    _print_result(result)
    _write_out(args.out, json.dumps(result, indent=2) + "\n", "result")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """List jobs on a running server, or show one job's full summary."""
    client = _client_from_args(args)
    try:
        if args.job_id:
            print(json.dumps(client.job(args.job_id), indent=2))
            return 0
        summaries = client.jobs()
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {client.base_url} ({error})", file=sys.stderr)
        return 2
    print(f"{len(summaries)} job(s) on {client.base_url}")
    for job in summaries:
        spec = job["spec"]
        progress = job["progress"]
        chunks_done = sum(basis["chunks_done"] for basis in progress.values())
        chunks_planned = sum(basis["chunks_planned"] for basis in progress.values())
        print(
            f"  {job['id']}  {job['state']:>7}  prio={job['priority']} "
            f"subs={job['submissions']} chunks={chunks_done}/{chunks_planned}  "
            f"{spec['code']} decoder={spec['decoder']} noise={spec['noise']} "
            f"seed={spec['seed']}"
        )
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    """Parse a stim text file, print a summary, optionally re-emit it.

    Parsing is the validation: a malformed or unsupported file raises
    :class:`~repro.io.StimFormatError` (naming the file and line), which
    :func:`main` turns into a one-line ``error:`` message and exit status 2.
    ``--out`` writes the parsed object back out in normal form (aliases
    canonicalised, REPEAT blocks flattened).
    """
    from repro.io import emit_stim_circuit, emit_stim_dem, load_stim_circuit, load_stim_dem

    if args.dem:
        dem = load_stim_dem(args.file)
        print(
            f"{args.file}: DEM with {dem.num_detectors} detector(s), "
            f"{dem.num_observables} observable(s), {dem.num_mechanisms} mechanism(s)"
        )
        text = emit_stim_dem(dem)
    else:
        circuit = load_stim_circuit(args.file)
        print(
            f"{args.file}: {circuit.num_qubits} qubit(s), "
            f"{len(circuit.instructions)} instruction(s), "
            f"{circuit.num_measurements} measurement(s), "
            f"{circuit.num_detectors} detector(s), "
            f"{circuit.num_observables} observable(s), {circuit.num_ticks} tick(s)"
        )
        print(f"  run it: repro run --code stimfile:{args.file}")
        text = emit_stim_circuit(circuit)
    _write_out(args.out, text, "normal form")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Emit a spec's generated circuit (or its DEM) as stim text.

    Builds the :class:`Pipeline` exactly as ``repro run`` would and writes
    the chosen basis artifact to ``--out``, or to stdout when no ``--out``
    is given (for piping).  The exported circuit re-imports bit-exactly:
    running it via ``--code stimfile:PATH`` reproduces the original run's
    ``error_x`` (both consume the first per-basis seed stream).
    """
    from repro.io import emit_stim_circuit, emit_stim_dem

    pipeline = Pipeline(_spec_from_args(args))
    artifact = pipeline.dem[args.basis] if args.dem else pipeline.circuit[args.basis]
    text = emit_stim_dem(artifact) if args.dem else emit_stim_circuit(artifact)
    if not args.out:
        sys.stdout.write(text)
        return 0
    kind = "DEM" if args.dem else "circuit"
    _write_out(args.out, text, f"basis-{args.basis} {kind} for {pipeline.spec.code}")
    return 0


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Assemble the full ``repro`` argument parser (every subcommand wired)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AlphaSyndrome reproduction: schedule synthesis, evaluation and discovery.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="execute a full RunSpec end to end")
    _add_spec_flags(run_parser)
    _add_cache_flags(run_parser)
    run_parser.add_argument("--out", default=None, help="write the RunResult JSON here")
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a grid of RunSpecs with resumable JSONL output"
    )
    _add_spec_flags(sweep_parser)
    sweep_parser.add_argument(
        "--grid",
        action="append",
        metavar="FIELD=V1,V2",
        help="sweep axis (repeatable; axes combine as a cartesian product); "
        "values split on ',' or on '|' for specs containing commas",
    )
    sweep_parser.add_argument(
        "--out", default="results/sweep.jsonl", help="JSONL output (appended; resumable)"
    )
    _add_cache_flags(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the chunk-result cache"
    )
    cache_parser.add_argument("action", choices=["ls", "clear"], help="what to do")
    cache_parser.add_argument(
        "--dir", default=DEFAULT_CACHE_DIR, help="cache directory to operate on"
    )
    cache_parser.set_defaults(func=_cmd_cache)

    list_parser = subparsers.add_parser("list", help="list registered components")
    list_parser.add_argument(
        "category", choices=sorted(_REGISTRIES) + ["all"], help="which registry to list"
    )
    list_parser.add_argument("--aliases", action="store_true", help="also show aliases")
    list_parser.set_defaults(func=_cmd_list)

    experiments_parser = subparsers.add_parser(
        "experiments", help="declarative paper-table suites (run/ls/render)"
    )
    experiments_sub = experiments_parser.add_subparsers(dest="action", required=True)

    exp_run = experiments_sub.add_parser(
        "run", help="execute a suite through the Pipeline/cache/adaptive stack"
    )
    # Suite names are validated at run time (lazy import keeps `repro --help`
    # fast); `all` runs every registered suite through one shared runner.
    exp_run.add_argument("suite", help="table2|table3|table4|figure7|...|all")
    scale = exp_run.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick",
        dest="quick",
        action="store_true",
        default=True,
        help="quick instance subsets and laptop-sized budgets (default)",
    )
    scale.add_argument(
        "--full",
        dest="quick",
        action="store_false",
        help="the full paper instance lists",
    )
    exp_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width for sampling/decoding and synthesis rollouts "
        "(never changes any number)",
    )
    add_budget_flags(exp_run)
    _add_cache_flags(exp_run)
    exp_run.add_argument(
        "--fresh",
        action="store_true",
        help="ignore rows already in the artifact store (re-run everything)",
    )
    exp_run.add_argument(
        "--server",
        dest="suite_server",
        default=None,
        help="run cells as jobs on this `repro serve` endpoint instead of in-process",
    )
    exp_run.add_argument("--out", default="results", help="artifact-store directory")
    exp_run.set_defaults(func=_cmd_experiments)

    exp_ls = experiments_sub.add_parser("ls", help="list the registered suites")
    exp_ls.set_defaults(func=_cmd_experiments)

    exp_render = experiments_sub.add_parser(
        "render", help="re-render text/JSON views from the stored JSONL rows"
    )
    exp_render.add_argument("suite", help="suite name or 'all'")
    exp_render.add_argument("--out", default="results", help="artifact-store directory")
    exp_render.set_defaults(func=_cmd_experiments)

    serve_parser = subparsers.add_parser(
        "serve", help="run the execution service (HTTP job queue, local workers)"
    )
    # Flags live next to the daemon so `python -m repro.serve` stays in sync.
    from repro.serve.__main__ import add_serve_flags

    add_serve_flags(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit", help="submit a RunSpec to a running `repro serve` endpoint"
    )
    _add_spec_flags(submit_parser)
    _add_server_flag(submit_parser)
    submit_parser.add_argument(
        "--priority", type=int, default=0, help="queue priority (higher runs first)"
    )
    submit_parser.add_argument(
        "--no-wait",
        action="store_true",
        help="return after queueing instead of streaming progress",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0, help="seconds to wait for the result"
    )
    submit_parser.add_argument("--out", default=None, help="write the RunResult JSON here")
    submit_parser.set_defaults(func=_cmd_submit)

    jobs_parser = subparsers.add_parser(
        "jobs", help="list or inspect jobs on a running `repro serve` endpoint"
    )
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None, help="show this job's full summary"
    )
    _add_server_flag(jobs_parser)
    jobs_parser.set_defaults(func=_cmd_jobs)

    import_parser = subparsers.add_parser(
        "import", help="validate a stim circuit/DEM text file and show a summary"
    )
    import_parser.add_argument("file", help="path to a stim .stim (or --dem .dem) text file")
    import_parser.add_argument(
        "--dem",
        action="store_true",
        help="parse as a detector error model instead of a circuit",
    )
    import_parser.add_argument(
        "--out", default=None, help="also write the parsed object back out in normal form"
    )
    import_parser.set_defaults(func=_cmd_import)

    export_parser = subparsers.add_parser(
        "export", help="emit a spec's generated circuit or DEM as stim text"
    )
    _add_spec_flags(export_parser)
    export_parser.add_argument(
        "--basis", choices=("Z", "X"), default="Z", help="which basis artifact to export"
    )
    export_parser.add_argument(
        "--dem",
        action="store_true",
        help="export the detector error model instead of the circuit",
    )
    export_parser.add_argument(
        "--out", default=None, help="output file (default: stdout, for piping)"
    )
    export_parser.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console-script entry point.

    Parses ``argv`` (default: ``sys.argv[1:]``), dispatches to the chosen
    subcommand and returns its exit status; user errors (unknown specs,
    bad flag combinations, missing files) print one-line messages and
    return 2 instead of raising.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, TypeError) as error:
        # Registry lookups raise KeyError with the available names; spec
        # parsing and argument binding raise ValueError; TypeError covers
        # values of the wrong type reaching a builder.  All are user
        # errors, not crashes.
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream consumer (`repro cache ls | head`) closed the pipe
        # mid-print.  Point stdout at devnull so the interpreter's exit
        # flush cannot raise again, and exit with the SIGPIPE convention.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    raise SystemExit(main())
