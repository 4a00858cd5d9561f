"""Fast checks of the benchmark's tracer and workloads (tiny budgets, no timing)."""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from repro.api import Budget, Pipeline  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    EvalWorkload,
    SynthWorkload,
    compare_rates,
    operations,
    reference_rates,
    run_op,
)

TINY_SYNTH = SynthWorkload(
    name="tiny_synth",
    code="surface:d=3",
    decoder="mwpm",
    noise="brisbane",
    nominal_op_s=1.0,
    budget=Budget(synthesis_shots=20, iterations_per_step=1, max_evaluations=3),
)
TINY_EVAL = EvalWorkload(
    name="tiny_eval",
    code="surface:d=3",
    scheduler="lowest_depth",
    decoder="mwpm",
    rounds=2,
    shots=64,
    nominal_op_s=1.0,
)


def _bindings() -> list:
    found = []
    for target, modules, _ in tracing.BINDINGS:
        *path, attr = target.split(".")
        for module_name in modules:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            found.append((owner, attr, vars(owner).get(attr)))
    return found


def _traced(workload):
    tracer = Tracer()
    with tracer.installed():
        result = run_op(workload, 7, tracer, None)
    return tracer, result


def test_every_binding_is_patched_and_restored():
    before = _bindings()
    with Tracer().installed():
        assert all(vars(owner).get(attr) is not saved for owner, attr, saved in before)
    assert all(vars(owner).get(attr) is saved for owner, attr, saved in before)


def test_missing_binding_fails_loudly_and_restores(monkeypatch):
    before = _bindings()
    missing = ("no_such_function", ["repro.sim.dem"], tracing._spanned("x", "y"))
    broken = tracing.BINDINGS + (missing,)
    monkeypatch.setattr(tracing, "BINDINGS", broken)
    with pytest.raises(AttributeError):
        with Tracer().installed():
            pass
    assert all(vars(owner).get(attr) is saved for owner, attr, saved in before)


@pytest.mark.parametrize("workload", [TINY_SYNTH, TINY_EVAL], ids=lambda w: w.name)
def test_traced_operation_reaches_every_expected_layer(workload):
    tracer, result = _traced(workload)
    layers = tracer.metrics()
    assert result.failure is None
    assert workload.expect(layers) is None
    # Self times partition the operation's span exactly.
    assert sum(tracer.self_times().values()) == pytest.approx(layers["trace.wall_s"])
    assert layers["trace.wall_s"] == pytest.approx(result.wall_s, abs=1e-3)


def test_synthesis_counters_match_the_untraced_operation():
    tracer, traced = _traced(TINY_SYNTH)
    untraced = run_op(TINY_SYNTH, 7, NullTracer(), None)
    layers = tracer.metrics()
    assert layers["core.evaluations"] == traced.evaluations == untraced.evaluations
    # Set-up evaluates the baseline: one miss outside the hot loop.
    misses_in_search = traced.shots // (2 * TINY_SYNTH.budget.synthesis_shots)
    assert layers["core.evaluator.misses"] == misses_in_search + 1
    assert 0 < layers["core.evaluator.hit_ratio"] < 1
    assert layers["sim.sampler.shots"] == layers["decoders.shots"]


def test_rate_comparison_accounts_for_both_samples():
    reference = {"error_x": 0.45, "error_z": 0.46, "shots_per_basis": 4096}
    assert compare_rates({"error_x": 232, "error_z": 235}, 512, reference) is None
    assert "error_z=0.5977" in compare_rates({"error_x": 232, "error_z": 306}, 512, reference)
    # At a timed run's pooled 6 x 512 shots, 0.53 against 0.45 is outside z=4.
    assert "error_x=0.5299" in compare_rates({"error_x": 1628, "error_z": 1413}, 3072, reference)


class _PredictNothing:
    """Decoder factory whose decoders predict no observable flip at all."""

    def __init__(self, dem):
        self.num_observables = dem.num_observables

    def decode_batch(self, detectors):
        return np.zeros((len(detectors), self.num_observables), dtype=np.uint8)


def test_bb18_run_check_rejects_a_decoder_that_predicts_nothing(monkeypatch):
    workload = WORKLOADS["eval_bb18_bposd"]
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # One operation holding a timed run's pooled shots.
    pooled = dataclasses.replace(
        workload, shots=workload.shots * operations(workload, benchmark["run_seconds"])
    )
    monkeypatch.setattr(Pipeline, "decoder_factory", _PredictNothing)
    result = run_op(pooled, 7, NullTracer(), None)
    failure = pooled.check_run([result], reference_rates(workload.name))
    assert failure is not None and "differs from the reference" in failure


def test_manifest_has_a_reference_for_every_eval_workload():
    manifest = json.loads((HERE / "manifest.json").read_text())
    for name, workload in WORKLOADS.items():
        assert (name in manifest["references"]) == isinstance(workload, EvalWorkload)


def test_declared_workloads_and_per_layer_metrics_match_the_code():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOADS)
    declared = benchmark["per_layer"]
    computed = set(Tracer().metrics()) | {"import_s", *worker.TRACE_METRICS}
    assert {metric["name"] for metric in declared} == computed


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth_surface_d3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
