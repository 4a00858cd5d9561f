"""Layer spans and counters recorded from outside the program.

The tracer wraps public functions of ``repro``'s layers at the module
attributes where callers look them up, because most callers import them by
name (``from repro.sim.dem import build_detector_error_model``): patching
only the defining module would miss every such call.  Each wrapper records a
span (name, op, parent, start, end); a layer's self time is the time its
spans cover minus the time their child spans cover.  Counters are computed
from the arguments and return values of the wrapped calls, inside a
``trace`` span so that their cost is attributed to tracing and not to the
layer that called.

Spans stay in memory; :meth:`Tracer.dump` writes them out after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np

#: Self-time metric of each span name.
SELF_METRICS = {
    "bench": "bench.self_s",
    "api.pipeline": "api.pipeline.self_s",
    "codes.build": "codes.build_s",
    "noise.build": "noise.build_s",
    "scheduling.build": "scheduling.build_s",
    "circuits.build": "circuits.build_s",
    "sim.dem.build": "sim.dem.build_s",
    "sim.sampler.sample": "sim.sampler.sample_s",
    "sim.estimator": "sim.estimator.self_s",
    "decoders.build": "decoders.build_s",
    "decoders.decode": "decoders.decode_s",
    "core.search": "core.search_self_s",
    "parallel": "parallel.self_s",
    "trace": "trace.counters_s",
}

#: Call-count metric of span names whose entries are counted.  A span nested
#: directly in a span of the same name (one binding calling another) is one
#: call.
CALL_METRICS = {
    "circuits.build": "circuits.calls",
    "sim.dem.build": "sim.dem.calls",
    "sim.sampler.sample": "sim.sampler.calls",
    "decoders.build": "decoders.builds",
}

class NullTracer:
    """Tracer stand-in for timed runs: spans cost one attribute lookup."""

    _null = nullcontext()

    def span(self, name: str, op: str = "") -> nullcontext:
        return self._null


class Tracer:
    """In-memory span recorder with counters, plus the binding patcher."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, op, parent index or None, start, end]
        self.counters: Counter = Counter()
        self.dem_sizes: list[tuple[int, int]] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, op: str = ""):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, op, parent, time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][4] = time.perf_counter()

    def caller(self) -> "tuple[str, str] | None":
        """(name, op) of the innermost open span that is not tracing's own."""
        for index in reversed(self._stack):
            name, op, *_ = self.spans[index]
            if name != "trace":
                return name, op
        return None

    def wrap(self, fn, name: "str | None", op: str, hook=None):
        """``fn`` inside a ``name`` span (none if ``name`` is None), then ``hook``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name, op):
                    result = fn(*args, **kwargs)
            if hook is not None:
                with self.span("trace", op):
                    hook(self, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Patch every binding in :data:`BINDINGS`; restore them all on exit.

        A binding that no longer exists raises ``AttributeError`` here, so a
        renamed function fails the traced run instead of reporting zeros.
        """
        restore = []
        try:
            for target, modules, make_wrapper in BINDINGS:
                *path, attr = target.split(".")
                for module_name in modules:
                    owner = importlib.import_module(module_name)
                    for part in path:
                        owner = getattr(owner, part)
                    saved = vars(owner).get(attr, _INHERITED)
                    setattr(owner, attr, make_wrapper(self, getattr(owner, attr)))
                    restore.append((owner, attr, saved))
            yield self
        finally:
            for owner, attr, saved in reversed(restore):
                if saved is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, saved)

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        child_time = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, op, parent, start, end) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def calls(self, name: str) -> int:
        return sum(
            1
            for span_name, op, parent, *_ in self.spans
            if span_name == name and (parent is None or self.spans[parent][0] != name)
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded (``import_s`` and the
        overhead are filled in by the caller)."""
        selfs = self.self_times()
        values = {metric: selfs.get(name, 0.0) for name, metric in SELF_METRICS.items()}
        for name, metric in CALL_METRICS.items():
            values[metric] = self.calls(name)
        count = self.counters
        dems = len(self.dem_sizes)
        values["sim.dem.mechanisms"] = sum(m for m, _ in self.dem_sizes) / dems if dems else 0.0
        values["sim.dem.detectors"] = sum(d for _, d in self.dem_sizes) / dems if dems else 0.0
        values["sim.sampler.shots"] = count["sampler_shots"]
        shots = count["decoded_shots"]
        values["decoders.shots"] = shots
        values["decoders.unique_ratio"] = count["unique_syndromes"] / shots if shots else 0.0
        values["decoders.mean_defects"] = count["defects"] / shots if shots else 0.0
        values["decoders.share_over_8_defects"] = count["over_8_defects"] / shots if shots else 0.0
        values["core.evaluations"] = count["evaluations"]
        misses = self.calls("sim.estimator")
        values["core.evaluator.misses"] = misses
        lookups = count["evaluator_lookups"]
        values["core.evaluator.hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
        values["parallel.chunks"] = count["chunks"]
        roots = [end - start for _, _, parent, start, end in self.spans if parent is None]
        values["trace.wall_s"] = sum(roots)
        return values

    def dump(self, path) -> None:
        """Write the spans as JSON (parent is an index into the list)."""
        keys = ("name", "op", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


# ----------------------------------------------------------------------
# Counter hooks: (tracer, args, kwargs, result) -> None
# ----------------------------------------------------------------------
def _dem_built(tracer, args, kwargs, dem) -> None:
    tracer.dem_sizes.append((dem.num_mechanisms, dem.num_detectors))


def _sampled(tracer, args, kwargs, batch) -> None:
    tracer.counters["sampler_shots"] += batch.num_shots


def _decoded(tracer, args, kwargs, predictions) -> None:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    if batch.num_shots == 0:
        return
    rows = batch.packed_detectors if batch.packed_detectors is not None else batch.detectors
    defects = batch.detectors.sum(axis=1, dtype=np.int64)
    counters = tracer.counters
    counters["decoded_shots"] += batch.num_shots
    counters["unique_syndromes"] += len(np.unique(rows, axis=0))
    counters["defects"] += int(defects.sum())
    counters["over_8_defects"] += int(np.count_nonzero(defects > 8))


def _chunks(tracer, args, kwargs, sizes) -> None:
    tracer.counters["chunks"] += len(sizes)


def _evaluated_many(tracer, args, kwargs, rates) -> None:
    tracer.counters["evaluator_lookups"] += len(rates)


def _evaluated(tracer, args, kwargs, rates) -> None:
    # evaluate_many calls evaluate for its misses; those lookups are counted
    # once, by the evaluate_many hook.
    if tracer.caller() != ("core.search", "evaluate_many"):
        tracer.counters["evaluator_lookups"] += 1


def _synthesized(tracer, args, kwargs, result) -> None:
    tracer.counters["evaluations"] += result.evaluations


class _TracedFactory:
    """Decoder factory whose constructions are ``decoders.build`` spans."""

    def __init__(self, tracer: Tracer, factory) -> None:
        self.tracer = tracer
        self.factory = factory

    def __call__(self, dem):
        with self.tracer.span("decoders.build", "construct"):
            return self.factory(dem)


def _factories(tracer: Tracer, build):
    """Wrap the decoder registry's ``build`` so every factory it returns is traced."""

    @functools.wraps(build)
    def traced_build(*args, **kwargs):
        return _TracedFactory(tracer, build(*args, **kwargs))

    return traced_build


def _spanned(name: "str | None", op: str, hook=None):
    return lambda tracer, fn: tracer.wrap(fn, name, op, hook)


_INHERITED = object()

#: (attribute path, modules that bind it, wrapper maker).  Most functions are
#: imported by name into their callers, so each such module is listed.
BINDINGS = (
    ("codes.build", ["repro.api.registries"], _spanned("codes.build", "registry")),
    ("noise.build", ["repro.api.registries"], _spanned("noise.build", "registry")),
    ("schedulers.build", ["repro.api.registries"], _spanned("scheduling.build", "registry")),
    ("decoders.build", ["repro.api.registries"], _factories),
    (
        "lowest_depth_schedule",
        ["repro.scheduling.baselines", "repro.scheduling", "repro.core.alphasyndrome"],
        _spanned("scheduling.build", "lowest_depth"),
    ),
    (
        "partition_stabilizers",
        ["repro.scheduling.partition", "repro.scheduling", "repro.core.alphasyndrome"],
        _spanned("scheduling.build", "partition"),
    ),
    (
        "build_memory_experiment",
        [
            "repro.circuits.memory",
            "repro.circuits",
            "repro.api.pipeline",
            "repro.sim.estimator",
            "repro.core.evaluator",
        ],
        _spanned("circuits.build", "memory"),
    ),
    (
        "build_detector_error_model",
        [
            "repro.sim.dem",
            "repro.sim",
            "repro.api.pipeline",
            "repro.sim.estimator",
            "repro.core.evaluator",
        ],
        _spanned("sim.dem.build", "dem", _dem_built),
    ),
    (
        "sample_detector_error_model",
        ["repro.sim.sampler", "repro.sim", "repro.sim.estimator", "repro.parallel"],
        _spanned("sim.sampler.sample", "dem", _sampled),
    ),
    (
        "decode_predictions",
        ["repro.sim.estimator", "repro.sim", "repro.parallel"],
        _spanned("decoders.decode", "batch", _decoded),
    ),
    (
        "estimate_logical_error_rates",
        ["repro.sim.estimator", "repro.sim", "repro.core.evaluator"],
        _spanned("sim.estimator", "estimate"),
    ),
    (
        "sample_and_decode",
        ["repro.parallel", "repro.api.pipeline"],
        _spanned("parallel", "sample_and_decode"),
    ),
    ("chunk_sizes", ["repro.parallel"], _spanned(None, "chunk_sizes", _chunks)),
    (
        "AlphaSyndrome.synthesize",
        ["repro.core.alphasyndrome"],
        _spanned("core.search", "synthesize", _synthesized),
    ),
    ("PartitionMCTS.search", ["repro.core.mcts"], _spanned("core.search", "search")),
    (
        "ScheduleEvaluator.evaluate_many",
        ["repro.core.evaluator"],
        _spanned("core.search", "evaluate_many", _evaluated_many),
    ),
    (
        "ScheduleEvaluator.evaluate",
        ["repro.core.evaluator"],
        _spanned("core.search", "evaluate", _evaluated),
    ),
)
