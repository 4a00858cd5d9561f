#!/usr/bin/env python3
"""Regenerate the tracked benchmark manifest (``BENCH_<pr>.json``).

Times the same substrate components as ``benchmarks/test_bench_components.py``
— DEM extraction, dense vs packed sampling, decoder batch throughput — with
plain best-of-N ``time.perf_counter`` loops (no pytest-benchmark dependency)
and writes one JSON manifest to the repository root.  Committing one manifest
per PR keeps the performance trajectory visible in-repo, so speedups and
regressions show up in review instead of only on someone's laptop.

Usage:

    python scripts/make_bench_manifest.py --pr 6
    python scripts/make_bench_manifest.py --pr 6 --out BENCH_6.json --repeats 9

Numbers are machine-dependent; the manifest records the platform alongside
the timings so cross-PR comparisons are only made within one machine class.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
# The dense references live with the unit tests as oracles; import them by
# the same name (``oracles.sampler_reference``) as the tests do.
sys.path.append(str(REPO_ROOT / "tests"))

import numpy as np  # noqa: E402

from repro.api import codes, decoders  # noqa: E402
from repro.circuits import build_memory_experiment  # noqa: E402
from repro.noise import brisbane_noise  # noqa: E402
from repro.circuits.circuit import Circuit, Instruction  # noqa: E402
from repro.scheduling import google_surface_schedule, lowest_depth_schedule  # noqa: E402
from repro.sim import build_detector_error_model, sample_detector_error_model  # noqa: E402
from repro.io.stim_text import emit_stim_circuit, parse_stim_circuit  # noqa: E402
from repro.sim.frames import FrameSampler, TableauSampler  # noqa: E402
from repro.sim.tableau import simulate_circuit  # noqa: E402
from oracles.sampler_reference import sample_dense  # noqa: E402
from oracles.tableau_reference import simulate_circuit_dense  # noqa: E402


def _round(obj):
    """Round floats to 4 decimals recursively so the manifest diffs cleanly."""
    if isinstance(obj, float):
        return round(obj, 4)
    if isinstance(obj, dict):
        return {key: _round(value) for key, value in obj.items()}
    return obj


def best_of(func, repeats: int) -> float:
    """Best-of-N wall-clock seconds for ``func()`` (min over ``repeats`` runs)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


def surface_dem(distance: int):
    """The d=3 / d=5 surface-code DEMs the component benchmarks time."""
    code = codes.build(f"surface:d={distance}")
    if distance == 3:
        schedule, noisy_rounds = google_surface_schedule(code), 1
    else:
        schedule, noisy_rounds = lowest_depth_schedule(code), distance
    experiment = build_memory_experiment(
        code, schedule, brisbane_noise(), basis="Z", noisy_rounds=noisy_rounds
    )
    return experiment.circuit, build_detector_error_model(experiment.circuit)


def wide_clifford_circuit(num_qubits: int, ops: int, seed: int = 0) -> Circuit:
    """A random wide Clifford circuit (H/S/CNOT/M mix) for tableau timing."""
    rng = np.random.default_rng(seed)
    circuit = Circuit()
    circuit.append(Instruction("R", tuple(range(num_qubits))))
    circuit.append(Instruction("H", tuple(range(num_qubits))))
    for _ in range(ops):
        kind = rng.integers(0, 4)
        qubit = int(rng.integers(0, num_qubits))
        if kind == 0:
            circuit.append(Instruction("H", (qubit,)))
        elif kind == 1:
            circuit.append(Instruction("S", (qubit,)))
        elif kind == 2:
            other = int(rng.integers(0, num_qubits - 1))
            other += other >= qubit
            circuit.append(Instruction("CPAULI", (qubit, other), pauli="X"))
        else:
            circuit.append(Instruction("M", (qubit,)))
    circuit.append(Instruction("M", tuple(range(num_qubits))))
    return circuit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="PR number to stamp the manifest")
    parser.add_argument(
        "--out", type=Path, default=None, help="output path (default BENCH_<pr>.json)"
    )
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N repeats per timing")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="previous manifest to record decoder speedup ratios against "
        "(default BENCH_<pr-1>.json when it exists)",
    )
    args = parser.parse_args()
    out = args.out or REPO_ROOT / f"BENCH_{args.pr}.json"
    repeats = args.repeats
    baseline_path = args.baseline or REPO_ROOT / f"BENCH_{args.pr - 1}.json"
    baseline = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else None
    )

    benchmarks: dict[str, dict] = {}

    print("timing DEM extraction ...")
    circuit_d3, dem_d3 = surface_dem(3)
    circuit_d5, dem_d5 = surface_dem(5)
    benchmarks["dem_build_surface_d3"] = {
        "best_ms": best_of(lambda: build_detector_error_model(circuit_d3), repeats) * 1e3,
        "num_mechanisms": dem_d3.num_mechanisms,
    }
    benchmarks["dem_build_surface_d5_5rounds"] = {
        "best_ms": best_of(lambda: build_detector_error_model(circuit_d5), repeats) * 1e3,
        "num_mechanisms": dem_d5.num_mechanisms,
    }

    print("timing samplers (dense vs packed, d=5) ...")
    shots = 2048
    dense_detectors, _ = sample_dense(dem_d5, shots, seed=11)
    packed = sample_detector_error_model(dem_d5, shots, seed=11)
    assert np.array_equal(dense_detectors, packed.detectors), "packed sampler diverged"
    dense_s = best_of(lambda: sample_dense(dem_d5, shots, seed=11), repeats)
    packed_s = best_of(lambda: sample_detector_error_model(dem_d5, shots, seed=11), repeats)
    benchmarks["sampler_d5"] = {
        "shots": shots,
        "dense_ms": dense_s * 1e3,
        "packed_ms": packed_s * 1e3,
        "packed_speedup": dense_s / packed_s,
    }

    print("timing frame propagator vs per-shot tableau (d=3) ...")
    # The circuit-level sampling acceptance numbers: the batched Pauli-frame
    # propagator carries all shots as packed uint64 words (one vectorised
    # pass per instruction) against a full CHP tableau run per shot.
    frames = FrameSampler(circuit_d3)
    tableau = TableauSampler(circuit_d3)
    frame_shots, tableau_shots = 4096, 8
    frame_s = best_of(lambda: frames.sample(frame_shots, seed=0), repeats) / frame_shots
    tableau_s = best_of(lambda: tableau.sample(tableau_shots, seed=0), 3) / tableau_shots
    benchmarks["frame_propagator_d3"] = {
        "frame_shots": frame_shots,
        "frame_kshots_per_s": 1 / frame_s / 1e3,
        "tableau_shots_per_s": 1 / tableau_s,
        "frame_speedup_vs_tableau": tableau_s / frame_s,
    }

    print("timing packed vs dense tableau backends ...")
    # Gate/measure throughput of the two tableau storage backends.  The
    # packed backend's word-wide rowsums win with row width: dense keeps the
    # edge at d=3 scale (17 qubits fit one word either way, and uint8
    # columns are cheap), the packed backend pulls ahead past ~1000 qubits
    # where dense rowsums materialise megabyte int64 intermediates.
    tableau_widths: dict[str, dict] = {}
    for label, width, ops in (("d3_surface", 0, 0), ("wide_1024", 1024, 600)):
        if label == "d3_surface":
            target = circuit_d3
        else:
            target = wide_clifford_circuit(width, ops)
        packed_s = best_of(lambda: simulate_circuit(target, seed=0), 3)
        dense_s = best_of(lambda: simulate_circuit_dense(target, seed=0), 3)
        tableau_widths[label] = {
            "num_qubits": target.num_qubits,
            "packed_ms": packed_s * 1e3,
            "dense_ms": dense_s * 1e3,
            "packed_speedup": dense_s / packed_s,
        }
    benchmarks["tableau_packed_vs_dense"] = tableau_widths

    print("timing stim text parse/emit throughput (d=5, 5 rounds) ...")
    # The interop layer's hot path: `repro import` and the stimfile code
    # spec both funnel through parse_stim_circuit, so a parse-throughput
    # entry keeps text-format regressions on the same trajectory as the
    # samplers and decoders.
    stim_text = emit_stim_circuit(circuit_d5)
    parsed = parse_stim_circuit(stim_text)
    assert parsed == circuit_d5, "stim text round trip diverged"
    parse_s = best_of(lambda: parse_stim_circuit(stim_text), repeats)
    emit_s = best_of(lambda: emit_stim_circuit(circuit_d5), repeats)
    benchmarks["stim_text_surface_d5_5rounds"] = {
        "num_instructions": len(circuit_d5.instructions),
        "num_lines": stim_text.count("\n"),
        "parse_ms": parse_s * 1e3,
        "emit_ms": emit_s * 1e3,
        "parse_klines_per_s": stim_text.count("\n") / parse_s / 1e3,
    }

    print("timing decoder batch throughput (d=3) ...")
    # 200 shots matches the entry every manifest since BENCH_4 records, so
    # the cross-PR trajectory stays directly comparable.
    decode_batch = sample_detector_error_model(dem_d3, 200, seed=1)
    baseline_decoders = (
        baseline["benchmarks"].get("decoder_batch_d3", {}) if baseline else {}
    )
    decoder_times: dict[str, dict] = {}
    for name in ("mwpm", "unionfind", "bposd", "lookup"):
        decoder = decoders.build(name)(dem_d3)
        seconds = best_of(lambda: decoder.decode_batch(decode_batch.detectors), max(3, repeats - 2))
        entry = {
            "shots": decode_batch.num_shots,
            "best_ms": seconds * 1e3,
            "kshots_per_s": decode_batch.num_shots / seconds / 1e3,
        }
        previous = baseline_decoders.get(name, {}).get("kshots_per_s")
        if previous:
            entry["speedup_vs_bench%d" % baseline["pr"]] = (
                entry["kshots_per_s"] / previous
            )
        decoder_times[name] = entry
    benchmarks["decoder_batch_d3"] = decoder_times

    print("timing decoder batch vs per-shot loop (4096 shots, d=3) ...")
    # The batch-first acceptance numbers: dedup front end + vectorised
    # unique-block decode against a naive [decoder.decode(s) for s in batch]
    # loop.  4096 shots at Brisbane d=3 rates collapse to ~200 unique
    # syndromes, which is where the dedup front end earns its keep.
    loop_batch = sample_detector_error_model(dem_d3, 4096, seed=1)
    loop_slice = loop_batch.detectors[:128]
    loop_times: dict[str, dict] = {}
    for name in ("mwpm", "unionfind", "bposd", "lookup"):
        decoder = decoders.build(name)(dem_d3)
        loop_s = best_of(
            lambda: [decoder.decode(syndrome) for syndrome in loop_slice], 3
        ) / len(loop_slice)
        batch_s = best_of(
            lambda: decoder.decode_batch(loop_batch.detectors), max(3, repeats - 2)
        ) / loop_batch.num_shots
        loop_times[name] = {
            "shots": loop_batch.num_shots,
            "loop_kshots_per_s": 1 / loop_s / 1e3,
            "batch_kshots_per_s": 1 / batch_s / 1e3,
            "batch_speedup_vs_loop": loop_s / batch_s,
        }
    benchmarks["decoder_batch_vs_loop_4k_d3"] = loop_times

    print("timing vectorised lookup batch (20k shots, d=3) ...")
    lookup = decoders.build("lookup")(dem_d3)
    big_batch = sample_detector_error_model(dem_d3, 20000, seed=2)
    seconds = best_of(lambda: lookup.decode_batch(big_batch.detectors), repeats)
    benchmarks["lookup_batch_20k_d3"] = {
        "shots": big_batch.num_shots,
        "best_ms": seconds * 1e3,
        "kshots_per_s": big_batch.num_shots / seconds / 1e3,
    }

    manifest = {
        "pr": args.pr,
        "generated_by": "scripts/make_bench_manifest.py",
        "best_of": repeats,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "benchmarks": _round(benchmarks),
    }
    out.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
