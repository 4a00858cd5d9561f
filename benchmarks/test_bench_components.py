"""Micro-benchmarks of the substrate components and design-choice ablations.

These benchmarks time the individual stages of the pipeline (DEM extraction,
sampling, each decoder) and exercise the design choices called out in
DESIGN.md for ablation: MCTS subtree reuse on/off, evaluation objective, and
rollout shot budget.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.api import codes, decoders
from repro.circuits import build_memory_experiment
from repro.core import MCTSConfig, PartitionMCTS, ScheduleEvaluator
from repro.noise import brisbane_noise
from repro.scheduling import checks_of_code, google_surface_schedule, lowest_depth_schedule
from repro.sim import build_detector_error_model, sample_detector_error_model
from repro.sim.frames import FrameSampler, TableauSampler


@pytest.fixture(scope="module")
def surface_circuit():
    code = codes.build("surface:d=3")
    experiment = build_memory_experiment(
        code, google_surface_schedule(code), brisbane_noise(), basis="Z"
    )
    return experiment.circuit


@pytest.fixture(scope="module")
def surface_dem(surface_circuit):
    return build_detector_error_model(surface_circuit)


@pytest.fixture(scope="module")
def surface_d5_dem():
    """d=5 surface code with d noisy rounds — the standard memory-experiment
    scale the paper's evaluation loop pays for on every MCTS rollout."""
    code = codes.build("surface:d=5")
    experiment = build_memory_experiment(
        code, lowest_depth_schedule(code), brisbane_noise(), basis="Z", noisy_rounds=5
    )
    return build_detector_error_model(experiment.circuit)


class TestComponentThroughput:
    def test_dem_extraction_surface_d3(self, benchmark):
        code = codes.build("surface:d=3")
        experiment = build_memory_experiment(
            code, google_surface_schedule(code), brisbane_noise(), basis="Z"
        )
        dem = benchmark(build_detector_error_model, experiment.circuit)
        assert dem.num_mechanisms > 0

    def test_dem_extraction_color_d5(self, benchmark):
        code = codes.build("color:d=5")
        experiment = build_memory_experiment(
            code, lowest_depth_schedule(code), brisbane_noise(), basis="Z"
        )
        dem = benchmark.pedantic(
            build_detector_error_model, args=(experiment.circuit,), rounds=1, iterations=1
        )
        assert dem.num_detectors == 2 * code.num_stabilizers

    def test_sampler_throughput(self, benchmark, surface_dem):
        batch = benchmark(sample_detector_error_model, surface_dem, 2000, seed=0)
        assert batch.num_shots == 2000

    def test_sampler_packed_throughput_d5(self, benchmark, surface_d5_dem):
        batch = benchmark(
            sample_detector_error_model, surface_d5_dem, 2048, seed=0, backend="packed"
        )
        assert batch.num_shots == 2048

    def test_sampler_packed_vs_dense_speedup_d5(self, surface_d5_dem):
        """Acceptance: the bit-packed sampler is >= 5x the dense int64 path
        at a d=5-scale DEM while remaining bit-identical for a fixed stream.

        Timed with a best-of-N ``perf_counter`` loop (not the ``benchmark``
        fixture) so the check also executes under ``--benchmark-disable``
        quick mode in CI.  The full >=5x gate only arms when
        ``REPRO_BENCH_ASSERT_SPEEDUP`` is set (the dedicated bench-quick CI
        job); in the ordinary test matrix, where a noisy shared runner could
        compress a wall-clock ratio, it relaxes to "packed is faster".
        Locally the measured ratio is ~15x.
        """
        shots = 2048

        dense = sample_detector_error_model(surface_d5_dem, shots, seed=11, backend="dense")
        packed = sample_detector_error_model(surface_d5_dem, shots, seed=11, backend="packed")
        # Both backends XOR the sampler's one fault draw for this stream.
        priors = surface_d5_dem.priors
        fired = np.random.default_rng(11).random((shots, len(priors))) < priors
        check = surface_d5_dem.check_matrix.T.astype(np.int64)
        expected = (fired.astype(np.int64) @ check) % 2
        assert np.array_equal(dense.detectors, expected.astype(np.uint8))
        assert np.array_equal(dense.detectors, packed.detectors)
        assert np.array_equal(dense.observables, packed.observables)

        def best_of(func, repeats=9):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                func()
                times.append(time.perf_counter() - start)
            return min(times)

        dense_time = best_of(
            lambda: sample_detector_error_model(surface_d5_dem, shots, seed=11, backend="dense")
        )
        packed_time = best_of(
            lambda: sample_detector_error_model(surface_d5_dem, shots, seed=11, backend="packed")
        )
        speedup = dense_time / packed_time
        print(f"\nsampler d=5: dense {dense_time * 1e3:.1f}ms "
              f"packed {packed_time * 1e3:.1f}ms speedup {speedup:.1f}x")
        required = 5.0 if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") else 1.0
        assert speedup >= required

    def test_frame_sampler_throughput(self, benchmark, surface_circuit):
        sampler = FrameSampler(surface_circuit)
        batch = benchmark(sampler.sample, 4096, seed=0)
        assert batch.detectors.shape == (4096, surface_circuit.num_detectors)

    def test_frame_vs_tableau_speedup_d3(self, surface_circuit):
        """Acceptance: batched Pauli-frame propagation is >= 5x a per-shot
        stabilizer-tableau run of the same circuit at a realistic batch size.

        The frame propagator carries all shots as packed uint64 words and
        makes one vectorised pass per instruction; the tableau sampler pays
        a full CHP simulation per shot.  Timed with best-of-N
        ``perf_counter`` loops so the check also executes under
        ``--benchmark-disable`` quick mode in CI; the hard >=5x gate arms
        only under ``REPRO_BENCH_ASSERT_SPEEDUP`` (the bench-quick CI job)
        and relaxes to "frames are faster" in the ordinary matrix.  Locally
        the measured ratio is ~7000x, so the floor has enormous slack.
        """
        frames = FrameSampler(surface_circuit)
        tableau = TableauSampler(surface_circuit)
        shots, tableau_shots = 4096, 8

        batch = frames.sample(shots, seed=0)
        assert batch.detectors.shape == (shots, surface_circuit.num_detectors)

        def best_of(func, repeats=5):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                func()
                times.append(time.perf_counter() - start)
            return min(times)

        frame_time = best_of(lambda: frames.sample(shots, seed=0)) / shots
        tableau_time = best_of(
            lambda: tableau.sample(tableau_shots, seed=0), repeats=3
        ) / tableau_shots
        speedup = tableau_time / frame_time
        print(f"\nframes d=3: {1 / frame_time / 1e3:.0f} kshots/s vs tableau "
              f"{1 / tableau_time:.0f} shots/s, speedup {speedup:.0f}x")
        required = 5.0 if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") else 1.0
        assert speedup >= required

    @pytest.mark.parametrize("decoder_name", ["mwpm", "bposd"])
    def test_decoder_batch_vs_loop_speedup(self, surface_dem, decoder_name):
        """Acceptance: the batch-first decoder stack is >= 5x a naive
        per-shot ``decode`` loop for MWPM and BP+OSD at a realistic batch
        size, while staying bit-identical to that loop.

        The gain comes from the shared packed-dedup front end (a 4096-shot
        d=3 batch at Brisbane rates collapses to ~200 unique syndromes)
        plus each decoder's vectorised unique-block path (enumerated-pairing
        matching, reduceat-segmented BP).  Timed with best-of-N
        ``perf_counter`` loops so the check also executes under
        ``--benchmark-disable`` quick mode; the hard >=5x gate arms only
        under ``REPRO_BENCH_ASSERT_SPEEDUP`` (the bench-quick CI job) and
        relaxes to "batch is faster" in the ordinary matrix.  Locally the
        measured ratios are ~40x (mwpm) and ~12x (bposd).
        """
        shots = 4096
        decoder = decoders.build(decoder_name)(surface_dem)
        batch = sample_detector_error_model(surface_dem, shots, seed=1)
        loop_slice = batch.detectors[:128]

        reference = np.array(
            [decoder.decode(syndrome) for syndrome in loop_slice], dtype=np.uint8
        )
        assert np.array_equal(decoder.decode_batch(batch.detectors)[:128], reference)

        def best_of(func, repeats=5):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                func()
                times.append(time.perf_counter() - start)
            return min(times)

        loop_time = best_of(
            lambda: [decoder.decode(syndrome) for syndrome in loop_slice], repeats=3
        ) / len(loop_slice)
        batch_time = best_of(lambda: decoder.decode_batch(batch.detectors)) / shots
        speedup = loop_time / batch_time
        print(f"\n{decoder_name} d=3 {shots} shots: loop {1 / loop_time / 1e3:.1f} "
              f"kshots/s batch {1 / batch_time / 1e3:.1f} kshots/s speedup {speedup:.1f}x")
        required = 5.0 if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") else 1.0
        assert speedup >= required

    @pytest.mark.parametrize("decoder_name", ["mwpm", "unionfind", "bposd", "lookup"])
    def test_decoder_throughput(self, benchmark, surface_dem, decoder_name):
        decoder = decoders.build(decoder_name)(surface_dem)
        batch = sample_detector_error_model(surface_dem, 200, seed=1)
        predictions = benchmark.pedantic(
            decoder.decode_batch, args=(batch.detectors,), rounds=1, iterations=1
        )
        assert predictions.shape == batch.observables.shape

    def test_lookup_decode_batch_vectorized(self, benchmark, surface_dem):
        """Micro-benchmark of the NumPy-indexed LookupDecoder.decode_batch.

        The vectorised path packs syndromes into uint64 keys and resolves
        the whole batch with one searchsorted; the assertion pins it to the
        per-shot reference on a slice of the batch.
        """
        decoder = decoders.build("lookup")(surface_dem)
        batch = sample_detector_error_model(surface_dem, 20000, seed=2)
        predictions = benchmark(decoder.decode_batch, batch.detectors)
        reference = np.array(
            [decoder.decode(syndrome) for syndrome in batch.detectors[:200]], dtype=np.uint8
        )
        assert np.array_equal(predictions[:200], reference)


class TestAblations:
    def _search(self, *, reuse: bool, objective: str = "inverse", shots: int = 80) -> tuple:
        code = codes.build("steane")
        evaluator = ScheduleEvaluator(
            code=code,
            noise=brisbane_noise(),
            decoder_factory=decoders.build("lookup"),
            shots=shots,
            seed=0,
            objective=objective,
        )
        checks = tuple(c for c in checks_of_code(code) if c.pauli == "X")
        search = PartitionMCTS(
            evaluator=evaluator,
            checks=checks,
            compose=lambda schedule: _complete(code, schedule),
            config=MCTSConfig(iterations_per_step=3, seed=0, reuse_subtree=reuse),
        )
        schedule, _ = search.search()
        return schedule, search.evaluations_used

    def test_ablation_subtree_reuse(self, benchmark):
        _, evaluations_with_reuse = benchmark.pedantic(
            self._search, kwargs={"reuse": True}, rounds=1, iterations=1
        )
        _, evaluations_without = self._search(reuse=False)
        assert evaluations_with_reuse <= evaluations_without

    def test_ablation_objective(self, benchmark):
        schedule, _ = benchmark.pedantic(
            self._search, kwargs={"reuse": True, "objective": "neg_log"}, rounds=1, iterations=1
        )
        schedule.validate(require_complete=False)

    def test_ablation_rollout_shots(self, benchmark):
        schedule, _ = benchmark.pedantic(
            self._search, kwargs={"reuse": True, "shots": 30}, rounds=1, iterations=1
        )
        schedule.validate(require_complete=False)


def _complete(code, partial):
    """Complete a partial (X-partition) schedule with the Z checks appended
    in lowest-depth order so the evaluator always sees a full round."""
    from repro.scheduling import lowest_depth_schedule

    full = partial.copy()
    offset = full.depth
    baseline = lowest_depth_schedule(code)
    for check, tick in baseline.assignment.items():
        if check not in full.assignment and check.pauli == "Z":
            full.assignment[check] = tick + offset
    return full
