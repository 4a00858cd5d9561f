"""Micro-benchmarks of the substrate components and a search ablation.

These benchmarks time the individual stages of the pipeline (DEM extraction,
sampling, each decoder) and run one MCTS search at a reduced rollout shot
budget.
"""

from __future__ import annotations

import os
import time
from unittest import mock

import numpy as np
import pytest
from oracles.bposd_reference import ReferenceBPOSDDecoder
from oracles.dem_reference import build_detector_error_model as reference_dem
from oracles.frame_program_reference import ReferenceFrameProgram
from oracles.lookup_reference import ReferenceLookupDecoder
from oracles.matching_reference import ReferenceMWPMDecoder
from oracles.sampler_reference import sample_dense

import repro.sim.dem
from repro.api import codes, decoders
from repro.circuits import build_memory_experiment
from repro.core import MCTSConfig, PartitionMCTS, ScheduleEvaluator
from repro.noise import brisbane_noise
from repro.scheduling import checks_of_code, google_surface_schedule, lowest_depth_schedule
from repro.sim import build_detector_error_model, sample_detector_error_model
from repro.sim.bitops import unpack_rows
from repro.sim.frames import FrameSampler, TableauSampler


def _best_of(func, repeats):
    """Fastest of ``repeats`` wall-clock timings of ``func()``, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


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

    def test_dem_extraction_bb72(self, benchmark):
        """DEM extraction at ``bb_72_12_6`` size, where the paper's BB claim
        matters (lowest-depth schedule, basis Z).  Timed once, no gate."""
        code = codes.build("bb_72_12_6")
        experiment = build_memory_experiment(
            code, lowest_depth_schedule(code), brisbane_noise(), basis="Z"
        )
        dem = benchmark.pedantic(
            build_detector_error_model, args=(experiment.circuit,), rounds=1, iterations=1
        )
        assert dem.num_detectors == 2 * code.num_stabilizers

    def test_bposd_bb72_block(self, benchmark):
        """BP+OSD on a 256-row unique block of ``bb_72_12_6`` (lowest-depth
        schedule, basis Z), the bivariate-bicycle size of the paper's
        Figure 13, where the DEM's 14,270 edges give 8-shot tiles.  Timed
        once, no gate."""
        code = codes.build("bb_72_12_6")
        dem = build_detector_error_model(
            build_memory_experiment(
                code, lowest_depth_schedule(code), brisbane_noise(), basis="Z"
            ).circuit
        )
        sampled = sample_detector_error_model(dem, 1024, seed=5).detectors
        block = np.ascontiguousarray(np.unique(sampled, axis=0)[:256].astype(np.uint8))
        assert block.shape[0] == 256
        decoder = decoders.build("bposd")(dem)
        predictions = benchmark.pedantic(
            decoder._decode_unique, args=(block,), rounds=1, iterations=1
        )
        assert predictions.shape == (256, dem.num_observables)

    def test_dem_one_pass_vs_reference_speedup_bb18(self):
        """Acceptance: the DEM builder (one backward sensitivity replay over
        the compiled circuit) is >= 5x the per-mechanism reference builder
        on ``bb_18`` (basis Z).

        Only the ratio is asserted, never an absolute time; both sides are
        best-of-N ``perf_counter`` loops on the same host, so the check
        also runs under ``--benchmark-disable``.  ``bb_18`` keeps the
        oracle's cost near 0.4 s.  The two builders' equality is pinned in
        ``tests/test_dem_kernel.py``.
        """
        code = codes.build("bb_18")
        circuit = build_memory_experiment(
            code, lowest_depth_schedule(code), brisbane_noise(), basis="Z"
        ).circuit

        replay = _best_of(lambda: build_detector_error_model(circuit), repeats=7)
        per_mechanism = _best_of(lambda: reference_dem(circuit), repeats=2)
        speedup = per_mechanism / replay
        print(f"\nDEM bb_18: reference {per_mechanism * 1e3:.0f}ms replay "
              f"{replay * 1e3:.1f}ms speedup {speedup:.1f}x")
        assert speedup >= 5.0

    def test_frame_program_fused_vs_reference_speedup_d3(self):
        """Acceptance: the moment-fused frame program builds the surface
        d=3 DEM (lowest-depth schedule, basis Z) >= 1.3x faster than the
        per-instruction reference program, with an equal mechanism list.

        This is the DEM every synthesis rollout builds on a cache miss.
        Best-of-N ``perf_counter`` timings, alternating the two sides; the hard >=1.3x
        gate arms only under ``REPRO_BENCH_ASSERT_SPEEDUP`` (the bench-quick
        CI job) and relaxes to "fused is not slower" in the ordinary
        matrix.  Bit-identity of DEMs and sampler batches on many more
        circuits is pinned in ``tests/test_frame_program.py``.
        """
        code = codes.build("surface:d=3")
        circuit = build_memory_experiment(
            code, lowest_depth_schedule(code), brisbane_noise(), basis="Z"
        ).circuit

        def reference_build():
            with mock.patch.object(repro.sim.dem, "FrameProgram", ReferenceFrameProgram):
                return build_detector_error_model(circuit)

        assert build_detector_error_model(circuit).mechanisms == reference_build().mechanisms
        # Alternate the two builds so host load drifts hit both sides alike.
        fused, reference = float("inf"), float("inf")
        for _ in range(50):
            fused = min(fused, _best_of(lambda: build_detector_error_model(circuit), repeats=1))
            reference = min(reference, _best_of(reference_build, repeats=1))
        speedup = reference / fused
        print(f"\nDEM surface d=3: per-instruction {reference * 1e3:.2f}ms "
              f"fused {fused * 1e3:.2f}ms speedup {speedup:.2f}x")
        required = 1.3 if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") else 1.0
        assert speedup >= required

    def test_bposd_kernel_vs_reference_speedup_bb18(self):
        """Acceptance: the tiled, compacting BP+OSD kernel decodes a
        128-row ``bb_18`` unique block >= 2x faster than the whole-block
        reference decoder, and >= 4x under ``REPRO_BENCH_ASSERT_SPEEDUP``
        (the bench-quick CI job).

        Only the ratio is asserted, with best-of-N ``perf_counter``
        timings that alternate the two sides so host load drifts hit both
        alike; the oracle side costs about 1 s.  Each round takes the cheap
        kernel side best of 5, so one slow spell on a shared host cannot
        set all of its samples.  Locally the measured
        ratio is ~7.8-8.2x with the shot-major kernel (~5.5-7.5x with the
        edge-major one, 3.1-3.9x before the degree-class message sums).
        Equality of posteriors, hard decisions and predictions is pinned
        in ``tests/test_bposd_kernel.py``.
        """
        code = codes.build("bb_18")
        dem = build_detector_error_model(
            build_memory_experiment(
                code, lowest_depth_schedule(code), brisbane_noise(), basis="Z"
            ).circuit
        )
        sampled = sample_detector_error_model(dem, 1024, seed=5).detectors
        block = np.ascontiguousarray(np.unique(sampled, axis=0)[:128].astype(np.uint8))
        assert block.shape[0] == 128
        kernel = decoders.build("bposd")(dem)
        oracle = ReferenceBPOSDDecoder(dem)

        tiled, whole_block = float("inf"), float("inf")
        for _ in range(3):
            tiled = min(tiled, _best_of(lambda: kernel._decode_unique(block), repeats=5))
            whole_block = min(
                whole_block, _best_of(lambda: oracle._decode_unique(block), repeats=1)
            )
        speedup = whole_block / tiled
        print(f"\nBP+OSD bb_18 128 rows: reference {whole_block * 1e3:.0f}ms "
              f"kernel {tiled * 1e3:.0f}ms speedup {speedup:.1f}x")
        assert speedup >= 2.0
        if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP"):
            assert speedup >= 4.0

    def test_mwpm_construction_vs_reference_speedup_d3(self, surface_dem):
        """Acceptance: the array-backed MWPM construction builds the surface
        d=3 decoder >= 2x faster than the networkx reference, with equal
        distance and parity arrays.

        This is the build every synthesis rollout pays for on a fresh DEM.
        Best-of-N ``perf_counter`` timings, alternating the two sides; the hard >=2x
        gate arms only under ``REPRO_BENCH_ASSERT_SPEEDUP`` (the bench-quick
        CI job) and relaxes to "array build is faster" in the ordinary
        matrix.  Locally the measured ratio is ~2.5-3.5x.  Bit-identity on many
        more DEMs is pinned in ``tests/test_matching_kernel.py``.
        """
        kernel = decoders.build("mwpm")(surface_dem)
        oracle = ReferenceMWPMDecoder(surface_dem)
        assert np.array_equal(kernel._distance, oracle._distance)
        assert np.array_equal(kernel._parity, oracle._parity)

        build = decoders.build("mwpm")
        # Alternate the two builds so host load drifts hit both sides alike.
        array_time, reference_time = float("inf"), float("inf")
        for _ in range(20):
            array_time = min(array_time, _best_of(lambda: build(surface_dem), repeats=1))
            reference_time = min(
                reference_time, _best_of(lambda: ReferenceMWPMDecoder(surface_dem), repeats=1)
            )
        speedup = reference_time / array_time
        print(f"\nMWPM build d=3: reference {reference_time * 1e3:.2f}ms "
              f"array {array_time * 1e3:.2f}ms speedup {speedup:.1f}x")
        required = 2.0 if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") else 1.0
        assert speedup >= required

    def test_mwpm_decode_vs_reference_speedup_d5(self, surface_d5_dem):
        """The int-indexed blossom against networkx's, end to end: MWPM
        decodes 1,024 surface d=5 r=5 shots (about three in four with more
        than 8 defects, so most reach blossom) with predictions equal to
        the networkx reference decoder's.

        Only the ratio is asserted: the kernel side best of two runs
        around one reference run (about 6 s), so host load drifts hit both
        alike.  Ten full-file runs measured 3.6-4.7x; the armed gate under
        ``REPRO_BENCH_ASSERT_SPEEDUP`` (the bench-quick CI job) is 2x and
        the ordinary matrix only asks for "faster".
        """
        syndromes = sample_detector_error_model(surface_d5_dem, 1024, seed=5).detectors
        kernel = decoders.build("mwpm")(surface_d5_dem)
        oracle = ReferenceMWPMDecoder(surface_d5_dem)

        predictions = {}

        def run_kernel():
            predictions["kernel"] = kernel.decode_batch(syndromes)

        def run_oracle():
            predictions["oracle"] = oracle.decode_batch(syndromes)

        kernel_time = _best_of(run_kernel, repeats=1)
        reference_time = _best_of(run_oracle, repeats=1)
        kernel_time = min(kernel_time, _best_of(run_kernel, repeats=1))
        assert np.array_equal(predictions["kernel"], predictions["oracle"])
        speedup = reference_time / kernel_time
        print(f"\nMWPM decode d=5 r=5 1024 shots: reference {reference_time:.2f}s "
              f"kernel {kernel_time:.2f}s speedup {speedup:.2f}x")
        required = 2.0 if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") else 1.0
        assert speedup >= required

    def test_lookup_build_vs_reference_speedup(self, surface_dem):
        """Acceptance: the vectorised lookup table build is >= 5x faster
        than the reference loop over ``itertools.combinations`` on the
        surface d=3 DEM at ``max_order=2``, with an equal table.

        Best-of-N ``perf_counter`` timings, alternating the two sides; the
        hard >=5x gate arms only under ``REPRO_BENCH_ASSERT_SPEEDUP`` (the
        bench-quick CI job) and relaxes to "the vectorised build is faster"
        in the ordinary matrix.  Locally the measured ratio is ~10-15x.
        Table identity on many more DEMs is pinned in
        ``tests/test_lookup_table.py``.
        """
        build = decoders.build("lookup:max_order=2")
        table = build(surface_dem)
        oracle = ReferenceLookupDecoder(surface_dem, max_order=2)
        rows = unpack_rows(table._packed_keys, surface_dem.num_detectors)
        assert {
            row.tobytes(): correction.tobytes()
            for row, correction in zip(rows, table._packed_corrections)
        } == {key: entry[1].tobytes() for key, entry in oracle._table.items()}

        # Alternate the two builds so host load drifts hit both sides alike.
        vector_time, reference_time = float("inf"), float("inf")
        for _ in range(10):
            vector_time = min(vector_time, _best_of(lambda: build(surface_dem), repeats=1))
            reference_time = min(
                reference_time,
                _best_of(lambda: ReferenceLookupDecoder(surface_dem, max_order=2), repeats=1),
            )
        speedup = reference_time / vector_time
        print(f"\nLookup build d=3: reference {reference_time * 1e3:.2f}ms "
              f"vectorised {vector_time * 1e3:.2f}ms speedup {speedup:.1f}x")
        required = 5.0 if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") else 1.0
        assert speedup >= required

    def test_sampler_throughput(self, benchmark, surface_dem):
        batch = benchmark(sample_detector_error_model, surface_dem, 2000, seed=0)
        assert batch.num_shots == 2000

    def test_sampler_packed_throughput_d5(self, benchmark, surface_d5_dem):
        batch = benchmark(sample_detector_error_model, surface_d5_dem, 2048, seed=0)
        assert batch.num_shots == 2048

    def test_sampler_packed_vs_dense_speedup_d5(self, surface_d5_dem):
        """Acceptance: the bit-packed sampler is >= 5x the dense int64 oracle
        (``tests/oracles/sampler_reference.py``) at a d=5-scale DEM while
        remaining bit-identical for a fixed stream.

        Timed with a best-of-N ``perf_counter`` loop (not the ``benchmark``
        fixture) so the check also executes under ``--benchmark-disable``
        quick mode in CI.  The full >=5x gate only arms when
        ``REPRO_BENCH_ASSERT_SPEEDUP`` is set (the dedicated bench-quick CI
        job); in the ordinary test matrix, where a noisy shared runner could
        compress a wall-clock ratio, it relaxes to "packed is faster".
        Locally the measured ratio is ~15x.
        """
        shots = 2048

        dense_detectors, dense_observables = sample_dense(surface_d5_dem, shots, seed=11)
        packed = sample_detector_error_model(surface_d5_dem, shots, seed=11)
        # Both XOR the sampler's one fault draw for this stream.
        priors = surface_d5_dem.priors
        fired = np.random.default_rng(11).random((shots, len(priors))) < priors
        check = surface_d5_dem.check_matrix.T.astype(np.int64)
        expected = (fired.astype(np.int64) @ check) % 2
        assert np.array_equal(dense_detectors, expected.astype(np.uint8))
        assert np.array_equal(dense_detectors, packed.detectors)
        assert np.array_equal(dense_observables, packed.observables)

        dense_time = _best_of(
            lambda: sample_dense(surface_d5_dem, shots, seed=11), repeats=9
        )
        packed_time = _best_of(
            lambda: sample_detector_error_model(surface_d5_dem, shots, seed=11), repeats=9
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

        frame_time = _best_of(lambda: frames.sample(shots, seed=0), repeats=5) / shots
        tableau_time = _best_of(
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

        loop_time = _best_of(
            lambda: [decoder.decode(syndrome) for syndrome in loop_slice], repeats=3
        ) / len(loop_slice)
        batch_time = _best_of(lambda: decoder.decode_batch(batch.detectors), repeats=5) / shots
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
        """Micro-benchmark of LookupDecoder.decode_batch.

        The shared front end packs the batch and deduplicates it; the
        unique syndromes resolve against the sorted table with one
        searchsorted.  The assertion pins it to the per-shot reference on
        a slice of the batch.
        """
        decoder = decoders.build("lookup")(surface_dem)
        batch = sample_detector_error_model(surface_dem, 20000, seed=2)
        predictions = benchmark(decoder.decode_batch, batch.detectors)
        reference = np.array(
            [decoder.decode(syndrome) for syndrome in batch.detectors[:200]], dtype=np.uint8
        )
        assert np.array_equal(predictions[:200], reference)


class TestAblations:
    def _search(self, *, shots: int = 80) -> tuple:
        code = codes.build("steane")
        evaluator = ScheduleEvaluator(
            code=code,
            noise=brisbane_noise(),
            decoder_factory=decoders.build("lookup"),
            shots=shots,
            seed=0,
        )
        checks = tuple(c for c in checks_of_code(code) if c.pauli == "X")
        search = PartitionMCTS(
            evaluator=evaluator,
            checks=checks,
            compose=lambda schedule: _complete(code, schedule),
            config=MCTSConfig(iterations_per_step=3, seed=0),
        )
        schedule, _ = search.search()
        return schedule, search.evaluations_used

    def test_ablation_rollout_shots(self, benchmark):
        schedule, _ = benchmark.pedantic(
            self._search, kwargs={"shots": 30}, rounds=1, iterations=1
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
