"""The batched Pauli-frame sampler: realisation pins and agreement nets.

Four layers of guarantees:

* **Per-channel realisation pins** — tiny hand-built circuits where a
  noise instruction fires with probability one (or carries a single-mass
  channel), so the frame update is deterministic and can be asserted bit
  for bit, including through H/S/CPAULI/SWAP conjugation and resets.
* **Frame-vs-tableau equality** — injecting *identical explicit* Pauli
  errors (p=1 channels) must give the same detector/observable flips from
  :class:`FrameSampler` and the per-shot :class:`TableauSampler`.
* **Frame-vs-DEM statistical agreement** — on real noisy memory circuits
  the frame propagator and the DEM mechanism sampler estimate the same
  logical error rate within overlapping Wilson intervals at fixed seeds.
* **Engine integration** — fixed seeds give bit-identical batches, the
  chunked pool stays worker-count invariant under ``sampler="frames"``,
  and the spec serialisation keeps legacy payloads/cache addresses valid.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.stats import wilson_halfwidth
from repro.api import Budget, Pipeline, RunSpec, registries
from repro.api.cli import main
from repro.api.spec import canonical_spec
from repro.cache import chunk_address
from repro.circuits.circuit import Circuit, Instruction
from repro.sim.frames import FrameSampler, TableauSampler
from repro.sim.sampler import DemSampler, sample_detector_error_model


def _measured_circuit(instructions, *, num_qubits=1, basis="M"):
    """R all; <instructions>; measure all; one detector per measurement."""
    circuit = Circuit()
    qubits = tuple(range(num_qubits))
    circuit.append(Instruction("R", qubits))
    for instruction in instructions:
        circuit.append(instruction)
    circuit.append(Instruction(basis, qubits))
    for record in range(num_qubits):
        circuit.append(Instruction("DETECTOR", targets=(record,)))
    return circuit


def _detector_flips(circuit, shots=3, seed=0):
    """All shots' detector rows; asserts every shot agrees (deterministic)."""
    detectors = FrameSampler(circuit).sample(shots, seed=seed).detectors
    assert (detectors == detectors[0]).all(), "expected a deterministic frame"
    return detectors[0].tolist()


class TestChannelRealisations:
    """p=1 / single-mass channels give exactly the documented frame flips."""

    def test_x_error_flips_z_readout(self):
        circuit = _measured_circuit([Instruction("X_ERROR", (0,), probability=1.0)])
        assert _detector_flips(circuit) == [1]

    def test_z_error_invisible_in_z_readout(self):
        circuit = _measured_circuit([Instruction("Z_ERROR", (0,), probability=1.0)])
        assert _detector_flips(circuit) == [0]

    def test_z_error_flips_x_readout(self):
        circuit = _measured_circuit(
            [Instruction("Z_ERROR", (0,), probability=1.0)], basis="MX"
        )
        assert _detector_flips(circuit) == [1]

    def test_y_error_flips_both_readouts(self):
        for basis in ("M", "MX"):
            circuit = _measured_circuit(
                [Instruction("Y_ERROR", (0,), probability=1.0)], basis=basis
            )
            assert _detector_flips(circuit) == [1]

    def test_hadamard_conjugates_z_into_x(self):
        circuit = _measured_circuit(
            [Instruction("Z_ERROR", (0,), probability=1.0), Instruction("H", (0,))]
        )
        assert _detector_flips(circuit) == [1]

    def test_s_turns_x_into_y(self):
        # S X S^dag = Y: still measurement-flipping in Z, now also in X.
        circuit = _measured_circuit(
            [Instruction("X_ERROR", (0,), probability=1.0), Instruction("S", (0,))],
            basis="MX",
        )
        assert _detector_flips(circuit) == [1]

    def test_cnot_copies_x_onto_target(self):
        circuit = _measured_circuit(
            [
                Instruction("X_ERROR", (0,), probability=1.0),
                Instruction("CPAULI", (0, 1), pauli="X"),
            ],
            num_qubits=2,
        )
        assert _detector_flips(circuit) == [1, 1]

    def test_cz_kicks_z_onto_control(self):
        # X on target, then CZ: the control picks up a Z (visible under MX).
        circuit = _measured_circuit(
            [
                Instruction("X_ERROR", (1,), probability=1.0),
                Instruction("CPAULI", (0, 1), pauli="Z"),
            ],
            num_qubits=2,
            basis="MX",
        )
        assert _detector_flips(circuit) == [1, 0]

    def test_swap_moves_the_frame(self):
        circuit = _measured_circuit(
            [
                Instruction("X_ERROR", (0,), probability=1.0),
                Instruction("SWAP", (0, 1)),
            ],
            num_qubits=2,
        )
        assert _detector_flips(circuit) == [0, 1]

    def test_reset_clears_the_frame(self):
        circuit = _measured_circuit(
            [Instruction("X_ERROR", (0,), probability=1.0), Instruction("R", (0,))]
        )
        assert _detector_flips(circuit) == [0]

    @pytest.mark.parametrize(
        "probabilities,z_flips,x_flips",
        [((1.0, 0.0, 0.0), 1, 0), ((0.0, 1.0, 0.0), 1, 1), ((0.0, 0.0, 1.0), 0, 1)],
    )
    def test_pauli_channel_1_single_mass(self, probabilities, z_flips, x_flips):
        for basis, expected in (("M", z_flips), ("MX", x_flips)):
            circuit = _measured_circuit(
                [Instruction("PAULI_CHANNEL_1", (0,), probabilities=probabilities)],
                basis=basis,
            )
            assert _detector_flips(circuit) == [expected]

    @pytest.mark.parametrize(
        "mass_index,expected_z,expected_x",
        [
            (0, [0, 1], [0, 0]),   # (I, X)
            (4, [1, 1], [0, 0]),   # (X, X)
            (10, [1, 0], [1, 1]),  # (Y, Z)
        ],
    )
    def test_pauli_channel_2_single_mass(self, mass_index, expected_z, expected_x):
        probabilities = tuple(1.0 if i == mass_index else 0.0 for i in range(15))
        for basis, expected in (("M", expected_z), ("MX", expected_x)):
            circuit = _measured_circuit(
                [Instruction("PAULI_CHANNEL_2", (0, 1), probabilities=probabilities)],
                num_qubits=2,
                basis=basis,
            )
            assert _detector_flips(circuit) == expected

    def test_depolarize1_marginals(self):
        # p=1 depolarizing: X/Y/Z equiprobable, so the Z readout flips with
        # probability 2/3 (X or Y component).  Statistical pin at 8192 shots.
        circuit = _measured_circuit([Instruction("DEPOLARIZE1", (0,), probability=1.0)])
        detectors = FrameSampler(circuit).sample(8192, seed=3).detectors
        flips = int(detectors.sum())
        assert abs(flips / 8192 - 2 / 3) < 4 * wilson_halfwidth(flips, 8192)

    def test_depolarize2_marginals(self):
        # p=1 two-qubit depolarizing: each half flips the Z readout iff its
        # letter is X or Y — 8 of the 15 pairs per half.
        circuit = _measured_circuit(
            [Instruction("DEPOLARIZE2", (0, 1), probability=1.0)], num_qubits=2
        )
        detectors = FrameSampler(circuit).sample(8192, seed=4).detectors
        for column in range(2):
            flips = int(detectors[:, column].sum())
            assert abs(flips / 8192 - 8 / 15) < 4 * wilson_halfwidth(flips, 8192)

    def test_repeated_qubit_rejected(self):
        circuit = Circuit()
        circuit.append(Instruction("R", (0, 1)))
        circuit.instructions.append(Instruction("H", (0, 0)))  # bypass append checks
        with pytest.raises(ValueError, match="repeats a qubit"):
            FrameSampler(circuit)


def _inject(circuit: Circuit, insertions) -> Circuit:
    """Copy ``circuit`` with p=1 Pauli errors inserted at given positions."""
    instructions = list(circuit.instructions)
    for position, name, qubit in sorted(insertions, reverse=True):
        instructions.insert(position, Instruction(name, (qubit,), probability=1.0))
    return Circuit(instructions)


class TestFrameVersusTableau:
    """Identical explicit Pauli errors → identical flips from both engines."""

    @pytest.mark.parametrize(
        "insertions",
        [
            [(4, "X_ERROR", 0)],
            [(8, "Z_ERROR", 3)],
            [(4, "Y_ERROR", 5), (15, "X_ERROR", 2)],
            [(6, "X_ERROR", 1), (6, "Z_ERROR", 1), (20, "Y_ERROR", 7)],
        ],
    )
    def test_deterministic_injections_agree(self, insertions):
        pipeline = Pipeline(
            RunSpec(code="surface:d=3", noise="noiseless", budget=Budget(shots=1))
        )
        for basis in ("Z", "X"):
            noisy = _inject(pipeline.circuit[basis], insertions)
            frame_batch = FrameSampler(noisy).sample(5, seed=0)
            tableau_batch = TableauSampler(noisy).sample(1, seed=0)
            assert np.array_equal(frame_batch.detectors[0], tableau_batch.detectors[0])
            assert np.array_equal(
                frame_batch.observables[0], tableau_batch.observables[0]
            )
            # Deterministic noise: every frame shot is the same row.
            assert (frame_batch.detectors == frame_batch.detectors[0]).all()

    def test_tableau_modes_agree_batchwise(self):
        pipeline = Pipeline(
            RunSpec(code="surface:d=3", noise="brisbane", budget=Budget(shots=1))
        )
        circuit = pipeline.circuit["Z"]
        packed = TableauSampler(circuit, mode="packed").sample(6, seed=9)
        dense = TableauSampler(circuit, mode="dense").sample(6, seed=9)
        assert np.array_equal(packed.detectors, dense.detectors)
        assert np.array_equal(packed.observables, dense.observables)


class TestFrameVersusDem:
    def test_detection_rates_within_wilson(self):
        """Frames and the DEM sampler see the same circuit-level statistics."""
        pipeline = Pipeline(
            RunSpec(code="surface:d=3", noise="brisbane", rounds=2, budget=Budget(shots=1))
        )
        shots = 4096
        for basis in ("Z", "X"):
            circuit, dem = pipeline.circuit[basis], pipeline.dem[basis]
            frame_hits = int(FrameSampler(circuit, dem).sample(shots, seed=7).detectors.sum())
            dem_hits = int(DemSampler(circuit, dem).sample(shots, seed=7).detectors.sum())
            trials = shots * circuit.num_detectors
            tolerance = wilson_halfwidth(frame_hits, trials) + wilson_halfwidth(
                dem_hits, trials
            )
            assert abs(frame_hits - dem_hits) / trials <= tolerance

    def test_logical_error_rates_within_wilson(self):
        """End-to-end: ``sampler="frames"`` and the default DEM path estimate
        the same logical error rate within overlapping Wilson intervals."""
        spec = RunSpec(
            code="surface:d=3",
            noise="brisbane",
            decoder="lookup",
            scheduler="lowest_depth",
            seed=9,
            budget=Budget(shots=4096),
        )
        dem_rates = Pipeline(spec).rates
        frame_rates = Pipeline(spec.replace(sampler="frames")).rates
        for attribute in ("error_z", "error_x"):
            dem_rate = getattr(dem_rates, attribute)
            frame_rate = getattr(frame_rates, attribute)
            tolerance = wilson_halfwidth(
                int(dem_rate * 4096), 4096
            ) + wilson_halfwidth(int(frame_rate * 4096), 4096)
            assert abs(dem_rate - frame_rate) <= tolerance

    def test_fixed_seed_bit_identical(self):
        pipeline = Pipeline(
            RunSpec(code="surface:d=3", noise="brisbane", budget=Budget(shots=1))
        )
        sampler = FrameSampler(pipeline.circuit["Z"], pipeline.dem["Z"])
        first = sampler.sample(200, seed=42)
        second = sampler.sample(200, seed=42)
        assert np.array_equal(first.detectors, second.detectors)
        assert np.array_equal(first.observables, second.observables)
        assert np.array_equal(first.packed_detectors, second.packed_detectors)
        assert not np.array_equal(
            first.detectors, sampler.sample(200, seed=43).detectors
        )

    def test_packed_detectors_match_unpacked(self):
        from repro.sim.bitops import pack_rows

        pipeline = Pipeline(
            RunSpec(code="surface:d=3", noise="brisbane", budget=Budget(shots=1))
        )
        batch = FrameSampler(pipeline.circuit["Z"]).sample(130, seed=1)
        assert batch.detectors.shape[0] == 130
        assert np.array_equal(batch.packed_detectors, pack_rows(batch.detectors))
        assert batch.observables.shape == (130, pipeline.circuit["Z"].num_observables)

    def test_zero_shots_batch_is_well_formed(self):
        pipeline = Pipeline(
            RunSpec(code="surface:d=3", noise="brisbane", budget=Budget(shots=1))
        )
        batch = FrameSampler(pipeline.circuit["Z"]).sample(0)
        assert batch.detectors.shape == (0, pipeline.circuit["Z"].num_detectors)
        assert batch.observables.shape == (0, 1)


class TestEngineIntegration:
    @pytest.mark.parametrize("sampler", ["frames", "tableau:dense"])
    def test_registry_builds_samplers(self, sampler):
        pipeline = Pipeline(
            RunSpec(code="surface:d=3", noise="noiseless", budget=Budget(shots=1))
        )
        factory = registries.samplers.build(sampler)
        built = factory(pipeline.circuit["Z"], pipeline.dem["Z"])
        expected = FrameSampler if sampler == "frames" else TableauSampler
        assert isinstance(built, expected)
        if sampler == "tableau:dense":
            assert built.mode == "dense"

    def test_dem_backend_spec(self):
        pipeline = Pipeline(
            RunSpec(code="surface:d=3", noise="brisbane", budget=Budget(shots=1))
        )
        factory = registries.samplers.build("dem:backend=dense")
        built = factory(pipeline.circuit["Z"], pipeline.dem["Z"])
        assert isinstance(built, DemSampler)
        assert built.backend == "dense"

    def test_default_spec_uses_direct_dem_path(self):
        """The default spec builds a packed DemSampler, bit-identical to a
        direct sample_detector_error_model call on the same stream."""
        pipeline = Pipeline(RunSpec(code="surface:d=3", budget=Budget(shots=1)))
        for basis, sampler in pipeline.samplers.items():
            assert isinstance(sampler, DemSampler) and sampler.backend == "packed"
            batch = sampler.sample(50, seed=4)
            direct = sample_detector_error_model(pipeline.dem[basis], 50, seed=4)
            assert np.array_equal(batch.detectors, direct.detectors)
            assert np.array_equal(batch.observables, direct.observables)
            assert np.array_equal(batch.packed_detectors, direct.packed_detectors)

    def test_frames_pipeline_worker_count_invariant(self, monkeypatch):
        """The worker-invariance guarantee must hold for frame sampling too."""
        import repro.parallel

        monkeypatch.setattr(repro.parallel, "DEFAULT_CHUNK_SHOTS", 64)
        spec = RunSpec(
            code="surface:d=3",
            noise="brisbane",
            decoder="lookup",
            scheduler="lowest_depth",
            sampler="frames",
            seed=5,
            budget=Budget(shots=300),
        )
        serial = Pipeline(spec)
        pooled = Pipeline(spec.replace(workers=3))
        assert serial.rates == pooled.rates
        for basis in ("Z", "X"):
            assert np.array_equal(
                serial.syndromes[basis].detectors, pooled.syndromes[basis].detectors
            )
            assert np.array_equal(serial.predictions[basis], pooled.predictions[basis])

    def test_tableau_sampler_end_to_end(self):
        spec = RunSpec(
            code="repetition:d=3",
            noise="scaled:p=0.01",
            decoder="lookup",
            sampler="tableau",
            seed=1,
            budget=Budget(shots=24),
        )
        pipeline = Pipeline(spec)
        assert pipeline.syndromes["Z"].detectors.shape[0] == 24
        assert 0.0 <= pipeline.rates.overall <= 1.0


class TestSpecCompatibility:
    """``sampler`` must not disturb existing payloads, fingerprints or keys."""

    def test_to_dict_omits_default_sampler(self):
        payload = RunSpec().to_dict()
        assert "sampler" not in payload
        assert RunSpec.from_dict(payload).sampler == "dem"

    def test_to_dict_keeps_non_default_sampler(self):
        spec = RunSpec(sampler="frames")
        payload = spec.to_dict()
        assert payload["sampler"] == "frames"
        assert RunSpec.from_dict(payload) == spec

    def test_legacy_payload_round_trips(self):
        legacy = RunSpec(code="surface:d=5", decoder="mwpm").to_dict()
        legacy.pop("sampler", None)  # what an old results file contains
        spec = RunSpec.from_dict(legacy)
        assert spec.sampler == "dem"
        assert canonical_spec(legacy) == canonical_spec(spec.to_dict())

    def test_default_sampler_chunk_address_unchanged(self):
        """Old cache entries stay addressable: the default spec's address
        payload is byte-identical to what a pre-sampler build produced."""
        spec = RunSpec(code="surface:d=3", decoder="lookup", seed=3)
        address = chunk_address(spec, "Z", 0, 1024)
        assert "sampler" not in address["spec"]
        explicit_default = dataclasses.replace(spec, sampler="dem")
        assert chunk_address(explicit_default, "Z", 0, 1024) == address

    def test_non_default_sampler_keys_chunks_separately(self):
        spec = RunSpec(code="surface:d=3", decoder="lookup", seed=3)
        frames = spec.replace(sampler="frames")
        assert chunk_address(frames, "Z", 0, 1024) != chunk_address(spec, "Z", 0, 1024)
        assert chunk_address(frames, "Z", 0, 1024)["spec"]["sampler"] == "frames"


class TestCli:
    def test_list_samplers(self, capsys):
        assert main(["list", "samplers"]) == 0
        out = capsys.readouterr().out
        assert "dem" in out
        assert "frames" in out
        assert "tableau" in out

    def test_run_with_sampler_flag(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--code", "surface:d=3",
                    "--decoder", "lookup",
                    "--sampler", "frames",
                    "--shots", "64",
                    "--seed", "2",
                ]
            )
            == 0
        )
        assert "surface:d=3" in capsys.readouterr().out
