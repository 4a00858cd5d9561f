"""Tests for the noise channels and the one model type (repro.noise.models).

The heart of this file is the bit-identity battery: the uniform models
must produce *bit-identical* detector error models through the channel
path (pinned against digests captured before the channel refactor), and
the advertised reductions — ``eta=1`` == depolarizing, zero rates ==
noiseless — must hold at DEM level, not just approximately.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import RunSpec, codes
from repro.api.pipeline import Pipeline
from repro.api.registries import noise as noise_registry
from repro.cache import _key_of, chunk_address
from repro.circuits.circuit import Circuit, Instruction
from repro.circuits.memory import build_memory_experiment
from repro.experiments.artifacts import row_fingerprint
from repro.noise import (
    Dephasing,
    IdleBiasedPauli,
    IdleDepolarizing,
    MeasurementFlip,
    NoiseModel,
    NoiseOp,
    ResetFlip,
    TwoQubitBiasedPauli,
    TwoQubitDepolarizing,
    biased_noise,
    biased_pauli_rates,
    brisbane_noise,
    dephasing_noise,
    depolarizing_noise,
    non_uniform_noise,
    scaled_noise,
    two_qubit_biased_rates,
)
from repro.scheduling import google_surface_schedule, lowest_depth_schedule
from repro.sim.dem import build_detector_error_model
from repro.sim.tableau import simulate_circuit


def dem_digest(dem) -> str:
    """Canonical digest of a DEM's (probability, detectors, observables) list."""
    payload = [
        (m.probability, sorted(m.detectors), sorted(m.observables))
        for m in dem.mechanisms
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def pipeline_digests(code: str, noise: str, **kwargs) -> tuple[str, str]:
    pipeline = Pipeline(
        code=code, noise=noise, scheduler="lowest_depth", decoder="mwpm", seed=5, **kwargs
    )
    return dem_digest(pipeline.dem["Z"]), dem_digest(pipeline.dem["X"])


class TestLegacyBitIdentity:
    """Uniform legacy models through the channel path == pre-refactor DEMs.

    The digests below were captured from the repository *before* the
    channel refactor (builder emitting depolarize2/depolarize1/z_error
    directly from NoiseModel rates).  Any change to how legacy models
    translate into instructions shows up here as a digest mismatch.
    """

    PINNED = {
        ("surface:d=3", "brisbane"): (
            "ed877640115c6796ded0f0d737ff19aea17c088afe5fde004f8513f4a1156a68",
            "e725df9cd03e64074c28e854e86bf7ff0571b1e3052a10937172e71ecb6a38aa",
        ),
        ("surface:d=3", "scaled:p=0.003"): (
            "6728156c04115bc4227f9a484b95418e6cb3ac4316d39fe767b8d4e193f7ca63",
            "a3a4dd439c46089280366d2b3a87b2bad465f2cc4676b97a9b3c54454beb2fe0",
        ),
        (
            "surface:d=3",
            "depolarizing:two_qubit=0.004,idle=0.002,measurement=0.001,reset=0.0005",
        ): (
            "2d75cf5b4778433048d11a310ac96db4166db4934a8895aad1d9629ca5d4fcec",
            "14fbb1844cd9a69e4c222bca20984111410d6806899f61ef10ba321cf8ad1da0",
        ),
        ("surface:d=3", "nonuniform:variance=0.5,seed=7"): (
            "000e27449ac9275e945fd5dbed7dae2580033032c1e6cdb115f2cb94813eed71",
            "6b3f10212124bf503608edc92e1ff9fbd2267fc02ab53f5d0b7c118704712908",
        ),
        ("steane", "brisbane"): (
            "9a98a4ed7d845a6a16c9da5434a781f55f4d3b07b217b7eb2558effde5a13c7e",
            "771d574708753ccee2a1e25ac9e9cf329c30c0307ea5692c6da236f8ee15ce13",
        ),
    }

    @pytest.mark.parametrize("code,noise_spec", sorted(PINNED))
    def test_dem_digests_pinned(self, code, noise_spec):
        assert pipeline_digests(code, noise_spec) == self.PINNED[(code, noise_spec)]

    def test_rates_pinned(self):
        """End-to-end rates of a legacy model are unchanged by the refactor."""
        pipeline = Pipeline(
            code="surface:d=3",
            noise="brisbane",
            scheduler="lowest_depth",
            decoder="mwpm",
            shots=64,
            seed=5,
        )
        assert pipeline.rates.error_x == 0.015625
        assert pipeline.rates.error_z == 0.03125

    def test_legacy_model_routes_through_channels(self):
        """NoiseModel.ops is the decomposition the builder consumes."""
        model = depolarizing_noise(0.01, 0.002, 0.003, 0.004)
        gate_ops = model.ops("gate", (7, 2))
        assert [op.name for op in gate_ops] == ["DEPOLARIZE2"]
        assert gate_ops[0].probability == 0.01
        idle_ops = model.ops("idle", (3,))
        assert [op.name for op in idle_ops] == ["DEPOLARIZE1"]
        measure_ops = model.ops("measure", (9,))
        assert [(op.name, op.probability) for op in measure_ops] == [("Z_ERROR", 0.003)]
        reset_ops = model.ops("reset", (9, 10, 11))
        assert [(op.name, op.qubits) for op in reset_ops] == [("Z_ERROR", (9, 10, 11))]

    def test_per_qubit_override_uses_pair_maximum(self):
        model = depolarizing_noise(0.01, 0.0052, per_qubit_two_qubit={5: 0.03})
        (op,) = model.ops("gate", (5, 0))
        assert op.probability == 0.03
        (op,) = model.ops("gate", (0, 1))
        assert op.probability == 0.01

    def test_presets_keep_the_legacy_channel_order(self):
        """Gate, idle, readout, reset: the order the four-rate model fired in."""
        assert brisbane_noise().channels == (
            TwoQubitDepolarizing(0.0074),
            IdleDepolarizing(0.0052),
            MeasurementFlip(0.0),
            ResetFlip(0.0),
        )
        assert scaled_noise(0.002).channels == depolarizing_noise(0.002, 0.002).channels


def _surface_d3_ancillas() -> list[int]:
    code = codes.build("surface:d=3")
    return [code.num_qubits + s for s in range(code.num_stabilizers)]


_MODELS = {
    "brisbane": brisbane_noise,
    "scaled_1e-3": lambda: scaled_noise(1e-3),
    "non_uniform": lambda: non_uniform_noise(_surface_d3_ancillas()),
    "biased": lambda: biased_noise(1e-3, 10.0, measurement=1e-3, reset=5e-4),
    "dephasing": lambda: dephasing_noise(1e-3),
}


class TestSiteOpsMemo:
    """``NoiseModel.ops`` memoises its ops per ``(kind, qubits)``."""

    @pytest.mark.parametrize("name", sorted(_MODELS))
    def test_warm_model_builds_the_fresh_circuit(self, name):
        """A model that already built other circuits (other schedule, basis
        and round count, so other ticks and rounds) emits the same
        instructions as a fresh copy."""
        code = codes.build("surface:d=3")
        warm = _MODELS[name]()
        for schedule, basis, rounds in (
            (lowest_depth_schedule(code), "X", 3),
            (google_surface_schedule(code), "Z", 1),
        ):
            build_memory_experiment(code, schedule, warm, basis=basis, noisy_rounds=rounds)
        assert warm._ops
        for basis in ("Z", "X"):
            for rounds in (1, 2):
                circuits = [
                    build_memory_experiment(
                        code,
                        google_surface_schedule(code),
                        model,
                        basis=basis,
                        noisy_rounds=rounds,
                    ).circuit
                    for model in (warm, _MODELS[name]())
                ]
                assert circuits[0].instructions == circuits[1].instructions

    def test_ops_are_resolved_once_per_kind_and_qubits(self):
        model = brisbane_noise()
        first = model.ops("idle", (4,))
        assert model.ops("idle", (4,)) is first
        assert model.ops("idle", (5,)) != first
        assert model.ops("gate", (4, 5)) != model.ops("gate", (4, 6))

    #: Chunk-address keys and row fingerprints of surface d=3 specs, as
    #: computed before the memo existed.  They hash the spec alone, so a
    #: warm model must not move them.
    PINNED_KEYS = {
        "brisbane": (
            "5a0852eab78f2c1f8b19e9d74759ad94b5ddaea63d01c2ea3210ac7b2223eba6",
            "64745cc86af028e4ad8abb960b31555cadaf2151992db0a2fed04c8b019dc646",
        ),
        "scaled:p=0.001": (
            "0c6a475a86b86cb17e98f3d6611c45ad032db65fd0ff07b03464f285b2eda08f",
            "7dd2a0d15a257edba1d832f59696341628e96601ff0f1b50f7e019e6f2103c73",
        ),
        "nonuniform:variance=0.5,seed=7": (
            "5a502d2fe4ff03fe31d0bb33099370748904b3a1eb7730f242de41782b5e14a6",
            "35c6c5c2bb1c0610d95d73c1518b8e961f969d08e3118b9382127fd64a6d4915",
        ),
    }

    @pytest.mark.parametrize("noise", sorted(PINNED_KEYS))
    def test_fingerprints_and_chunk_addresses_do_not_move(self, noise):
        spec = RunSpec(
            code="surface:d=3", noise=noise, scheduler="lowest_depth", decoder="mwpm", seed=5
        )
        Pipeline(spec, shots=32).rates  # warms the run's model
        keys = (
            _key_of(chunk_address(spec, "Z", 0, 1024)),
            row_fingerprint("noise", noise, [("eval", spec.to_dict())]),
        )
        assert keys == self.PINNED_KEYS[noise]


class TestBiasConvention:
    def test_eta_one_is_exact_depolarizing_split(self):
        p = 0.003
        assert biased_pauli_rates(p, 1.0) == (p / 3.0, p / 3.0, p / 3.0)
        assert two_qubit_biased_rates(p, 1.0) == tuple([p / 15.0] * 15)

    def test_rates_sum_to_total(self):
        for eta in (0.0, 0.5, 1.0, 10.0, 1e6):
            assert sum(biased_pauli_rates(0.01, eta)) == pytest.approx(0.01)
            assert sum(two_qubit_biased_rates(0.01, eta)) == pytest.approx(0.01)

    def test_large_eta_approaches_pure_dephasing(self):
        px, py, pz = biased_pauli_rates(0.01, 1e9)
        assert pz == pytest.approx(0.01, rel=1e-6)
        assert px < 1e-10 and py < 1e-10

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            biased_pauli_rates(0.01, -1.0)
        with pytest.raises(ValueError):
            two_qubit_biased_rates(0.01, -0.5)

    def test_eta_one_dem_bit_identical_to_depolarizing(self):
        """`biased:eta=1` and `scaled` produce bit-identical DEMs."""
        assert pipeline_digests("surface:d=3", "biased:p=0.003,eta=1") == pipeline_digests(
            "surface:d=3", "scaled:p=0.003"
        )

    def test_bias_skews_logical_error_asymmetry(self):
        """High-eta noise produces a different DEM than depolarizing."""
        assert pipeline_digests("surface:d=3", "biased:p=0.003,eta=20") != pipeline_digests(
            "surface:d=3", "scaled:p=0.003"
        )


class TestComposition:
    def test_zero_rate_channels_compose_to_noiseless(self):
        model = NoiseModel(
            (
                TwoQubitBiasedPauli(0.0, 5.0),
                IdleDepolarizing(0.0),
                Dephasing(0.0),
                MeasurementFlip(0.0),
                ResetFlip(0.0),
            )
        )
        # The DEM has no mechanisms at all, matching "noiseless".
        zero_digests = _composed_digests(model)
        noiseless_digests = pipeline_digests("surface:d=3", "noiseless")
        assert zero_digests == noiseless_digests

    def test_composition_is_concatenation_in_order(self):
        model = NoiseModel((Dephasing(0.001), TwoQubitDepolarizing(0.002)))
        ops = model.ops("gate", (0, 1))
        assert [op.name for op in ops] == ["Z_ERROR", "DEPOLARIZE2"]

    def test_every_channel_kind_composes(self):
        model = NoiseModel(
            (
                TwoQubitDepolarizing(0.01, {1: 0.02}),
                IdleDepolarizing(0.005),
                TwoQubitBiasedPauli(0.01, 3.0),
                IdleBiasedPauli(0.005, 3.0, {2: 0.01}),
                Dephasing(0.001, gates=False),
                MeasurementFlip(0.002, {9: 0.004}),
                ResetFlip(0.003),
            ),
            "full",
        )
        gate_ops = model.ops("gate", (0, 1))
        assert [op.name for op in gate_ops] == ["DEPOLARIZE2", "PAULI_CHANNEL_2"]
        idle_ops = model.ops("idle", (2,))
        assert [op.name for op in idle_ops] == ["DEPOLARIZE1", "PAULI_CHANNEL_1", "Z_ERROR"]
        # per-qubit override on the biased idle channel resolves for qubit 2
        assert sum(idle_ops[1].probabilities) == pytest.approx(0.01)
        assert [op.probability for op in model.ops("measure", (9,))] == [0.004]
        assert [op.qubits for op in model.ops("reset", (9, 10))] == [(9, 10)]

    def test_channels_pickle(self):
        """Models must survive the process-pool boundary, warm or not."""
        import pickle

        model = NoiseModel((TwoQubitBiasedPauli(0.01, 4.0),), "demo")
        assert pickle.loads(pickle.dumps(model)) == model
        model.ops("gate", (0, 1))
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert clone.ops("gate", (0, 1)) == model.ops("gate", (0, 1))


def _composed_digests(model) -> tuple[str, str]:
    from repro.api.registries import codes
    from repro.scheduling.baselines import lowest_depth_schedule

    code = codes.build("surface:d=3")
    schedule = lowest_depth_schedule(code)
    digests = []
    for basis in ("Z", "X"):
        experiment = build_memory_experiment(code, schedule, model, basis=basis)
        digests.append(dem_digest(build_detector_error_model(experiment.circuit)))
    return tuple(digests)


class TestPauliChannelInstructions:
    def test_pauli_channel_1_validation(self):
        circuit = Circuit()
        with pytest.raises(ValueError):
            circuit.append(Instruction("PAULI_CHANNEL_1", (0,), probabilities=(0.1, 0.2)))
        with pytest.raises(ValueError):
            circuit.append(
                Instruction("PAULI_CHANNEL_1", (0,), probabilities=(0.5, 0.4, 0.3))
            )
        with pytest.raises(ValueError):
            circuit.append(
                Instruction("PAULI_CHANNEL_2", (0, 1), probabilities=(0.1,) * 14)
            )

    def test_zero_probability_ops_are_skipped(self):
        circuit = Circuit()
        circuit.pauli_channel_1((0.0, 0.0, 0.0), 0)
        circuit.pauli_channel_2((0.0,) * 15, 0, 1)
        circuit.append_noise_op(NoiseOp("DEPOLARIZE1", (0,), probability=0.0))
        assert len(circuit) == 0

    def test_dem_decomposition_matches_depolarize(self):
        """PAULI_CHANNEL mechanisms == DEPOLARIZE mechanisms at uniform shares."""
        p = 0.15
        one = Circuit()
        one.reset(0)
        one.pauli_channel_1((p / 3, p / 3, p / 3), 0)
        one.detector(one.measure(0))
        other = Circuit()
        other.reset(0)
        other.depolarize1(p, 0)
        other.detector(other.measure(0))
        assert dem_digest(build_detector_error_model(one)) == dem_digest(
            build_detector_error_model(other)
        )

    def test_tableau_executes_pauli_channels(self):
        """The reference simulator accepts the new channels (statistically sane)."""
        flips = 0
        shots = 400
        for seed in range(shots):
            circuit = Circuit()
            circuit.reset(0)
            circuit.pauli_channel_1((0.5, 0.0, 0.0), 0)  # X with p=0.5
            circuit.measure(0)
            measurements, _, _ = simulate_circuit(circuit, seed=seed)
            flips += measurements[0]
        assert 0.35 < flips / shots < 0.65

    def test_tableau_pauli_channel_2_matches_pair_order(self):
        """Index 15 of PAULI_CHANNEL_2 is Z⊗Z (last in canonical order)."""
        circuit = Circuit()
        circuit.reset(0, 1)
        circuit.h(0, 1)
        probabilities = [0.0] * 15
        probabilities[14] = 1.0  # always fire Z⊗Z
        circuit.pauli_channel_2(tuple(probabilities), 0, 1)
        circuit.h(0, 1)
        circuit.measure(0, 1)
        measurements, _, _ = simulate_circuit(circuit, seed=0)
        assert measurements == [1, 1]


class TestRegistrySpecs:
    def test_seven_specs_registered(self):
        assert noise_registry.available() == sorted(
            [
                "biased",
                "brisbane",
                "dephasing",
                "depolarizing",
                "noiseless",
                "nonuniform",
                "scaled",
            ]
        )

    def test_biased_spec_builds_channel_tuple(self):
        model = noise_registry.build("biased:p=0.002,eta=5,measurement=0.001")
        assert isinstance(model, NoiseModel)
        assert model.channels == (
            TwoQubitBiasedPauli(0.002, 5),
            IdleBiasedPauli(0.002, 5),
            MeasurementFlip(0.001),
        )

    def test_signature_rendering_for_discovery(self):
        entry = noise_registry.entry("biased")
        assert entry.signature.startswith("p=0.001,eta=10.0")
        assert entry.spec_syntax.startswith("biased:p=")
        # Parameterless entries render as their bare name.
        assert noise_registry.entry("brisbane").spec_syntax == "brisbane"


class TestRoundsAxis:
    def test_rounds_validation(self):
        from repro.api.spec import RunSpec

        with pytest.raises(ValueError):
            RunSpec(rounds=0)
        assert RunSpec(rounds=3).rounds == 3
        assert RunSpec.from_dict(RunSpec(rounds=2).to_dict()).rounds == 2

    def test_pipeline_rounds_grow_detector_volume(self):
        one = Pipeline(code="surface:d=3", noise="brisbane", decoder="mwpm", seed=0)
        three = Pipeline(
            code="surface:d=3", noise="brisbane", decoder="mwpm", seed=0, rounds=3
        )
        assert three.dem["Z"].num_detectors > one.dem["Z"].num_detectors

    def test_cli_rounds_flag_and_grid_axis(self, tmp_path, capsys):
        from repro.api.cli import main

        out = tmp_path / "sweep.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--code",
                    "steane",
                    "--decoder",
                    "lookup",
                    "--scheduler",
                    "lowest_depth",
                    "--shots",
                    "32",
                    "--grid",
                    "rounds=1,2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["spec"]["rounds"] for row in rows] == [1, 2]
