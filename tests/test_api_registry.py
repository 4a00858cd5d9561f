"""Tests for the generic Registry, spec parsing and the concrete registries."""

from __future__ import annotations

import pytest

from repro.api import codes, decoders, noise, schedulers
from repro.api.registries import samplers
from repro.api.registry import Registry, parse_spec
from repro.codes.surface import rotated_surface_code
from repro.decoders import BPOSDDecoder, LookupDecoder, MWPMDecoder, UnionFindDecoder


class TestParseSpec:
    def test_bare_name(self):
        assert parse_spec("surface") == ("surface", [], {})

    def test_keyword_arguments(self):
        assert parse_spec("surface:d=5") == ("surface", [], {"d": 5})

    def test_positional_arguments(self):
        assert parse_spec("surface:5") == ("surface", [5], {})

    def test_mixed_and_coerced(self):
        name, positional, keyword = parse_spec("thing:3,rate=0.5,label=abc,flag=true,x=none")
        assert name == "thing"
        assert positional == [3]
        assert keyword == {"rate": 0.5, "label": "abc", "flag": True, "x": None}

    def test_whitespace_tolerated(self):
        assert parse_spec(" surface : d=5 , rows=2 ") == ("surface", [], {"d": 5, "rows": 2})


class TestRegistry:
    def _fresh(self) -> Registry:
        registry = Registry("widget")

        @registry.register("alpha", aliases=("a",), help="first")
        def _alpha(size: int = 1):
            return ("alpha", size)

        return registry

    def test_register_and_build(self):
        registry = self._fresh()
        assert registry.build("alpha") == ("alpha", 1)
        assert registry.build("alpha:size=3") == ("alpha", 3)
        assert registry.build("alpha:7") == ("alpha", 7)

    def test_alias_resolves(self):
        registry = self._fresh()
        assert registry.build("a:size=2") == ("alpha", 2)
        assert "a" in registry
        assert registry.available() == ["alpha"]
        with pytest.raises(TypeError, match="include_aliases"):
            registry.available(include_aliases=True)

    def test_duplicate_name_rejected(self):
        registry = self._fresh()
        with pytest.raises(ValueError, match="duplicate"):
            registry.add("alpha", lambda: None)
        with pytest.raises(ValueError, match="duplicate"):
            registry.add("a", lambda: None)

    def test_unknown_name_raises_with_available(self):
        registry = self._fresh()
        with pytest.raises(KeyError, match="available"):
            registry.build("missing")

    def test_contextual_extras_filtered_by_signature(self):
        registry = self._fresh()

        @registry.register("context_free")
        def _context_free():
            return "bare"

        @registry.register("context_aware")
        def _context_aware(code=None):
            return ("aware", code)

        # Builders that cannot accept the context silently ignore it ...
        assert registry.build("context_free", code="CODE") == "bare"
        # ... and builders that can, receive it.
        assert registry.build("context_aware", code="CODE") == ("aware", "CODE")

    def test_spec_arguments_beat_contextual_extras(self):
        registry = self._fresh()

        @registry.register("seeded")
        def _seeded(seed=0):
            return seed

        assert registry.build("seeded:seed=9", seed=1) == 9

    def test_entries_carry_listing_metadata(self):
        """``repro list`` reads each entry; the registry has no ``describe``."""
        registry = self._fresh()
        entry = registry.entry("a")
        assert (entry.name, entry.aliases, entry.help) == ("alpha", ("a",), "first")
        assert not hasattr(registry, "describe")


class TestCodeRegistry:
    def test_parametric_spec_matches_direct_construction(self):
        built = codes.build("surface:d=5")
        direct = rotated_surface_code(5)
        assert built.num_qubits == direct.num_qubits
        assert built.num_stabilizers == direct.num_stabilizers

    def test_parametric_and_legacy_name_agree(self):
        assert codes.build("surface:d=5").num_qubits == codes.build("rotated_surface_d5").num_qubits

    def test_legacy_names_still_registered(self):
        for name in ("rotated_surface_d3", "hexagonal_color_d5", "bb_72_12_6", "steane"):
            assert name in codes

    def test_alias(self):
        assert codes.build("rotated_surface:d=3").num_qubits == 9

    def test_at_least_as_many_names_as_seed(self):
        assert len(codes) >= 25


class TestDecoderRegistry:
    def test_all_four_decoders_available(self):
        assert decoders.available() == ["bposd", "lookup", "mwpm", "unionfind"]

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("mwpm", MWPMDecoder),
            ("matching", MWPMDecoder),
            ("unionfind", UnionFindDecoder),
            ("union_find", UnionFindDecoder),
            ("bposd", BPOSDDecoder),
            ("lookup", LookupDecoder),
        ],
    )
    def test_factory_builds_expected_class(self, name, cls, steane, brisbane):
        from repro.circuits import build_memory_experiment
        from repro.scheduling import lowest_depth_schedule
        from repro.sim import build_detector_error_model

        experiment = build_memory_experiment(
            steane, lowest_depth_schedule(steane), brisbane, basis="Z"
        )
        dem = build_detector_error_model(experiment.circuit)
        assert isinstance(decoders.build(name)(dem), cls)

    def test_spec_arguments_bind_constructor_kwargs(self, steane, brisbane):
        from repro.circuits import build_memory_experiment
        from repro.scheduling import lowest_depth_schedule
        from repro.sim import build_detector_error_model

        experiment = build_memory_experiment(
            steane, lowest_depth_schedule(steane), brisbane, basis="Z"
        )
        dem = build_detector_error_model(experiment.circuit)
        decoder = decoders.build("lookup:max_order=1")(dem)
        assert decoder.max_order == 1


class TestNoiseRegistry:
    def test_brisbane_default(self):
        gate, *_ = noise.build("brisbane").channels
        assert gate.p == pytest.approx(0.0074)

    def test_scaled_spec(self):
        gate, idle, *_ = noise.build("scaled:p=0.001").channels
        assert gate.p == pytest.approx(0.001)
        assert idle.p == pytest.approx(0.001)

    def test_nonuniform_requires_code(self, surface_d3):
        with pytest.raises(ValueError, match="code"):
            noise.build("nonuniform")
        model = noise.build("nonuniform:variance=0.4,seed=3", code=surface_d3)
        assert len(model.channels[0].per_qubit) == surface_d3.num_stabilizers


class TestSchedulerRegistry:
    def test_baselines_registered(self):
        for name in ("trivial", "lowest_depth", "google", "alphasyndrome"):
            assert name in schedulers

    def test_baseline_build(self, surface_d3):
        schedule = schedulers.build("lowest_depth", code=surface_d3)
        schedule.validate()
        assert schedule.depth > 0


class TestSpecArgumentErrors:
    """Spec arguments a builder does not declare fail at build time, in one line."""

    @pytest.mark.parametrize(
        "registry, spec, fragment",
        [
            (decoders, "mwpm:foo=2", "decoder 'mwpm': got an unexpected keyword argument 'foo'"),
            (decoders, "bposd:max_iter=5", "argument 'max_iter'; accepted: max_iterations, "),
            (decoders, "uf:rounds=3", "decoder 'unionfind': got an unexpected keyword argument"),
            (decoders, "lookup:2,3", "decoder 'lookup': too many positional arguments"),
            (samplers, "frames:foo=1", "sampler 'frames': got an unexpected keyword argument"),
            (samplers, "dem:backend=dense", "keyword argument 'backend'; accepted: none"),
            (samplers, "tableau:dense", "sampler 'tableau': too many positional arguments"),
            (codes, "surface:e=5", "code 'surface': got an unexpected keyword argument 'e'"),
        ],
    )
    def test_unbindable_argument_is_a_one_line_value_error(self, registry, spec, fragment):
        with pytest.raises(ValueError) as raised:
            registry.build(spec)
        message = str(raised.value)
        assert fragment in message
        assert "\n" not in message

    @pytest.mark.parametrize(
        "spec, keywords, fragment",
        [
            ("mwpm", {"foo": 2}, "decoder 'mwpm': got an unexpected keyword argument 'foo'"),
            ("bposd", {"max_iter": 5}, "argument 'max_iter'; accepted: max_iterations, "),
        ],
    )
    def test_unknown_python_keyword_is_a_one_line_value_error(self, spec, keywords, fragment):
        with pytest.raises(ValueError) as raised:
            decoders.build(spec, **keywords)
        message = str(raised.value)
        assert fragment in message
        assert "\n" not in message

    def test_alphasyndrome_takes_its_budget_from_the_run(self):
        # The search size is set once, on the Budget; the scheduler spec only
        # carries the search's own settings.
        assert schedulers.entry("alphasyndrome").spec_syntax == (
            "alphasyndrome:seed=0,rollout_batch=1,compile_decoder=none"
        )
        with pytest.raises(ValueError) as raised:
            schedulers.build("alphasyndrome:iterations_per_step=2")
        assert "accepted: seed, rollout_batch, compile_decoder" in str(raised.value)

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "true", "abc"])
    def test_alphasyndrome_rejects_a_rollout_batch_below_one(self, value):
        # A batch below 1, or not an integer, is refused before the search
        # starts instead of running as a batch of 1.
        with pytest.raises(ValueError) as raised:
            schedulers.build(f"alphasyndrome:rollout_batch={value}", code=codes.build("steane"))
        message = str(raised.value)
        assert "rollout_batch must be an integer >= 1, got " in message
        assert "\n" not in message

    def test_decoder_builders_list_their_keywords(self):
        syntax = {name: decoders.entry(name).spec_syntax for name in decoders.available()}
        assert syntax == {
            "bposd": "bposd:max_iterations=30,scaling_factor=0.75",
            "lookup": "lookup:max_order=2",
            "mwpm": "mwpm",
            "unionfind": "unionfind",
        }

    def test_builder_errors_past_binding_pass_through(self):
        with pytest.raises(ValueError, match="scaling_factor must be in"):
            decoders.build("bposd:scaling_factor=2")
