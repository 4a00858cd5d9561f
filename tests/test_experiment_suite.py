"""Tests for the declarative experiment-suite layer (repro.experiments.suite).

Covers the tentpole mechanics: suite registration, the ``eval_stage``
seeding contract, the ``compile_decoder`` synthesis-spec variant, the
SynthSpec memo, artifact-store resume with zero resampling, the
chunk-cache warm-rerun guarantee (the acceptance counter assertion), and
failure semantics (non-zero exit, no partial rendered artifacts).
"""

from __future__ import annotations

import json

import pytest

from repro.api.pipeline import Pipeline
from repro.api.spec import Budget, RunSpec
from repro.experiments import SUITES
from repro.experiments.artifacts import ARTIFACT_VERSION, ArtifactStore, row_fingerprint
from repro.experiments.figures import figure7_rows
from repro.experiments.suite import (
    EVALUATION_STAGE,
    ExperimentRow,
    ExperimentRun,
    ExperimentSuite,
    SuiteConfig,
    SuiteRowError,
    SuiteRunner,
    SynthSpec,
    run_suite,
    synthesis_scheduler,
)
from repro.experiments.table4 import table4_rows
from repro.seeding import named_stream
from repro.sim import estimate_logical_error_rates

#: Minuscule budget shared by every execution test in this module.
TINY = Budget(shots=60, synthesis_shots=40, iterations_per_step=1, max_evaluations=2)
TINY_CONFIG = SuiteConfig(budget=TINY, seed=0)


def _steane_row(config, *, name="eval", scheduler="lowest_depth", key="steane"):
    return ExperimentRow(
        key=key,
        runs=(
            ExperimentRun(
                name, config.spec(code="steane", decoder="lookup", scheduler=scheduler)
            ),
        ),
        derive=lambda view: {
            "code": "steane",
            "overall": view.rates(name).overall,
            "depth": view.depth(name),
        },
    )


class TestRegistry:
    def test_all_paper_assets_registered_as_suites(self):
        # One suite per paper asset plus the threshold scenario suite.
        assert set(SUITES) == {
            "table2",
            "table3",
            "table4",
            "figure7",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "threshold",
        }

    def test_suite_help_strings_present(self):
        for suite in SUITES.values():
            assert suite.help

    def test_duplicate_suite_name_rejected(self):
        from repro.experiments.suite import register_suite

        with pytest.raises(ValueError, match="duplicate"):
            register_suite("table2")(lambda config: [])

    def test_unknown_suite_is_keyerror_with_available_names(self):
        from repro.experiments.suite import get_suite

        with pytest.raises(KeyError, match="table2"):
            get_suite("table99")


class TestEvalStage:
    def test_suite_specs_carry_the_evaluation_stage(self):
        spec = TINY_CONFIG.spec(code="steane", decoder="lookup")
        assert spec.eval_stage == EVALUATION_STAGE
        assert spec.budget == TINY

    def test_eval_stage_round_trips_through_json(self):
        spec = RunSpec(eval_stage="evaluation")
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_payloads_without_eval_stage_default_to_none(self):
        payload = RunSpec().to_dict()
        payload.pop("eval_stage")
        assert RunSpec.from_dict(payload).eval_stage is None

    def test_eval_stage_reproduces_the_legacy_stage_stream(self):
        """Pipeline(eval_stage=...) == legacy estimator at the named stream."""
        pipeline = Pipeline(
            code="steane",
            decoder="lookup",
            scheduler="lowest_depth",
            shots=80,
            seed=3,
            eval_stage="evaluation",
        )
        legacy = estimate_logical_error_rates(
            pipeline.code,
            pipeline.schedule,
            pipeline.noise,
            pipeline.decoder_factory,
            shots=80,
            seed=named_stream(3, "evaluation"),
        )
        assert pipeline.rates.error_x == legacy.error_x
        assert pipeline.rates.error_z == legacy.error_z

    def test_no_eval_stage_keeps_the_historical_derivation(self):
        stages = Pipeline(
            code="steane", decoder="lookup", scheduler="lowest_depth", shots=80, seed=3
        )
        legacy = estimate_logical_error_rates(
            stages.code,
            stages.schedule,
            stages.noise,
            stages.decoder_factory,
            shots=80,
            seed=3,
        )
        assert stages.rates.error_x == legacy.error_x
        assert stages.rates.error_z == legacy.error_z


class TestCompileDecoder:
    def test_cross_decoder_synthesis_matches_direct_compilation(self):
        """alphasyndrome:compile_decoder=X == alphasyndrome with decoder=X."""
        budget_kwargs = dict(
            shots=40, synthesis_shots=30, iterations_per_step=1, max_evaluations=2
        )
        cross = Pipeline(
            code="steane",
            decoder="mwpm",
            scheduler="alphasyndrome:compile_decoder=lookup",
            seed=0,
            **budget_kwargs,
        )
        direct = Pipeline(
            code="steane",
            decoder="lookup",
            scheduler="alphasyndrome",
            seed=0,
            **budget_kwargs,
        )
        assert cross.schedule.assignment == direct.schedule.assignment

    def test_synthesis_scheduler_helper(self):
        assert synthesis_scheduler() == "alphasyndrome"
        assert synthesis_scheduler("bposd") == "alphasyndrome:compile_decoder=bposd"


class TestSynthSpec:
    def test_fixed_schedulers_have_no_synth_key(self):
        assert SynthSpec.from_run_spec(RunSpec(scheduler="lowest_depth")) is None
        assert SynthSpec.from_run_spec(RunSpec(scheduler="google")) is None

    def test_compile_decoder_resolves_into_the_key(self):
        same = SynthSpec.from_run_spec(
            RunSpec(scheduler="alphasyndrome", decoder="bposd")
        )
        cross = SynthSpec.from_run_spec(
            RunSpec(scheduler="alphasyndrome:compile_decoder=bposd", decoder="unionfind")
        )
        assert same == cross
        assert same.decoder == "bposd"

    def test_extra_search_arguments_split_the_key(self):
        plain = SynthSpec.from_run_spec(RunSpec(scheduler="alphasyndrome"))
        batched = SynthSpec.from_run_spec(
            RunSpec(scheduler="alphasyndrome:rollout_batch=8")
        )
        assert plain != batched
        assert "rollout_batch=8" in batched.scheduler

    def test_alias_resolves_to_the_same_key(self):
        assert SynthSpec.from_run_spec(RunSpec(scheduler="alpha")) == SynthSpec.from_run_spec(
            RunSpec(scheduler="alphasyndrome")
        )


class TestSynthesisMemo:
    def test_table4_matrix_searches_once_per_compile_decoder(self, monkeypatch):
        """4 cells, 2 distinct searches: the memo collapses the cross cells."""
        import repro.core.alphasyndrome as alpha_module

        calls = []
        original = alpha_module.AlphaSyndrome.synthesize

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(alpha_module.AlphaSyndrome, "synthesize", counting)
        runner = SuiteRunner(TINY_CONFIG)
        rows = runner.run_rows(table4_rows(TINY_CONFIG, instances=["hexagonal_color_d3"]))
        assert len(rows) == 1
        assert len(calls) == 2
        assert runner.synthesis_searches == 2
        for test_decoder in ("bposd", "unionfind"):
            for compile_decoder in ("bposd", "unionfind"):
                assert f"test_{test_decoder}_compile_{compile_decoder}" in rows[0]


class TestStoreResume:
    def test_second_run_resumes_every_row_without_sampling(self, tmp_path, monkeypatch):
        first = run_suite("figure7", TINY_CONFIG, store=tmp_path)
        assert len(first.executed) == 4 and not first.resumed

        import repro.parallel as parallel

        def forbidden(*args, **kwargs):
            raise AssertionError("a fully resumed suite run must not sample")

        monkeypatch.setattr(parallel, "sample_detector_error_model", forbidden)
        second = run_suite("figure7", TINY_CONFIG, store=tmp_path)
        assert len(second.resumed) == 4 and not second.executed
        assert second.rows == first.rows
        assert [list(row) for row in second.rows] == [list(row) for row in first.rows]

    def test_budget_change_invalidates_the_stored_rows(self, tmp_path):
        run_suite("figure7", TINY_CONFIG, store=tmp_path)
        changed = TINY_CONFIG.replace(budget=TINY.replace(shots=61))
        rerun = run_suite("figure7", changed, store=tmp_path)
        assert len(rerun.executed) == 4 and not rerun.resumed

    def test_worker_count_does_not_invalidate_stored_rows(self, tmp_path):
        run_suite("figure7", TINY_CONFIG, store=tmp_path)
        rerun = run_suite("figure7", TINY_CONFIG.replace(workers=2), store=tmp_path)
        assert len(rerun.resumed) == 4

    def test_resume_false_re_executes(self, tmp_path):
        run_suite("figure7", TINY_CONFIG, store=tmp_path)
        rerun = run_suite("figure7", TINY_CONFIG, store=tmp_path, resume=False)
        assert len(rerun.executed) == 4

    def test_artifacts_written_next_to_each_other(self, tmp_path):
        result = run_suite("figure7", TINY_CONFIG, store=tmp_path)
        assert result.rows_path == tmp_path / "figure7.jsonl"
        assert (tmp_path / "figure7.txt").exists()
        rendered = json.loads((tmp_path / "figure7.json").read_text())
        assert rendered == result.rows

    def test_torn_trailing_record_is_skipped_and_rerun(self, tmp_path):
        run_suite("figure7", TINY_CONFIG, store=tmp_path)
        rows_path = tmp_path / "figure7.jsonl"
        lines = rows_path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # tear the final record
        rows_path.write_text("\n".join(lines) + "\n")
        rerun = run_suite("figure7", TINY_CONFIG, store=tmp_path)
        assert len(rerun.resumed) == 3
        assert len(rerun.executed) == 1

    def test_latest_rows_deduplicates_reruns_under_new_configs(self, tmp_path):
        """Rendering from the log must not mix rows from two budgets."""
        run_suite("figure7", TINY_CONFIG, store=tmp_path)
        changed = TINY_CONFIG.replace(budget=TINY.replace(shots=61))
        second = run_suite("figure7", changed, store=tmp_path)
        store = ArtifactStore(tmp_path)
        assert len(store.load("figure7")) == 8  # both configs logged
        assert store.latest_rows("figure7") == second.rows  # latest per key wins

    def test_version_mismatch_orphans_stored_rows(self, tmp_path):
        run_suite("figure7", TINY_CONFIG, store=tmp_path)
        store = ArtifactStore(tmp_path)
        records = store.load("figure7")
        assert len(records) == 4
        rows_path = tmp_path / "figure7.jsonl"
        stale = [
            json.dumps({**json.loads(line), "v": ARTIFACT_VERSION + 1})
            for line in rows_path.read_text().splitlines()
        ]
        rows_path.write_text("\n".join(stale) + "\n")
        assert store.load("figure7") == {}


class TestChunkCacheAcceptance:
    def test_cache_warm_rerun_of_a_completed_suite_samples_nothing(self, tmp_path):
        """Acceptance: warm rerun has fresh_chunks == 0 (cache-hit counters)."""
        adaptive = SuiteConfig(
            budget=TINY.replace(target_rse=0.5, max_shots=120), seed=0
        )
        suite = ExperimentSuite(name="tiny_adaptive", build=figure7_rows)
        first = SuiteRunner(adaptive, cache=tmp_path).run(suite)
        assert first.fresh_chunks > 0 and first.cache_hits == 0
        second = SuiteRunner(adaptive, cache=tmp_path).run(suite)
        assert second.fresh_chunks == 0
        assert second.cache_hits == first.fresh_chunks
        assert second.rows == first.rows

    def test_fixed_shot_rows_report_zero_chunk_counters(self):
        result = SuiteRunner(TINY_CONFIG).run(
            ExperimentSuite(name="tiny_fixed", build=lambda c: [_steane_row(c)])
        )
        assert result.fresh_chunks == 0 and result.cache_hits == 0


class TestFailureSemantics:
    def _failing_suite(self, config):
        return ExperimentSuite(
            name="boom",
            build=lambda c: [
                _steane_row(c, key="good"),
                ExperimentRow(
                    key="bad",
                    runs=(
                        ExperimentRun(
                            "eval", c.spec(code="no_such_code", decoder="lookup")
                        ),
                    ),
                    derive=lambda view: {},
                ),
            ],
        )

    def test_failed_row_raises_and_keeps_completed_rows(self, tmp_path):
        runner = SuiteRunner(TINY_CONFIG, store=tmp_path)
        with pytest.raises(SuiteRowError, match="'bad'"):
            runner.run(self._failing_suite(TINY_CONFIG))
        # The completed row survived in the JSONL log; the rendered views
        # were never written (no silently partial artifacts).
        assert len(ArtifactStore(tmp_path).load("boom")) == 1
        assert not (tmp_path / "boom.txt").exists()
        assert not (tmp_path / "boom.json").exists()

    def test_main_exits_nonzero_on_failed_row(self, tmp_path, monkeypatch, capsys):
        from repro.api.cli import main

        monkeypatch.setitem(SUITES, "boom", self._failing_suite(TINY_CONFIG))
        exit_code = main(
            [
                "experiments",
                "run",
                "boom",
                "--shots",
                "60",
                "--synthesis-shots",
                "40",
                "--iterations",
                "1",
                "--max-evaluations",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert exit_code == 1
        assert "failed" in capsys.readouterr().err

    def test_figure15_suite_accepts_an_unseeded_config(self):
        """seed=None flows through the nonuniform noise spec (fresh profile)."""
        from repro.experiments.figures import figure15_rows

        rows = figure15_rows(TINY_CONFIG.replace(seed=None))
        spec = rows[0].runs[0].spec
        assert spec.noise == "nonuniform:variance=0.6,seed=None"
        pipeline = Pipeline(spec)
        assert pipeline.noise is not None  # builder tolerates seed=None

    def test_duplicate_run_names_rejected(self):
        spec = TINY_CONFIG.spec(code="steane", decoder="lookup")
        with pytest.raises(ValueError, match="duplicate run names"):
            ExperimentRow(
                key="dup",
                runs=(ExperimentRun("a", spec), ExperimentRun("a", spec)),
                derive=lambda view: {},
            )


class TestRowFingerprint:
    def test_workers_do_not_change_the_fingerprint(self):
        base = RunSpec(code="steane", decoder="lookup")
        a = row_fingerprint("s", "k", [("eval", base.to_dict())])
        b = row_fingerprint("s", "k", [("eval", base.replace(workers=8).to_dict())])
        assert a == b

    def test_budget_changes_the_fingerprint(self):
        base = RunSpec(code="steane", decoder="lookup")
        tighter = base.replace(budget=base.budget.replace(shots=7))
        assert row_fingerprint("s", "k", [("eval", base.to_dict())]) != row_fingerprint(
            "s", "k", [("eval", tighter.to_dict())]
        )

    def test_suite_and_key_scope_the_fingerprint(self):
        payload = [("eval", RunSpec().to_dict())]
        assert row_fingerprint("a", "k", payload) != row_fingerprint("b", "k", payload)
        assert row_fingerprint("a", "k1", payload) != row_fingerprint("a", "k2", payload)
