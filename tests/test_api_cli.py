"""Tests for the ``repro`` console CLI (repro.api.cli)."""

from __future__ import annotations

import json

import pytest

from repro.api import Pipeline, RunSpec
from repro.api.cli import main


class TestList:
    def test_list_decoders_shows_all_four(self, capsys):
        assert main(["list", "decoders"]) == 0
        out = capsys.readouterr().out
        for name in ("mwpm", "unionfind", "bposd", "lookup"):
            assert name in out

    def test_list_all_categories(self, capsys):
        assert main(["list", "all"]) == 0
        out = capsys.readouterr().out
        for heading in ("codes (", "decoders (", "noise (", "schedulers ("):
            assert heading in out

    def test_list_aliases_flag(self, capsys):
        assert main(["list", "decoders", "--aliases"]) == 0
        assert "matching" in capsys.readouterr().out

    def test_unknown_category_rejected(self):
        with pytest.raises(SystemExit):
            main(["list", "widgets"])


class TestServeVerbs:
    def test_worker_verb_is_retired(self, capsys):
        # Served chunks run only in the server's own worker processes.
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--server", "http://127.0.0.1:1"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err


class TestRun:
    def test_run_from_spec_json_end_to_end(self, tmp_path, capsys):
        """Acceptance: `repro run` executes a full surface-code RunSpec from JSON."""
        spec = RunSpec(
            code="surface:d=3",
            decoder="mwpm",
            scheduler="google",
            seed=1,
        )
        spec = spec.replace(budget=spec.budget.replace(shots=120))
        spec_path = spec.save(tmp_path / "spec.json")
        out_path = tmp_path / "result.json"
        assert main(["run", str(spec_path), "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "overall=" in printed
        payload = json.loads(out_path.read_text())
        assert payload["spec"]["code"] == "surface:d=3"
        assert payload["shots"] == 120
        assert 0.0 <= payload["overall"] <= 1.0

    def test_flags_override_spec_file(self, tmp_path):
        spec_path = RunSpec(code="surface:d=3", scheduler="google").save(tmp_path / "s.json")
        out_path = tmp_path / "r.json"
        assert (
            main(
                [
                    "run",
                    str(spec_path),
                    "--code",
                    "steane",
                    "--decoder",
                    "lookup",
                    "--scheduler",
                    "lowest_depth",
                    "--shots",
                    "60",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        assert payload["spec"]["code"] == "steane"
        assert payload["spec"]["decoder"] == "lookup"
        assert payload["shots"] == 60

    def test_run_from_flags_only(self, capsys):
        assert (
            main(["run", "--code", "steane", "--decoder", "lookup", "--shots", "40"]) == 0
        )
        assert "steane" in capsys.readouterr().out


class TestRunSchedulers:
    """`repro run` is the one verb for fixed and synthesising schedulers."""

    SYNTH = [
        "run",
        "--code", "steane",
        "--decoder", "lookup",
        "--scheduler", "alphasyndrome",
        "--shots", "60",
        "--synthesis-shots", "30",
        "--iterations", "1",
        "--max-evaluations", "2",
        "--seed", "3",
    ]

    def test_fixed_scheduler_rates_equal_pipeline(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        argv = ["run", "--code", "surface:d=3", "--scheduler", "google", "--decoder", "lookup"]
        assert main([*argv, "--shots", "40", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "scheduler=google" in printed
        assert "synthesis:" not in printed and "schedule (tick" not in printed
        payload = json.loads(out.read_text())
        rates = Pipeline(RunSpec.from_dict(payload["spec"])).rates
        assert (payload["error_x"], payload["error_z"], payload["shots"]) == (
            rates.error_x,
            rates.error_z,
            rates.shots,
        )

    def test_synthesis_prints_summary_and_schedule(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main([*self.SYNTH, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "steane | scheduler=alphasyndrome decoder=lookup noise=brisbane"
        assert lines[2].startswith("  synthesis: ")
        assert lines[3] == "schedule (tick -> checks):"
        pipeline = Pipeline(RunSpec.from_dict(json.loads(out.read_text())["spec"]))
        ticks = sorted(pipeline.schedule.ticks())
        assert [line.split(":")[0] for line in lines[4 : 4 + len(ticks)]] == [
            f"  tick {tick:>2}" for tick in ticks
        ]
        assert lines[4 + len(ticks)] == f"result written to {out}"
        payload = json.loads(out.read_text())
        assert payload["synthesis_evaluations"] == pipeline.synthesis.evaluations
        assert payload["overall"] == pipeline.rates.overall

    @pytest.mark.parametrize("verb", ["synth", "eval"])
    def test_retired_verbs_exit_2(self, verb, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--code", "steane", "--decoder", "lookup", "--shots", "10"])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    def test_scheduler_spec_takes_no_budget_arguments(self, capsys):
        argv = ["run", "--code", "steane", "--decoder", "lookup", "--shots", "10"]
        for argument in ("iterations_per_step=2", "max_evaluations=2", "synthesis_shots=20"):
            assert main([*argv, "--scheduler", f"alphasyndrome:{argument}"]) == 2
            err = capsys.readouterr().err
            assert "accepted: seed, rollout_batch, compile_decoder" in err
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shots", "-5"], "shots must be >= 0, got -5"),
            (["--synthesis-shots", "-3"], "synthesis_shots must be >= 0, got -3"),
            (["--iterations", "0"], "iterations_per_step must be >= 1, got 0"),
            (["--iterations", "-2"], "iterations_per_step must be >= 1, got -2"),
            (["--max-evaluations", "-1"], "max_evaluations must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_budget_flag_names_its_field(self, flags, message, capsys):
        argv = ["run", "--code", "steane", "--decoder", "lookup", *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestExperiments:
    QUICK_FLAGS = [
        "--shots", "40",
        "--synthesis-shots", "20",
        "--iterations", "1",
        "--max-evaluations", "2",
    ]

    def test_ls_lists_every_suite(self, capsys):
        assert main(["experiments", "ls"]) == 0
        out = capsys.readouterr().out
        for name in ("table2", "table3", "table4", "figure7", "figure15"):
            assert name in out

    def test_run_writes_store_and_rendered_views(self, tmp_path, capsys):
        argv = ["experiments", "run", "figure7", *self.QUICK_FLAGS, "--no-cache"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== figure7 ==" in out
        assert "schedule" in out  # the rendered table is printed
        assert "4 rows (4 run, 0 resumed)" in out
        assert (tmp_path / "figure7.jsonl").exists()
        assert (tmp_path / "figure7.txt").exists()
        rows = json.loads((tmp_path / "figure7.json").read_text())
        assert {row["schedule"] for row in rows} == {
            "clockwise",
            "anticlockwise",
            "google",
            "trivial",
        }
        # Second invocation resumes every row from the artifact store.
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert "4 rows (0 run, 4 resumed)" in capsys.readouterr().out

    def test_render_rewrites_views_from_stored_rows(self, tmp_path, capsys):
        argv = ["experiments", "run", "figure7", *self.QUICK_FLAGS, "--no-cache"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        (tmp_path / "figure7.txt").unlink()
        capsys.readouterr()
        assert main(["experiments", "render", "figure7", "--out", str(tmp_path)]) == 0
        assert "4 rows rendered" in capsys.readouterr().out
        assert (tmp_path / "figure7.txt").exists()

    def test_render_without_stored_rows_fails(self, tmp_path, capsys):
        assert main(["experiments", "render", "figure7", "--out", str(tmp_path)]) == 2
        assert "no stored rows" in capsys.readouterr().err

    def test_run_creates_nested_output_directory(self, tmp_path):
        target = tmp_path / "nested" / "results"
        argv = ["experiments", "run", "figure7", *self.QUICK_FLAGS, "--no-cache"]
        assert main([*argv, "--out", str(target)]) == 0
        assert (target / "figure7.jsonl").exists()

    def test_tables_verb_is_retired(self, capsys):
        # `experiments run` is the one command that regenerates an asset.
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "figure7"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'tables'" in capsys.readouterr().err

    def test_run_unknown_suite_rejected(self, capsys):
        assert main(["experiments", "run", "figure99"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_run_rejects_orphan_precision_flags(self, capsys):
        assert main(["experiments", "run", "figure7", "--confidence", "0.9"]) == 2
        assert "--target-rse" in capsys.readouterr().err

    def test_all_assets_registered_as_choices(self, capsys):
        from repro.experiments import SUITES

        # One suite per paper asset plus the threshold scenario suite, each
        # offered by `experiments ls` with its help line.
        assert len(SUITES) == 9
        assert main(["experiments", "ls"]) == 0
        out = capsys.readouterr().out
        assert "experiment suites (9):" in out
        for name, suite in SUITES.items():
            assert f"  {name} - {suite.help}" in out

    def test_run_rejects_zero_workers(self, tmp_path, capsys):
        # The same one-line user error as `repro run --workers 0`.
        argv = ["experiments", "run", "figure7", "--workers", "0", "--no-cache"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "figure7.jsonl").exists()


class TestSweep:
    BASE = [
        "sweep",
        "--code", "steane",
        "--decoder", "lookup",
        "--scheduler", "lowest_depth",
        "--shots", "60",
    ]

    def test_grid_runs_cartesian_product(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(self.BASE + ["--grid", "seed=0,1", "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 2
        assert {line["spec"]["seed"] for line in lines} == {0, 1}
        assert all(0.0 <= line["overall"] <= 1.0 for line in lines)
        assert "sweep done: 2 run" in capsys.readouterr().out

    def test_resume_ignores_worker_count(self, tmp_path, capsys):
        """workers is an execution detail (results are worker-invariant), so
        resuming the same sweep with a different --workers must skip, not
        re-run and duplicate, the finished specs."""
        out = tmp_path / "sweep.jsonl"
        assert main(self.BASE + ["--grid", "seed=0,1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (
            main(self.BASE + ["--workers", "2", "--grid", "seed=0,1", "--out", str(out)])
            == 0
        )
        assert "0 run, 2 already" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 2

    def test_resume_skips_completed_specs(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(self.BASE + ["--grid", "seed=0,1", "--out", str(out)]) == 0
        capsys.readouterr()
        # Re-run with one extra grid point: only seed=2 should execute.
        assert main(self.BASE + ["--grid", "seed=0,1,2", "--out", str(out)]) == 0
        assert "1 run, 2 already" in capsys.readouterr().out
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["spec"]["seed"] for line in lines] == [0, 1, 2]

    def test_pipe_separator_for_comma_specs(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        assert (
            main(
                self.BASE
                + ["--grid", "noise=brisbane|scaled:p=0.002", "--out", str(out)]
            )
            == 0
        )
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert {line["spec"]["noise"] for line in lines} == {
            "brisbane",
            "scaled:p=0.002",
        }

    def test_budget_grid_field(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        assert main(self.BASE + ["--grid", "shots=40,80", "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["shots"] for line in lines] == [40, 80]

    def test_unknown_grid_field_is_user_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(self.BASE + ["--grid", "colour=red", "--out", str(out)]) == 2
        assert "unknown --grid field" in capsys.readouterr().err

    def test_malformed_grid_axis_is_user_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(self.BASE + ["--grid", "seed", "--out", str(out)]) == 2
        assert "--grid expects" in capsys.readouterr().err


class TestAdaptiveRunAndCache:
    """`repro run/sweep --target-rse` + the `repro cache` subcommand."""

    RUN = [
        "run",
        "--code", "surface:d=3",
        "--decoder", "lookup",
        "--scheduler", "lowest_depth",
        "--seed", "3",
        "--target-rse", "0.35",
        "--max-shots", "4096",
    ]

    def test_adaptive_run_reports_and_persists(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        cache = tmp_path / "cache"
        assert (
            main(self.RUN + ["--cache-dir", str(cache), "--out", str(out)]) == 0
        )
        printed = capsys.readouterr().out
        assert "adaptive: target_rse=0.35" in printed
        payload = json.loads(out.read_text())
        assert payload["spec"]["budget"]["target_rse"] == 0.35
        assert payload["adaptive"]["fresh_chunks"] > 0
        assert payload["adaptive"]["cache_hits"] == 0
        assert cache.is_dir()

    def test_adaptive_rerun_resumes_from_cache(self, tmp_path, capsys):
        """Acceptance: warm-cache rerun performs zero new sampling."""
        cache = tmp_path / "cache"
        assert main(self.RUN + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(self.RUN + ["--cache-dir", str(cache)]) == 0
        assert "fresh_chunks=0" in capsys.readouterr().out

    def test_no_cache_flag_disables_persistence(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(self.RUN + ["--cache-dir", str(cache), "--no-cache"]) == 0
        assert not cache.exists()

    def test_run_and_sweep_print_one_adaptive_line(self, tmp_path, capsys):
        """`run` and each `sweep` point print the adaptive fields through
        one formatter: the same spec, uncached, gives the same line."""
        assert main(self.RUN + ["--no-cache"]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        sweep = ["sweep", *self.RUN[1:], "--no-cache", "--out", str(tmp_path / "s.jsonl")]
        assert main(sweep) == 0
        sweep_lines = capsys.readouterr().out.splitlines()
        (run_line,) = [line for line in run_lines if line.startswith("  adaptive: ")]
        (sweep_line,) = [line for line in sweep_lines if line.startswith("  adaptive: ")]
        assert sweep_line == run_line
        for field in ("target_rse=", "converged=", "shots[", "cache_hits=", "fresh_chunks="):
            assert field in run_line

    def test_sweep_resumes_points_from_cache(self, tmp_path, capsys):
        """Acceptance: after deleting the JSONL, a rerun re-derives every
        point purely from cached chunks — zero new sampling."""
        out = tmp_path / "sweep.jsonl"
        cache = tmp_path / "cache"
        base = [
            "sweep",
            "--code", "surface:d=3",
            "--decoder", "lookup",
            "--scheduler", "lowest_depth",
            "--target-rse", "0.35",
            "--max-shots", "3000",
            "--grid", "seed=1,2",
            "--out", str(out),
            "--cache-dir", str(cache),
        ]
        assert main(base) == 0
        first = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(row["adaptive"]["fresh_chunks"] for row in first) > 0
        out.unlink()
        capsys.readouterr()
        assert main(base) == 0
        rerun = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(row["adaptive"]["fresh_chunks"] for row in rerun) == 0
        assert sum(row["adaptive"]["cache_hits"] for row in rerun) > 0
        assert [row["overall"] for row in rerun] == [row["overall"] for row in first]

    def test_target_rse_grid_axis(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        cache = tmp_path / "cache"
        assert (
            main(
                [
                    "sweep",
                    "--code", "steane",
                    "--decoder", "lookup",
                    "--scheduler", "lowest_depth",
                    "--max-shots", "2000",
                    "--grid", "target_rse=0.3,0.5",
                    "--out", str(out),
                    "--cache-dir", str(cache),
                ]
            )
            == 0
        )
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["spec"]["budget"]["target_rse"] for line in lines] == [0.3, 0.5]
        # The looser target consumes a (not necessarily strict) prefix of
        # the tighter one's chunks, all shared through the cache.
        assert lines[1]["adaptive"]["fresh_chunks"] == 0

    def test_legacy_sweep_rows_without_precision_fields_still_skip(
        self, tmp_path, capsys
    ):
        """Fingerprint normalisation: rows written before the precision
        fields existed must keep matching the spec they describe."""
        out = tmp_path / "sweep.jsonl"
        base = [
            "sweep",
            "--code", "steane",
            "--decoder", "lookup",
            "--scheduler", "lowest_depth",
            "--shots", "40",
            "--out", str(out),
        ]
        assert main(base) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        for row in rows:
            for field in ("target_rse", "max_shots", "confidence"):
                row["spec"]["budget"].pop(field)
        out.write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(base) == 0
        assert "0 run, 1 already" in capsys.readouterr().out

    def test_cache_ls_and_clear(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(self.RUN + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--dir", str(cache)]) == 0
        listed = capsys.readouterr().out
        assert "cached chunk(s)" in listed
        assert "surface:d=3" in listed and "basis=" in listed
        assert main(["cache", "clear", "--dir", str(cache)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "ls", "--dir", str(cache)]) == 0
        assert "0 cached chunk(s)" in capsys.readouterr().out

    def test_cache_ls_missing_dir_is_empty(self, tmp_path, capsys):
        assert main(["cache", "ls", "--dir", str(tmp_path / "nope")]) == 0
        assert "0 cached chunk(s)" in capsys.readouterr().out

    def test_precision_flags_without_target_rse_rejected(self, capsys):
        assert (
            main(["run", "--code", "steane", "--decoder", "lookup", "--max-shots", "500"])
            == 2
        )
        assert "--target-rse" in capsys.readouterr().err
        assert (
            main(["run", "--code", "steane", "--decoder", "lookup", "--confidence", "0.9"])
            == 2
        )
        assert "--target-rse" in capsys.readouterr().err

    def test_max_shots_allowed_when_grid_supplies_target_rse(self, tmp_path):
        # covered end-to-end by test_target_rse_grid_axis; this pins the
        # validator itself accepting the grid-supplied target.
        out = tmp_path / "sweep.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--code", "steane",
                    "--decoder", "lookup",
                    "--scheduler", "lowest_depth",
                    "--max-shots", "600",
                    "--grid", "target_rse=0.5",
                    "--out", str(out),
                    "--no-cache",
                ]
            )
            == 0
        )

    def test_experiments_run_rejects_orphan_max_shots(self, capsys):
        # --max-shots/--confidence without --target-rse would be a silent
        # no-op; `experiments run` rejects them with run's own message.
        assert main(["run", "--max-shots", "5"]) == 2
        run_err = capsys.readouterr().err
        assert main(["experiments", "run", "table2", "--max-shots", "5"]) == 2
        assert capsys.readouterr().err == run_err
        assert run_err.startswith("error: --max-shots only take effect with --target-rse")

    def test_grid_precision_axes_without_target_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--code", "steane",
                    "--decoder", "lookup",
                    "--scheduler", "lowest_depth",
                    "--grid", "max_shots=100,200",
                    "--out", str(out),
                ]
            )
            == 2
        )
        assert "--target-rse" in capsys.readouterr().err
        assert not out.exists()
