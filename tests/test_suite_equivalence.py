"""Equivalence regression: suite rows == frozen rows, bit for bit.

Each quick-budget paper asset is produced through the declarative suites
(``SuiteRunner(config).run_rows(<asset>_rows(config, ...))``) and pinned
row-for-row against ``tests/data/suite_equivalence_rows.json``: same keys
in the same order, same floats to the last bit (rates, depths,
reductions).  That file holds what the original hand-rolled drivers
returned for these exact cases — the drivers consumed identical
``SeedSequence`` streams ("synthesis" and "evaluation" stages) and
identical sampling kernels, so their rows equal the suites' — and it
outlives them as the pin on what the suites publish.

Each case runs once per module (the ``tiny_rows`` fixture); the structural
checks of what a row of each asset contains read the same rows.

The checked-in golden rows under ``results/`` get the same treatment for
the two cheapest assets: a fresh quick-budget run must reproduce every
stored ``row`` and ``fingerprint``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.spec import Budget
from repro.experiments import (
    SuiteConfig,
    SuiteRunner,
    figure7_rows,
    figure12_rows,
    figure13_rows,
    figure14_rows,
    figure15_rows,
    run_suite,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.suite import QUICK_BUDGET

#: Minuscule budget: the point is bit-identity, not statistics.
TINY_CONFIG = SuiteConfig(
    budget=Budget(shots=60, synthesis_shots=40, iterations_per_step=1, max_evaluations=2),
    seed=0,
)

#: The frozen case of each asset: its rows builder at ``TINY_CONFIG``.
TINY_CASES = {
    "table2": lambda config: table2_rows(config, instances=[("hexagonal_color_d3", "unionfind")]),
    "table3": lambda config: table3_rows(
        config,
        pairs=[("hexagonal_color", "hexagonal_color_d3", "hexagonal_color_d5", "unionfind")],
    ),
    "table4": lambda config: table4_rows(config, instances=["hexagonal_color_d3"]),
    "figure7": figure7_rows,
    "figure12": lambda config: figure12_rows(config, codes=["rotated_surface_d3"]),
    "figure13": lambda config: figure13_rows(config, code_name="bb_18"),
    "figure14": lambda config: figure14_rows(
        config, codes=[("hexagonal_color_d3", "unionfind")], error_rates=[1e-2, 1e-5]
    ),
    "figure15": lambda config: figure15_rows(config, codes=["rotated_surface_d3"]),
}

FROZEN_ROWS = Path(__file__).parent / "data" / "suite_equivalence_rows.json"
GOLDEN_RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.fixture(scope="module")
def frozen_rows() -> dict[str, list[dict]]:
    return json.loads(FROZEN_ROWS.read_text())


@pytest.fixture(scope="module")
def tiny_rows():
    """``tiny_rows(asset)``: the asset's TINY case rows, run once per module."""
    computed: dict[str, list[dict]] = {}

    def rows(asset: str) -> list[dict]:
        if asset not in computed:
            computed[asset] = SuiteRunner(TINY_CONFIG).run_rows(TINY_CASES[asset](TINY_CONFIG))
        return computed[asset]

    return rows


def assert_rows_identical(suite_rows: list[dict], frozen: list[dict]) -> None:
    assert [list(row) for row in suite_rows] == [list(row) for row in frozen]
    assert suite_rows == frozen


class TestTableEquivalence:
    def test_table2_row_identical(self, frozen_rows, tiny_rows):
        assert_rows_identical(tiny_rows("table2"), frozen_rows["table2"])

    def test_table3_row_identical(self, frozen_rows, tiny_rows):
        assert_rows_identical(tiny_rows("table3"), frozen_rows["table3"])

    def test_table4_cross_decoder_matrix_identical(self, frozen_rows, tiny_rows):
        assert_rows_identical(tiny_rows("table4"), frozen_rows["table4"])


class TestFigureEquivalence:
    def test_figure7_identical(self, frozen_rows, tiny_rows):
        assert_rows_identical(tiny_rows("figure7"), frozen_rows["figure7"])

    def test_figure12_identical(self, frozen_rows, tiny_rows):
        assert_rows_identical(tiny_rows("figure12"), frozen_rows["figure12"])

    def test_figure13_identical_on_small_bb_code(self, frozen_rows, tiny_rows):
        assert_rows_identical(tiny_rows("figure13"), frozen_rows["figure13"])

    def test_figure14_identical_across_the_noise_sweep(self, frozen_rows, tiny_rows):
        assert_rows_identical(tiny_rows("figure14"), frozen_rows["figure14"])

    def test_figure15_identical_under_nonuniform_noise(self, frozen_rows, tiny_rows):
        assert_rows_identical(tiny_rows("figure15"), frozen_rows["figure15"])


class TestRowStructure:
    """What a published row of each asset contains, on the TINY case rows."""

    def test_figure7_contains_all_four_schedules(self, tiny_rows):
        assert {row["schedule"] for row in tiny_rows("figure7")} == {
            "clockwise",
            "anticlockwise",
            "google",
            "trivial",
        }

    def test_figure7_rates_in_unit_interval(self, tiny_rows):
        for row in tiny_rows("figure7"):
            assert 0.0 <= row["err_x"] <= 1.0
            assert 0.0 <= row["err_z"] <= 1.0

    def test_figure7_google_depth_is_four(self, tiny_rows):
        google = next(row for row in tiny_rows("figure7") if row["schedule"] == "google")
        assert google["depth"] == 4

    def test_table2_rows_have_expected_keys(self, tiny_rows):
        rows = tiny_rows("table2")
        assert len(rows) == 1
        row = rows[0]
        for key in (
            "code",
            "decoder",
            "alpha_overall",
            "lowest_overall",
            "alpha_depth",
            "lowest_depth",
            "overall_reduction",
        ):
            assert key in row
        assert row["n"] == 7 and row["k"] == 1

    def test_table3_rows_report_volume_reduction(self, tiny_rows):
        rows = tiny_rows("table3")
        assert len(rows) == 1
        row = rows[0]
        assert row["alpha_volume"] < row["baseline_volume"]
        assert 0.0 < row["volume_reduction"] < 1.0

    def test_table4_cross_decoder_matrix_complete(self, tiny_rows):
        row = tiny_rows("table4")[0]
        for test_decoder in ("bposd", "unionfind"):
            for compile_decoder in ("bposd", "unionfind"):
                assert f"test_{test_decoder}_compile_{compile_decoder}" in row
            assert f"reduction_{test_decoder}" in row

    def test_figure12_rows(self, tiny_rows):
        rows = tiny_rows("figure12")
        assert {row["schedule"] for row in rows} == {"alphasyndrome", "google", "trivial"}
        google = next(row for row in rows if row["schedule"] == "google")
        assert google["depth"] == 4

    def test_figure13_rows_on_small_bb_code(self, tiny_rows):
        rows = tiny_rows("figure13")
        assert {row["decoder"] for row in rows} == {"bposd", "unionfind"}
        assert {row["schedule"] for row in rows} == {"alphasyndrome", "ibm"}

    def test_figure14_rows(self, tiny_rows):
        rows = tiny_rows("figure14")
        assert len(rows) == 2
        assert {row["physical_error"] for row in rows} == {1e-2, 1e-5}
        for row in rows:
            assert 0.0 <= row["alpha_overall"] <= 1.0
            assert 0.0 <= row["lowest_overall"] <= 1.0

    def test_figure15_rows(self, tiny_rows):
        rows = tiny_rows("figure15")
        assert {row["schedule"] for row in rows} == {"alphasyndrome", "google"}


class TestWorkerInvariance:
    def test_suite_rows_identical_for_any_worker_count(self, tiny_rows):
        """workers only pools execution; every published number is unchanged."""
        pooled_config = TINY_CONFIG.replace(workers=2)
        pooled = SuiteRunner(pooled_config).run_rows(TINY_CASES["table2"](pooled_config))
        assert pooled == tiny_rows("table2")


class TestGoldenRows:
    @pytest.mark.parametrize("asset", ["figure7", "threshold"])
    def test_fresh_quick_run_reproduces_checked_in_rows(self, asset, tmp_path):
        """``results/<asset>.jsonl`` is what ``repro experiments run`` prints today."""
        golden = {
            record["key"]: record for record in ArtifactStore(GOLDEN_RESULTS).load(asset).values()
        }
        config = SuiteConfig(budget=QUICK_BUDGET, seed=0)
        result = run_suite(asset, config, store=tmp_path, resume=False)
        assert [outcome.key for outcome in result.outcomes] == list(golden)
        for outcome in result.outcomes:
            assert outcome.fingerprint == golden[outcome.key]["fingerprint"], outcome.key
            assert outcome.row == golden[outcome.key]["row"], outcome.key
