"""Equivalence regression: suite-backed drivers == frozen rows, bit for bit.

Each quick-budget paper asset is produced through the declarative suites
and pinned row-for-row against ``tests/data/suite_equivalence_rows.json``:
same keys in the same order, same floats to the last bit (rates, depths,
reductions).  That file holds what the original hand-rolled drivers
returned for these exact cases — the drivers consumed identical
``SeedSequence`` streams ("synthesis" and "evaluation" stages) and
identical sampling kernels, so their rows equal the suites' — and it
outlives them as the pin on what the suites publish.

The checked-in golden rows under ``results/`` get the same treatment for
the two cheapest assets: a fresh quick-budget run must reproduce every
stored ``row`` and ``fingerprint``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentBudget,
    SuiteConfig,
    run_figure7,
    run_figure12,
    run_figure13,
    run_figure14,
    run_figure15,
    run_table2,
    run_table3,
    run_table4,
    run_suite,
)
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.suite import QUICK_BUDGET

#: Minuscule budget: the point is bit-identity, not statistics.
TINY = ExperimentBudget(
    shots=60, synthesis_shots=40, iterations_per_step=1, max_evaluations=2, seed=0
)

FROZEN_ROWS = Path(__file__).parent / "data" / "suite_equivalence_rows.json"
GOLDEN_RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.fixture(scope="module")
def frozen_rows() -> dict[str, list[dict]]:
    return json.loads(FROZEN_ROWS.read_text())


def assert_rows_identical(suite_rows: list[dict], frozen: list[dict]) -> None:
    assert [list(row) for row in suite_rows] == [list(row) for row in frozen]
    assert suite_rows == frozen


class TestTableEquivalence:
    def test_table2_row_identical(self, frozen_rows):
        rows = run_table2(TINY, instances=[("hexagonal_color_d3", "unionfind")])
        assert_rows_identical(rows, frozen_rows["table2"])

    def test_table3_row_identical(self, frozen_rows):
        rows = run_table3(
            TINY,
            pairs=[("hexagonal_color", "hexagonal_color_d3", "hexagonal_color_d5", "unionfind")],
        )
        assert_rows_identical(rows, frozen_rows["table3"])

    def test_table4_cross_decoder_matrix_identical(self, frozen_rows):
        rows = run_table4(TINY, instances=["hexagonal_color_d3"])
        assert_rows_identical(rows, frozen_rows["table4"])


class TestFigureEquivalence:
    def test_figure7_identical(self, frozen_rows):
        assert_rows_identical(run_figure7(TINY), frozen_rows["figure7"])

    def test_figure12_identical(self, frozen_rows):
        rows = run_figure12(TINY, codes=["rotated_surface_d3"])
        assert_rows_identical(rows, frozen_rows["figure12"])

    def test_figure13_identical_on_small_bb_code(self, frozen_rows):
        rows = run_figure13(TINY, code_name="bb_18")
        assert_rows_identical(rows, frozen_rows["figure13"])

    def test_figure14_identical_across_the_noise_sweep(self, frozen_rows):
        rows = run_figure14(
            TINY, codes=[("hexagonal_color_d3", "unionfind")], error_rates=[1e-2, 1e-5]
        )
        assert_rows_identical(rows, frozen_rows["figure14"])

    def test_figure15_identical_under_nonuniform_noise(self, frozen_rows):
        rows = run_figure15(TINY, codes=["rotated_surface_d3"])
        assert_rows_identical(rows, frozen_rows["figure15"])


class TestWorkerInvariance:
    def test_suite_rows_identical_for_any_worker_count(self):
        """workers only pools execution; every published number is unchanged."""
        from repro.experiments.suite import SuiteConfig, SuiteRunner
        from repro.experiments.table2 import table2_rows

        serial_config = SuiteConfig.from_experiment_budget(TINY)
        pooled_config = SuiteConfig.from_experiment_budget(TINY, workers=2)
        instances = [("hexagonal_color_d3", "unionfind")]
        serial = SuiteRunner(serial_config).run_rows(
            table2_rows(serial_config, instances=instances)
        )
        pooled = SuiteRunner(pooled_config).run_rows(
            table2_rows(pooled_config, instances=instances)
        )
        assert serial == pooled


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
