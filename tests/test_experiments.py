"""The experiments package surface: artifact format, instance lists and the
entry points retired in 1.5.0.

What each asset's rows contain is checked in ``tests/test_suite_equivalence.py``
on the rows it already computes; the statistical quality of the numbers is
the benchmark harness's concern (quick-budget rows: ``results/table2.txt``
and its siblings; code-family substitutions: DESIGN.md).
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

import repro.experiments
from repro.experiments import render_table, write_results

FROZEN_ROWS = Path(__file__).parent / "data" / "suite_equivalence_rows.json"


@pytest.fixture(scope="module")
def figure7_rows():
    return json.loads(FROZEN_ROWS.read_text())["figure7"]


class TestRender:
    def test_render_table_and_write_results(self, tmp_path, figure7_rows):
        text = render_table(figure7_rows)
        assert "schedule" in text
        path = write_results("figure7", figure7_rows, output_dir=tmp_path)
        assert path.exists()
        data = json.loads((tmp_path / "figure7.json").read_text())
        assert len(data) == len(figure7_rows)

    def test_render_empty(self):
        assert render_table([]) == "(no rows)"


class TestTable2:
    def test_full_instance_list_covers_all_families(self):
        from repro.experiments.table2 import TABLE2_FULL_INSTANCES

        codes = {name for name, _ in TABLE2_FULL_INSTANCES}
        assert any("hexagonal" in name for name in codes)
        assert any("square_octagonal" in name for name in codes)
        assert any("hyperbolic_color" in name for name in codes)
        assert any("hyperbolic_surface" in name for name in codes)
        assert any("defect" in name for name in codes)
        decoders = {decoder for _, decoder in TABLE2_FULL_INSTANCES}
        assert decoders == {"bposd", "unionfind", "mwpm"}


class TestRetiredEntryPoints:
    """``SuiteConfig`` + ``<asset>_rows`` + ``SuiteRunner`` is the one way in."""

    def test_driver_functions_and_their_budget_are_gone(self):
        # No driver function, no second budget type, no asset -> driver dict.
        names = {name for name in dir(repro.experiments) if not name.startswith("_")}
        assert {name for name in names if name.startswith("run_")} == {"run_suite"}
        assert not {name for name in names if name.endswith("Budget")}
        assert {name for name in names if name.isupper()} == {"SUITES"}

    def test_module_entry_point_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"{repro.experiments.__name__}.__main__")
