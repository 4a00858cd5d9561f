"""Experiment suites that regenerate every table and figure of the paper.

The paper assets are declared as :class:`~repro.experiments.suite
.ExperimentSuite` objects (importing this package registers all of them in
:data:`~repro.experiments.suite.SUITES`) and executed through the
``repro.api`` stack — worker pools, the chunk cache, adaptive precision
targets and resumable artifact stores all apply.  Entry points:

* ``repro experiments run table2`` on the command line;
* ``SuiteRunner(config).run_rows(table2_rows(config))`` for the rows of one
  asset, or :func:`~repro.experiments.suite.run_suite` for a whole suite
  through an artifact store.
"""

from repro.experiments.common import render_table, write_results
from repro.experiments.figures import (
    figure7_rows,
    figure12_rows,
    figure13_rows,
    figure14_rows,
    figure15_rows,
)
from repro.experiments.suite import (
    SUITES,
    ExperimentRow,
    ExperimentRun,
    ExperimentSuite,
    SuiteConfig,
    SuiteResult,
    SuiteRowError,
    SuiteRunner,
    available_suites,
    get_suite,
    register_suite,
    run_suite,
)
from repro.experiments.table2 import table2_rows
from repro.experiments.table3 import table3_rows
from repro.experiments.table4 import table4_rows
from repro.experiments.threshold import threshold_crossing, threshold_rows

__all__ = [
    "SUITES",
    "ExperimentRow",
    "ExperimentRun",
    "ExperimentSuite",
    "SuiteConfig",
    "SuiteResult",
    "SuiteRowError",
    "SuiteRunner",
    "available_suites",
    "get_suite",
    "register_suite",
    "render_table",
    "run_suite",
    "write_results",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "figure7_rows",
    "figure12_rows",
    "figure13_rows",
    "figure14_rows",
    "figure15_rows",
    "threshold_rows",
    "threshold_crossing",
]
