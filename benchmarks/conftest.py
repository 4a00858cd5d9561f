"""Shared configuration for the benchmark harness.

Every paper asset (Tables 2-4, Figures 7, 12-15) has a matching benchmark
module that regenerates its rows through the same suite rows builders and
:class:`~repro.experiments.SuiteRunner` the CLI uses, at a laptop-sized
budget.  ``benchmark.pedantic(..., rounds=1)`` is used throughout because a
single regeneration is already the interesting unit of work; the value of
the harness is the printed rows plus the timing, not statistical timing
precision.

Paper-scale numbers are obtained through
``repro experiments run <asset> --full --shots ... --iterations ...``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.api.spec import Budget
from repro.experiments import SuiteConfig, SuiteRunner

# The reference oracles live with the unit tests; benchmarks import them by
# the same name (``oracles.dem_reference``) as the tests do.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))

#: Where the benchmark harness drops its rendered rows.  Deliberately NOT
#: ``results/`` — that directory is the suite artifact store owned by
#: ``repro experiments run`` (quick budgets, resumable JSONL logs), and the
#: bench-budget rows would silently clobber its rendered views.
BENCH_RESULTS = "results/bench"


@pytest.fixture(scope="session")
def bench_config() -> SuiteConfig:
    """Suite config used by all asset benchmarks (small but non-trivial)."""
    return SuiteConfig(
        budget=Budget(shots=200, synthesis_shots=80, iterations_per_step=2, max_evaluations=8),
        seed=0,
    )


@pytest.fixture(scope="session")
def quick_config() -> SuiteConfig:
    """Smaller config for the benchmarks that synthesise several codes."""
    return SuiteConfig(
        budget=Budget(shots=120, synthesis_shots=60, iterations_per_step=1, max_evaluations=4),
        seed=0,
    )


def run_rows(benchmark, config: SuiteConfig, rows) -> list[dict]:
    """Execute suite ``rows`` at ``config`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(
        SuiteRunner(config).run_rows, args=(rows,), rounds=1, iterations=1
    )
