"""Threshold study under biased noise channels.

Builds the threshold workload twice — once under uniform depolarizing
noise and once under Z-biased noise (``eta = 10``) — using the same suite
shape (`repro.experiments.threshold.threshold_rows`), then interpolates
each crossing with `repro.analysis.threshold.estimate_crossing`.  Biased
noise moves the crossing because the surface code's X and Z distances see
very different error diets.

The noise axis is just a spec-string template, so swapping scenarios is a
one-line change; try ``"dephasing:p={p}"`` or
``"biased:p={p},eta=100"`` next.

Run with:

    python examples/biased_noise_threshold.py
"""

from __future__ import annotations

from repro.api import Budget
from repro.experiments import render_table, threshold_crossing
from repro.experiments.suite import SuiteConfig, SuiteRunner
from repro.experiments.threshold import threshold_rows

#: Shots per basis per point (bump for smoother curves).
SHOTS = 1_000
#: Physical rates swept; the crossings land inside this bracket.
ERROR_RATES = [8e-3, 3.2e-2, 6.4e-2]

SCENARIOS = [
    ("depolarizing", "scaled:p={p}"),
    ("biased eta=10", "biased:p={p},eta=10"),
]


def main() -> None:
    config = SuiteConfig(budget=Budget(shots=SHOTS), seed=0, quick=True)
    runner = SuiteRunner(config)
    for label, template in SCENARIOS:
        rows = runner.run_rows(
            threshold_rows(config, error_rates=ERROR_RATES, noise_template=template)
        )
        print(f"== {label} ==")
        print(render_table(rows))
        crossing = threshold_crossing(rows)
        if crossing is None:
            print("no crossing bracketed by this sweep\n")
        else:
            print(f"estimated threshold: p ~ {crossing:.2e}\n")


if __name__ == "__main__":
    main()
