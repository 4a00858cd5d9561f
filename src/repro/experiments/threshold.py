"""Threshold experiment suite: logical-vs-physical rate crossing per code.

This is the first scenario family beyond the paper's own assets: for a
code family (rotated surface codes by default) and a decoder, sweep the
physical error rate and measure the logical error rate at two or more
distances.  Below threshold the larger distance suppresses the logical
rate (``ratio < 1``); above it the ordering flips.  Rows are one swept
physical rate each, with one run per distance, so the rendered table *is*
the threshold plot in fixed-width form, and
:func:`repro.analysis.threshold.estimate_crossing` interpolates the
crossing from the stored rows.

Every run goes through the standard suite stack — worker pools, the
content-addressed chunk cache and adaptive precision budgets
(``--target-rse``) all apply, which matters here: points far from
threshold converge in a chunk or two while points near the crossing
spend the ceiling.

The noise axis is a spec-string template, so the same suite shape covers
uniform (``"scaled:p={p}"``), biased (``"biased:p={p},eta=10"``) or
dephasing (``"dephasing:p={p}"``) noise — pass ``noise_template`` to
:func:`threshold_rows`.

Default scheduler/decoder choice: the suite evaluates the *hook-robust*
``google`` schedule with the ``bposd`` decoder.  The memory-experiment
DEMs here are hypergraphs (two-qubit depolarizing mechanisms flip up to
four detectors), and the matching-based decoders approximate hyperedges:
MWPM mis-corrects a handful of *single-fault* symptoms, which puts a
linear-in-p floor under every distance and makes the curves parallel —
no crossing at any rate.  BP+OSD decodes every single hyperedge fault at
``d >= 5`` exactly (audited in ``tests/test_threshold.py``), so the
suppression regime and the crossing are actually visible.
"""

from __future__ import annotations

import math
from functools import partial

from repro.analysis.threshold import estimate_crossing, suppression_ratio
from repro.experiments.suite import (
    ExperimentRow,
    ExperimentRun,
    RowView,
    SuiteConfig,
    register_suite,
)

__all__ = [
    "THRESHOLD_SWEEP",
    "THRESHOLD_SWEEP_QUICK",
    "threshold_rows",
    "threshold_crossing",
]

#: Physical error rates swept in full mode (log-spaced; the d=3/d=5
#: crossing under the default google/bposd combination sits near 5e-2).
THRESHOLD_SWEEP: list[float] = [2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2, 6.4e-2]

#: Quick-mode subset: three points bracketing the crossing.
THRESHOLD_SWEEP_QUICK: list[float] = [8e-3, 3.2e-2, 6.4e-2]

#: Surface-code distances compared in quick / full mode.
_QUICK_DISTANCES = (3, 5)
_FULL_DISTANCES = (3, 5, 7)


def _derive_threshold(view: RowView, *, physical_error: float, distances: tuple[int, ...]) -> dict:
    """Fold one swept point's per-distance runs into the published row.

    ``ratio`` is published as ``None`` when it is not finite (only the
    small distance measured zero errors, possible at quick Monte-Carlo
    budgets): the artifact files must stay strict JSON, and ``Infinity``
    is not a JSON token.
    """
    row: dict = {"p": physical_error}
    rates = {}
    for distance in distances:
        overall = view.rates(f"d{distance}").overall
        rates[distance] = overall
        row[f"err_d{distance}"] = overall
    smallest, largest = min(distances), max(distances)
    ratio = suppression_ratio(rates[smallest], rates[largest])
    row["ratio"] = ratio if math.isfinite(ratio) else None
    row["suppressed"] = rates[largest] < rates[smallest]
    return row


def threshold_rows(
    config: SuiteConfig,
    *,
    distances: "tuple[int, ...] | None" = None,
    error_rates: "list[float] | None" = None,
    code_template: str = "surface:d={d}",
    noise_template: str = "scaled:p={p}",
    decoder: str = "bposd",
    scheduler: str = "google",
) -> list[ExperimentRow]:
    """Build the threshold suite's rows: one per swept physical rate.

    Parameters
    ----------
    config:
        Suite-wide budget/seed/quick/workers configuration.
    distances:
        Code distances compared per point (default ``(3, 5)`` quick,
        ``(3, 5, 7)`` full).
    error_rates:
        Physical rates to sweep (default :data:`THRESHOLD_SWEEP_QUICK` /
        :data:`THRESHOLD_SWEEP` by mode).
    code_template:
        Code spec template with a ``{d}`` placeholder.
    noise_template:
        Noise spec template with a ``{p}`` placeholder (``repr`` of the
        swept rate is substituted, so floats round-trip exactly).
    decoder:
        Decoder spec evaluated at every point (default ``"bposd"`` — see
        the module docstring for why matching decoders flatten the
        curves here).
    scheduler:
        Scheduler spec (a fixed hook-robust schedule keeps the sweep
        cheap and clean; use ``"alphasyndrome"`` for a synthesis-aware
        threshold study).
    """
    if distances is None:
        distances = _QUICK_DISTANCES if config.quick else _FULL_DISTANCES
    if error_rates is None:
        error_rates = THRESHOLD_SWEEP_QUICK if config.quick else THRESHOLD_SWEEP
    distances = tuple(sorted(distances))
    rows = []
    for physical_error in error_rates:
        noise = noise_template.format(p=repr(physical_error))
        rows.append(
            ExperimentRow(
                key=f"p={physical_error!r}",
                runs=tuple(
                    ExperimentRun(
                        f"d{distance}",
                        config.spec(
                            code=code_template.format(d=distance),
                            noise=noise,
                            decoder=decoder,
                            scheduler=scheduler,
                        ),
                    )
                    for distance in distances
                ),
                derive=partial(
                    _derive_threshold,
                    physical_error=physical_error,
                    distances=distances,
                ),
            )
        )
    return rows


@register_suite(
    "threshold",
    help="Logical-vs-physical error rate crossing: surface code d=3 vs d=5(+7)",
)
def _threshold_suite(config: SuiteConfig) -> list[ExperimentRow]:
    """Default threshold suite: rotated surface codes under uniform noise."""
    return threshold_rows(config)


def threshold_crossing(rows: "list[dict]") -> float | None:
    """Interpolated threshold estimate from published threshold rows.

    ``rows`` are the suite's row dictionaries (``p`` plus ``err_d*``
    columns); the crossing of the smallest and largest distance curves is
    estimated with :func:`repro.analysis.threshold.estimate_crossing`.
    Returns ``None`` when the sweep does not bracket a crossing.
    """
    if not rows:
        return None
    distances = sorted(
        int(key[len("err_d"):]) for key in rows[0] if key.startswith("err_d")
    )
    if len(distances) < 2:
        return None
    ordered = sorted(rows, key=lambda row: row["p"])
    return estimate_crossing(
        [row["p"] for row in ordered],
        [row[f"err_d{distances[0]}"] for row in ordered],
        [row[f"err_d{distances[-1]}"] for row in ordered],
    )

