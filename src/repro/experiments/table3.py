"""Table 3: space-time volume comparison at comparable logical error rates.

For each family the paper pairs a small code scheduled by AlphaSyndrome with
a larger code running the lowest-depth baseline that reaches a similar
logical error rate, and compares ``T_round x #qubits``.  Each pair is one
:class:`~repro.experiments.suite.ExperimentRow` with an ``alpha`` run
(synthesis + evaluation on the small code) and a ``baseline`` run
(lowest-depth evaluation on the large code); the derivation folds both into
the volume-reduction row via :mod:`repro.analysis`.
"""

from __future__ import annotations

from functools import partial

from repro.analysis import estimate_space_time, space_time_reduction
from repro.experiments.suite import (
    ExperimentRow,
    ExperimentRun,
    RowView,
    SuiteConfig,
    register_suite,
    synthesis_scheduler,
)

__all__ = ["TABLE3_PAIRS", "table3_rows"]

#: (family label, AlphaSyndrome code, baseline code, decoder) rows.
TABLE3_PAIRS: list[tuple[str, str, str, str]] = [
    ("hexagonal_color", "hexagonal_color_d3", "hexagonal_color_d5", "bposd"),
    ("square_octagonal", "square_octagonal_d3", "square_octagonal_d5", "bposd"),
    ("hyperbolic_surface", "hyperbolic_surface_toric3", "hyperbolic_surface_toric4", "mwpm"),
]


def _derive_table3(view: RowView, *, family: str) -> dict:
    alpha_rates = view.rates("alpha")
    baseline_rates = view.rates("baseline")
    alpha_estimate = estimate_space_time(
        view.code("alpha"), view.depth("alpha"), logical_error_rate=alpha_rates.overall
    )
    baseline_estimate = estimate_space_time(
        view.code("baseline"),
        view.depth("baseline"),
        logical_error_rate=baseline_rates.overall,
    )
    return {
        "family": family,
        "decoder": view.spec("alpha").decoder,
        "alpha_code": view.spec("alpha").code,
        "alpha_error": alpha_rates.overall,
        "alpha_depth": view.depth("alpha"),
        "alpha_time_us": alpha_estimate.round_time_us,
        "alpha_volume": alpha_estimate.volume_us_qubits,
        "baseline_code": view.spec("baseline").code,
        "baseline_error": baseline_rates.overall,
        "baseline_depth": view.depth("baseline"),
        "baseline_time_us": baseline_estimate.round_time_us,
        "baseline_volume": baseline_estimate.volume_us_qubits,
        "volume_reduction": space_time_reduction(alpha_estimate, baseline_estimate),
    }


def table3_rows(
    config: SuiteConfig, *, pairs: list[tuple[str, str, str, str]] | None = None
) -> list[ExperimentRow]:
    """The Table 3 suite rows (one per family pair)."""
    pairs = pairs or TABLE3_PAIRS
    rows = []
    for family, alpha_name, baseline_name, decoder in pairs:
        rows.append(
            ExperimentRow(
                key=f"{family}/{decoder}",
                runs=(
                    ExperimentRun(
                        "alpha",
                        config.spec(
                            code=alpha_name,
                            decoder=decoder,
                            scheduler=synthesis_scheduler(),
                        ),
                    ),
                    ExperimentRun(
                        "baseline",
                        config.spec(
                            code=baseline_name, decoder=decoder, scheduler="lowest_depth"
                        ),
                    ),
                ),
                derive=partial(_derive_table3, family=family),
            )
        )
    return rows


@register_suite(
    "table3",
    help="Space-time volume: small AlphaSyndrome-scheduled codes vs larger baselines",
)
def _table3_suite(config: SuiteConfig) -> list[ExperimentRow]:
    return table3_rows(config)

