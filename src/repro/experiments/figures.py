"""Figure suites: Figures 7, 12, 13, 14 and 15 of the paper.

Each figure is declared as an :class:`~repro.experiments.suite
.ExperimentSuite` whose rows are the data series the figure plots (logical
X / Z error rates per schedule); no plotting library is required — the rows
are written as text/JSON by ``repro experiments run``.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.suite import (
    ExperimentRow,
    ExperimentRun,
    RowView,
    SuiteConfig,
    register_suite,
    synthesis_scheduler,
)

__all__ = [
    "FIGURE12_CODES",
    "FIGURE14_SWEEP",
    "figure7_rows",
    "figure12_rows",
    "figure13_rows",
    "figure14_rows",
    "figure15_rows",
]

#: Rotated surface codes compared against Google's schedule in Figure 12.
FIGURE12_CODES: list[str] = [
    "rotated_surface_d3",
    "rotated_surface_d5",
    "rotated_surface_d7",
    "rotated_surface_d9",
    "rotated_surface_5x9",
]

#: Physical error rates swept in Figure 14.
FIGURE14_SWEEP: list[float] = [1e-2, 1e-3, 1e-4, 1e-5]

#: Figure 7's fixed hand-crafted schedules (label -> scheduler spec).
FIGURE7_SCHEDULES: list[tuple[str, str]] = [
    ("clockwise", "clockwise"),
    ("anticlockwise", "anticlockwise"),
    ("google", "google"),
    ("trivial", "trivial"),
]


def _derive_rates(view: RowView, *, fields: dict) -> dict:
    """Shared figure-row derivation: fixed fields + rates of the ``eval`` run."""
    rates = view.rates("eval")
    row = dict(fields)
    row.update(
        {
            "err_x": rates.error_x,
            "err_z": rates.error_z,
            "overall": rates.overall,
            "depth": view.depth("eval"),
        }
    )
    return row


def _rates_row(
    key: str, spec, fields: dict
) -> ExperimentRow:
    return ExperimentRow(
        key=key,
        runs=(ExperimentRun("eval", spec),),
        derive=partial(_derive_rates, fields=fields),
    )


# ----------------------------------------------------------------------
# Figure 7: schedule-order bias on the d=3 surface code
# ----------------------------------------------------------------------
def figure7_rows(config: SuiteConfig) -> list[ExperimentRow]:
    """Clockwise vs anti-clockwise vs Google vs trivial on ``rotated_surface_d3``."""
    return [
        _rates_row(
            f"rotated_surface_d3/{label}",
            config.spec(code="rotated_surface_d3", decoder="mwpm", scheduler=scheduler),
            {"schedule": label},
        )
        for label, scheduler in FIGURE7_SCHEDULES
    ]


@register_suite("figure7", help="Schedule-order bias: four fixed orders on the d=3 surface code")
def _figure7_suite(config: SuiteConfig) -> list[ExperimentRow]:
    return figure7_rows(config)


# ----------------------------------------------------------------------
# Figure 12: AlphaSyndrome vs Google vs trivial on rotated surface codes
# ----------------------------------------------------------------------
def figure12_rows(
    config: SuiteConfig, *, codes: list[str] | None = None
) -> list[ExperimentRow]:
    if codes is None:
        codes = FIGURE12_CODES if not config.quick else FIGURE12_CODES[:1]
    rows = []
    for code_name in codes:
        for label, scheduler in (
            ("alphasyndrome", synthesis_scheduler()),
            ("google", "google"),
            ("trivial", "trivial"),
        ):
            rows.append(
                _rates_row(
                    f"{code_name}/{label}",
                    config.spec(code=code_name, decoder="mwpm", scheduler=scheduler),
                    {"code": code_name, "schedule": label},
                )
            )
    return rows


@register_suite("figure12", help="AlphaSyndrome vs Google vs trivial on rotated surface codes")
def _figure12_suite(config: SuiteConfig) -> list[ExperimentRow]:
    return figure12_rows(config)


# ----------------------------------------------------------------------
# Figure 13: AlphaSyndrome vs IBM's schedule on a bivariate bicycle code
# ----------------------------------------------------------------------
def figure13_rows(
    config: SuiteConfig, *, code_name: str | None = None
) -> list[ExperimentRow]:
    """Quick mode uses the small ``bb_18`` instance; full mode the paper's
    ``[[72,12,6]]`` code (whose pure-Python DEM extraction takes minutes)."""
    if code_name is None:
        code_name = "bb_18" if config.quick else "bb_72_12_6"
    rows = []
    for decoder in ("bposd", "unionfind"):
        for label, scheduler in (
            ("alphasyndrome", synthesis_scheduler()),
            ("ibm", "ibm_bb"),
        ):
            rows.append(
                _rates_row(
                    f"{code_name}/{decoder}/{label}",
                    config.spec(code=code_name, decoder=decoder, scheduler=scheduler),
                    {"decoder": decoder, "schedule": label},
                )
            )
    return rows


@register_suite("figure13", help="AlphaSyndrome vs IBM's schedule on a bivariate bicycle code")
def _figure13_suite(config: SuiteConfig) -> list[ExperimentRow]:
    return figure13_rows(config)


# ----------------------------------------------------------------------
# Figure 14: behaviour as the physical error rate is scaled down
# ----------------------------------------------------------------------
def _derive_figure14(view: RowView, *, physical_error: float) -> dict:
    alpha = view.rates("alpha")
    lowest = view.rates("lowest")
    return {
        "code": view.spec("alpha").code,
        "decoder": view.spec("alpha").decoder,
        "physical_error": physical_error,
        "alpha_overall": alpha.overall,
        "lowest_overall": lowest.overall,
        "reduction": (
            1.0 - alpha.overall / lowest.overall if lowest.overall > 0 else 0.0
        ),
    }


def figure14_rows(
    config: SuiteConfig,
    *,
    codes: list[tuple[str, str]] | None = None,
    error_rates: list[float] | None = None,
) -> list[ExperimentRow]:
    codes = codes or [("hexagonal_color_d3", "unionfind")]
    if error_rates is None:
        error_rates = FIGURE14_SWEEP[:3] if config.quick else FIGURE14_SWEEP
    rows = []
    for code_name, decoder in codes:
        for physical_error in error_rates:
            noise = f"scaled:p={physical_error!r}"
            rows.append(
                ExperimentRow(
                    key=f"{code_name}/{decoder}/p={physical_error!r}",
                    runs=(
                        ExperimentRun(
                            "alpha",
                            config.spec(
                                code=code_name,
                                decoder=decoder,
                                noise=noise,
                                scheduler=synthesis_scheduler(),
                            ),
                        ),
                        ExperimentRun(
                            "lowest",
                            config.spec(
                                code=code_name,
                                decoder=decoder,
                                noise=noise,
                                scheduler="lowest_depth",
                            ),
                        ),
                    ),
                    derive=partial(_derive_figure14, physical_error=physical_error),
                )
            )
    return rows


@register_suite("figure14", help="AlphaSyndrome vs lowest-depth across physical error rates")
def _figure14_suite(config: SuiteConfig) -> list[ExperimentRow]:
    return figure14_rows(config)


# ----------------------------------------------------------------------
# Figure 15: non-uniform ancilla noise
# ----------------------------------------------------------------------
def figure15_rows(
    config: SuiteConfig, *, codes: list[str] | None = None
) -> list[ExperimentRow]:
    codes = codes or ["rotated_surface_d3"]
    # The per-ancilla noise profile comes from the "noise" stage: the
    # registry's `nonuniform` builder derives it from the integer stage
    # seed in the spec string.
    noise = f"nonuniform:variance=0.6,seed={config.stage_seed('noise')}"
    rows = []
    for code_name in codes:
        for label, scheduler in (
            ("alphasyndrome", synthesis_scheduler()),
            ("google", "google"),
        ):
            rows.append(
                _rates_row(
                    f"{code_name}/{label}",
                    config.spec(
                        code=code_name, decoder="mwpm", noise=noise, scheduler=scheduler
                    ),
                    {"code": code_name, "schedule": label},
                )
            )
    return rows


@register_suite("figure15", help="Non-uniform ancilla noise: AlphaSyndrome vs Google's schedule")
def _figure15_suite(config: SuiteConfig) -> list[ExperimentRow]:
    return figure15_rows(config)
