"""Table 4: cross-decoder evaluation (decoder specialisation).

A schedule compiled against decoder A is tested with decoder A and with
decoder B; the paper's hypothesis (Section 5.5) is that same-decoder
compilation wins most instances, demonstrating that AlphaSyndrome tailors
its schedules to the decoder's failure patterns.

Each instance is one :class:`~repro.experiments.suite.ExperimentRow` with
four cells — every (test decoder, compile decoder) combination as its own
:class:`~repro.api.spec.RunSpec`, the cross cells using the
``alphasyndrome:compile_decoder=...`` synthesis-spec variant.  The runner's
:class:`~repro.experiments.suite.SynthSpec` memo collapses the four cells
onto two actual searches (one per compile decoder).
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

__all__ = ["TABLE4_INSTANCES", "table4_rows"]

#: Colour-code instances used in the cross-decoder study.
TABLE4_INSTANCES: list[str] = [
    "hexagonal_color_d3",
    "hexagonal_color_d5",
    "square_octagonal_d3",
    "square_octagonal_d5",
]

_DECODER_PAIR = ("bposd", "unionfind")


def _derive_table4(view: RowView, *, code: str, decoders: tuple[str, ...]) -> dict:
    row: dict = {"code": code}
    for test_decoder in decoders:
        for compile_decoder in decoders:
            cell = f"test_{test_decoder}_compile_{compile_decoder}"
            row[cell] = view.rates(cell).overall
    for test_decoder in decoders:
        same = row[f"test_{test_decoder}_compile_{test_decoder}"]
        other = [d for d in decoders if d != test_decoder][0]
        cross = row[f"test_{test_decoder}_compile_{other}"]
        row[f"reduction_{test_decoder}"] = 1.0 - same / cross if cross > 0 else 0.0
    return row


def table4_rows(
    config: SuiteConfig,
    *,
    instances: list[str] | None = None,
    decoders: tuple[str, str] = _DECODER_PAIR,
) -> list[ExperimentRow]:
    """The Table 4 suite rows (one 2x2 cross-decoder matrix per instance)."""
    if instances is None:
        instances = TABLE4_INSTANCES[:2] if config.quick else TABLE4_INSTANCES
    rows = []
    for code_name in instances:
        runs = []
        for test_decoder in decoders:
            for compile_decoder in decoders:
                scheduler = synthesis_scheduler(
                    None if compile_decoder == test_decoder else compile_decoder
                )
                runs.append(
                    ExperimentRun(
                        f"test_{test_decoder}_compile_{compile_decoder}",
                        config.spec(
                            code=code_name, decoder=test_decoder, scheduler=scheduler
                        ),
                    )
                )
        rows.append(
            ExperimentRow(
                key=code_name,
                runs=tuple(runs),
                derive=partial(_derive_table4, code=code_name, decoders=tuple(decoders)),
            )
        )
    return rows


@register_suite(
    "table4",
    help="Cross-decoder matrix: schedules compiled for decoder A tested with decoder B",
)
def _table4_suite(config: SuiteConfig) -> list[ExperimentRow]:
    return table4_rows(config)

