"""Table 2: AlphaSyndrome vs lowest-depth schedules across code families.

The paper's table spans 26 code/decoder instances over five families
(hexagonal colour, square-octagonal colour, hyperbolic colour, hyperbolic
surface, defect surface).  ``TABLE2_FULL_INSTANCES`` lists the full sweep in
this reproduction (hyperbolic families substituted as documented in
DESIGN.md); ``TABLE2_QUICK_INSTANCES`` is the subset exercised by the
default quick budget.

Declared as the ``table2`` :class:`~repro.experiments.suite.ExperimentSuite`
— every instance is one :func:`~repro.experiments.suite.comparison_row`
(an ``alphasyndrome`` run plus a ``lowest_depth`` run) — and executed
through the Pipeline/cache/adaptive stack by ``repro experiments run
table2``.
"""

from __future__ import annotations

from repro.experiments.suite import (
    ExperimentRow,
    SuiteConfig,
    comparison_row,
    register_suite,
)

__all__ = [
    "TABLE2_FULL_INSTANCES",
    "TABLE2_QUICK_INSTANCES",
    "table2_rows",
]

#: (code registry name, decoder) pairs mirroring the paper's Table 2 rows.
TABLE2_FULL_INSTANCES: list[tuple[str, str]] = [
    # Hexagonal colour codes.
    ("hexagonal_color_d3", "bposd"),
    ("hexagonal_color_d3", "unionfind"),
    ("hexagonal_color_d5", "bposd"),
    ("hexagonal_color_d5", "unionfind"),
    ("hexagonal_color_d7", "bposd"),
    ("hexagonal_color_d7", "unionfind"),
    ("hexagonal_color_d9", "bposd"),
    ("hexagonal_color_d9", "unionfind"),
    # Square-octagonal colour codes (substituted family, see DESIGN.md).
    ("square_octagonal_d3", "bposd"),
    ("square_octagonal_d3", "unionfind"),
    ("square_octagonal_d5", "bposd"),
    ("square_octagonal_d5", "unionfind"),
    ("square_octagonal_d7", "bposd"),
    ("square_octagonal_d7", "unionfind"),
    # Hyperbolic colour codes (substituted with HGP codes).
    ("hyperbolic_color_k4", "unionfind"),
    ("hyperbolic_color_k8", "unionfind"),
    ("hyperbolic_color_k16", "unionfind"),
    # Hyperbolic surface codes (substituted with HGP / toric codes).
    ("hyperbolic_surface_k4", "mwpm"),
    ("hyperbolic_surface_toric3", "mwpm"),
    ("hyperbolic_surface_toric4", "mwpm"),
    ("hyperbolic_surface_k16", "mwpm"),
    # Defect surface codes.
    ("defect_surface_d5", "mwpm"),
    ("defect_surface_d7", "mwpm"),
]

#: Small subset used by the default quick budget.
TABLE2_QUICK_INSTANCES: list[tuple[str, str]] = [
    ("hexagonal_color_d3", "unionfind"),
    ("hexagonal_color_d3", "bposd"),
    ("square_octagonal_d3", "unionfind"),
    ("hyperbolic_color_k4", "unionfind"),
    ("defect_surface_d5", "mwpm"),
]


def table2_rows(
    config: SuiteConfig, *, instances: list[tuple[str, str]] | None = None
) -> list[ExperimentRow]:
    """The Table 2 suite rows for ``config`` (quick/full instance list)."""
    if instances is None:
        instances = TABLE2_QUICK_INSTANCES if config.quick else TABLE2_FULL_INSTANCES
    return [comparison_row(code, decoder, config) for code, decoder in instances]


@register_suite(
    "table2",
    help="AlphaSyndrome vs lowest-depth logical error rates across code families",
)
def _table2_suite(config: SuiteConfig) -> list[ExperimentRow]:
    return table2_rows(config)

