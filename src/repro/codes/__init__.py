"""QEC code library: stabilizer/CSS base classes and concrete code families."""

from repro.codes.base import CodeValidationError, CSSCode, StabilizerCode
from repro.codes.bivariate_bicycle import bb_code_72_12_6, bivariate_bicycle_code
from repro.codes.color import hexagonal_color_code, square_octagonal_color_code, steane_code
from repro.codes.hypergraph_product import (
    hamming_7_4_check_matrix,
    hypergraph_product_code,
    repetition_check_matrix,
    toric_code,
)
from repro.codes.small import five_qubit_code, repetition_code, shor_code
from repro.codes.surface import (
    defect_surface_code,
    planar_surface_code,
    rectangular_surface_code,
    rotated_surface_code,
)
from repro.codes.xzzx import xzzx_surface_code

__all__ = [
    "StabilizerCode",
    "CSSCode",
    "CodeValidationError",
    "rotated_surface_code",
    "rectangular_surface_code",
    "planar_surface_code",
    "defect_surface_code",
    "hexagonal_color_code",
    "square_octagonal_color_code",
    "steane_code",
    "bivariate_bicycle_code",
    "bb_code_72_12_6",
    "hypergraph_product_code",
    "repetition_check_matrix",
    "hamming_7_4_check_matrix",
    "toric_code",
    "xzzx_surface_code",
    "five_qubit_code",
    "repetition_code",
    "shor_code",
]
