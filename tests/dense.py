"""Dense boundary matrices, a test oracle for the sparse boundary maps.

The matrices are filled from ``sqfbetti.homology._boundary_columns``, so
the d o d = 0 tests check the signs that the rank computation uses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sqfbetti.homology import _boundary_columns


def boundary_matrix(
    faces_lower: Sequence[int], faces_upper: Sequence[int]
) -> np.ndarray:
    """Signed incidence matrix from d-faces (columns) to (d-1)-faces (rows).

    Vertices inside a face are taken in ascending generator index; the
    k-th deletion gets sign (-1)^k.
    """
    M = np.zeros((len(faces_lower), len(faces_upper)), dtype=np.int64)
    for c, col in enumerate(_boundary_columns(faces_lower, faces_upper)):
        for r, sign in col.items():
            M[r, c] = sign
    return M
