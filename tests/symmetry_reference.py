"""Symmetry operators and identity checks written out as dense matrices.

An independent reference for the shift-and-sign ``SymmetryOp`` of
``starkladder.lattices``: the translation, the gauge and the pair parity
as dense matrices filled entry by entry, and both deviations as the
operator products they are defined by.  O(n^2) memory and O(n^3) time, so keep n small.
"""

import numpy as np

from starkladder.lattices import interior_margin, interior_slice


def dense_translation(dim: int, n0: int) -> np.ndarray:
    """``T[j + n0, j] = 1`` where both indices lie in the truncation."""
    t = np.zeros((dim, dim))
    for j in range(dim):
        if 0 <= j + n0 < dim:
            t[j + n0, j] = 1.0
    return t


def dense_gauge(dim: int) -> np.ndarray:
    """Diagonal ``(-1)**(j // 2)``."""
    return np.diag([(-1.0) ** (j // 2) for j in range(dim)])


def dense_parity_2d(side: int) -> np.ndarray:
    """Diagonal ``(-1)**(x // 2 + y // 2)`` on the lexicographic ``(x, y)`` basis."""
    return np.diag([(-1.0) ** (x // 2 + y // 2) for x in range(side) for y in range(side)])


def dense_ramped_translation_deviation(
    entries: np.ndarray, omega: float, n0: int = 2, margin: int | None = None
) -> float:
    """Interior-block norm of ``T H T^T - (H - n0*omega)``."""
    n = entries.shape[0]
    t = dense_translation(n, n0)
    diff = t @ entries @ t.T - (entries - n0 * omega * np.eye(n))
    m = max(interior_margin(n) if margin is None else int(margin), abs(n0))
    w = interior_slice(n, m)
    return float(np.linalg.norm(diff[w, w]))


def dense_gauge_conjugation_deviation(entries: np.ndarray) -> float:
    """Norm of ``g H g - conj(H)``."""
    g = dense_gauge(entries.shape[0])
    return float(np.linalg.norm(g @ entries @ g - np.conj(entries)))
