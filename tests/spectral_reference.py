"""The dense eigendecomposition written out with LAPACK's general kernels.

An independent reference for the tridiagonal route of
``spectra.eigendecompose`` and for ``ComplexSpectrum``: eigenpairs from
``scipy.linalg.eig`` with the residuals taken against the full matrix, the
condition number from ``np.linalg.cond`` (an SVD) and the expansion
coefficients from an LU solve.  O(n^3), so keep n small.
"""

import numpy as np
import scipy.linalg

from starkladder.spectra import leading_amplitude_index


def dense_eigenpairs(entries: np.ndarray) -> tuple:
    """``(values, vectors, residuals)`` sorted by (Re, Im), unit-norm columns
    with the leading amplitude real positive."""
    values, vectors = scipy.linalg.eig(entries)
    order = np.lexsort((values.imag, values.real))
    values, vectors = values[order], vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    lead = vectors[leading_amplitude_index(vectors), np.arange(vectors.shape[1])]
    vectors = vectors * (np.abs(lead) / lead)
    residuals = np.linalg.norm(entries @ vectors - vectors * values, axis=0)
    return values, vectors, residuals


def dense_condition(vectors: np.ndarray) -> float:
    """2-norm condition number from the singular values."""
    return float(np.linalg.cond(vectors))


def lu_coefficients(vectors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``V^-1 psi`` by an LU solve."""
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(vectors), psi)
