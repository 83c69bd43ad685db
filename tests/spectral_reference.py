"""The dense eigendecomposition written out with LAPACK's general kernels.

An independent reference for the tridiagonal route of
``spectra.eigendecompose`` and for ``ComplexSpectrum``: eigenpairs from
``scipy.linalg.eig`` in the level order written out as a loop, with the
residuals taken against the full matrix, the condition number from
``np.linalg.cond`` (an SVD) and the expansion coefficients from an LU
solve.  O(n^3), so keep n small.  Also the chain eigenvalues of LAPACK
``zgees`` on the dense matrix in C order, as the tridiagonal route called
it before it held a chain as its bands; the per-column statistics of
``spectra`` (phase convention, localization center, participation ratio)
as whole-matrix formulas, the reference of their column blocks; and the
chain eigenvectors as the tridiagonal route wrote them when it stored
every column in one n x n array.
"""

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zgees

from starkladder import spectra
from starkladder.spectra import leading_amplitude_index


def reference_level_order(values: np.ndarray) -> np.ndarray:
    """Indices of the levels by real part, ties by imaginary part ascending.

    Walks the levels by real part and starts a new tie group wherever the
    real part steps by more than ``1e-9 * max(1, max|E|)``; each group is
    then sorted by imaginary part.
    """
    tie = 1e-9 * max(1.0, float(np.abs(values).max()))
    groups = []
    for k in sorted(range(values.size), key=lambda k: values[k].real):
        if groups and values[k].real - values[groups[-1][-1]].real <= tie:
            groups[-1].append(k)
        else:
            groups.append([k])
    return np.array([k for g in groups for k in sorted(g, key=lambda k: values[k].imag)])


def dense_eigenpairs(entries: np.ndarray) -> tuple:
    """``(values, vectors, residuals)`` in :func:`reference_level_order`,
    unit-norm columns with the leading amplitude real positive."""
    values, vectors = scipy.linalg.eig(entries)
    order = reference_level_order(values)
    values, vectors = values[order], vectors[:, order]
    vectors = reference_fix_phases(vectors)
    residuals = np.linalg.norm(entries @ vectors - vectors * values, axis=0)
    return values, vectors, residuals


def reference_fix_phases(vectors: np.ndarray) -> np.ndarray:
    """A copy of ``vectors`` with unit-norm columns, each one's leading
    amplitude real positive."""
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    lead = vectors[leading_amplitude_index(vectors), np.arange(vectors.shape[1])]
    return vectors * (np.abs(lead) / lead)


def reference_localization_center(amplitudes: np.ndarray) -> np.ndarray:
    """Each column's site-index first moment of ``|f_j|^2``."""
    w = np.abs(amplitudes) ** 2
    return np.arange(w.shape[0]) @ w / w.sum(axis=0)


def reference_participation_ratio(amplitudes: np.ndarray) -> np.ndarray:
    """Each column's inverse summed fourth power of the normalized weight."""
    w = np.abs(amplitudes) ** 2
    w = w / w.sum(axis=0)
    return 1.0 / np.sum(w**2, axis=0)


def dense_condition(vectors: np.ndarray) -> float:
    """2-norm condition number from the singular values."""
    return float(np.linalg.cond(vectors))


def lu_coefficients(vectors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``V^-1 psi`` by an LU solve."""
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(vectors), psi)


def dense_schur_eigenvalues(entries: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``zgees`` without Schur vectors on the dense C-order
    matrix, which f2py copies into Fortran order, with the 3n workspace."""
    n = entries.shape[0]
    _, _, values, _, _, info = zgees(lambda _: None, entries, compute_v=0, lwork=3 * n)
    assert info == 0
    return values


def reference_chain_eigenvectors(h) -> np.ndarray:
    """The n x n eigenvector matrix of a chain ``h`` as the tridiagonal
    route formed it when it stored every column in one n x n array: inverse
    iteration at every level but the ``Im E < 0`` partner of each Schur-form
    pair of ``dgees`` (``dimer_1i``), each partner written as
    ``g * conj(x)`` from its source's raw column ``x`` with
    ``g_j = (-1)**(j // 2)``, then the phase convention on the whole
    matrix.  A chain that takes ``zgees`` (J/J*) has no partners: every
    level is solved."""
    n = h.dim
    values, plus = spectra._schur_eigenvalues(h.diag, h.off)
    order = reference_level_order(values)
    rank = np.argsort(order)
    partner_of = dict(zip(rank[plus].tolist(), rank[plus + 1].tolist()))
    solved = sorted(set(range(n)) - set(partner_of.values()))
    raw = spectra._inverse_iteration(h.diag, h.off, values[order][solved])
    g = (-1.0) ** (np.arange(n) // 2)
    vectors = np.empty((n, n), dtype=complex)
    for column, k in enumerate(solved):
        vectors[:, k] = raw[:, column]
        if k in partner_of:
            vectors[:, partner_of[k]] = g * np.conj(raw[:, column])
    return reference_fix_phases(vectors)


def reference_tridiagonal_spectrum(h) -> spectra.ComplexSpectrum:
    """The tridiagonal route of a chain ``h`` with its residual certificate
    taken in a second pass: every stored column formed by inverse iteration,
    phase-fixed and cut to its row window, then ``||T v - E v||`` by
    ``spectra.matrix_residuals`` over the level blocks of ``V``, each block
    assembled again from the windows with its partners ``g[lead] * g *
    conj(v)``."""
    diag, off = h.diag, h.off
    values, plus = spectra._schur_eigenvalues(diag, off)
    order = spectra._level_order(values)
    rank = np.argsort(order)
    values = values[order]
    partner = rank[plus + 1]
    mirror = np.zeros(values.size)
    mirror[partner] = 1.0
    stored = np.flatnonzero(mirror == 0)
    windows, leads = [], []
    for block in spectra._column_blocks(stored.size):
        columns = spectra._inverse_iteration(diag, off, values[stored[block]])
        leads.append(spectra._fix_phases(columns))
        rows = np.flatnonzero(np.any(columns != 0, axis=1))
        windows.append((int(rows[0]), columns[rows[0]:rows[-1] + 1].copy()))
    layout = ()
    if plus.size:
        source = np.empty(values.size, dtype=int)
        source[stored] = np.arange(stored.size)
        source[partner] = source[rank[plus]]
        gauge = spectra._bond_gauge(off)
        mirror[partner] = gauge[np.concatenate(leads)[source[partner]]]
        layout = (source, mirror, gauge)
    spectrum = spectra.ComplexSpectrum(values, tuple(windows), np.empty(values.size),
                                       "tridiagonal", *layout)
    for block in spectra._column_blocks(values.size):
        spectrum.residuals[block] = spectra.matrix_residuals(
            h, values[block], spectrum.eigenvectors(block))
    return spectrum


def _reference_stored_times(spectrum, a: np.ndarray) -> np.ndarray:
    """``S @ a`` window by window, the first window assigned."""
    y = None
    for (first, block), start in zip(spectrum.windows, spectrum._starts):
        part = block @ a[start:start + block.shape[1]]
        if y is None:
            y = np.zeros((spectrum.dim, *part.shape[1:]), dtype=complex)
            y[first:first + len(block)] = part
        else:
            y[first:first + len(block)] += part
    return y


def reference_vectors_times(spectrum, x: np.ndarray) -> np.ndarray:
    """``V @ x`` from whole-height operands: ``B``, the partners'
    conjugated, signed rows of ``x`` at their source columns, placed at
    once; ``g * conj(S @ B)``, then ``S @ A`` added window by window."""
    stored, levels, sources, signs = spectrum._partners
    if not levels.size:
        return _reference_stored_times(spectrum, x)
    shape = (-1,) + (1,) * (x.ndim - 1)
    b = np.zeros((spectrum._starts[-1], *x.shape[1:]), dtype=complex)
    b[sources] = signs.reshape(shape) * np.conj(x[levels])
    y = np.conj(_reference_stored_times(spectrum, b))
    y *= spectrum.gauge.reshape(shape)
    for (first, block), start in zip(spectrum.windows, spectrum._starts):
        y[first:first + len(block)] += block @ x[stored[start:start + block.shape[1]]]
    return y


def reference_transpose_times(spectrum, y: np.ndarray) -> np.ndarray:
    """``V^T @ y`` with every window's product joined by ``np.concatenate``
    and ``g * y`` conjugated into a new array."""
    def stored_transpose_times(z):
        return np.concatenate([block.T @ z[first:first + len(block)]
                               for first, block in spectrum.windows])

    stored, levels, sources, signs = spectrum._partners
    if not levels.size:
        return stored_transpose_times(y)
    shape = (-1,) + (1,) * (y.ndim - 1)
    out = np.empty((spectrum.dim, *y.shape[1:]), dtype=complex)
    out[stored] = stored_transpose_times(y)
    w = stored_transpose_times(np.conj(spectrum.gauge.reshape(shape) * y))
    out[levels] = signs.reshape(shape) * np.conj(w[sources])
    return out
