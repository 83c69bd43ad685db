"""Eigendecomposition of non-normal lattices and ladder detection.

The central objects are a certified right eigendecomposition
(:class:`ComplexSpectrum`), the arithmetic-progression search over the
complex spectrum (:func:`detect_ladders`), and residual certificates for
the translation / gauge / time-reversal ladder operators acting on a
reference eigenstate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgees, zgees, zgtsv
from scipy.optimize import linear_sum_assignment

from .lattices import (
    ChainMatrix,
    OperatorMatrix,
    PairMatrix,
    SymmetryOp,
    _tridiagonal,
    apply_symmetry,
    build_chain,
    in_window,
    interior_slice,
)

__all__ = [
    "ComplexSpectrum",
    "LadderFamily",
    "LadderReport",
    "ReferenceState",
    "ScanResult",
    "EigendecompositionError",
    "ReferenceSelectionError",
    "eigendecompose",
    "matrix_residuals",
    "leading_amplitude_index",
    "detect_ladders",
    "verify_ladder_operator",
    "select_reference_state",
    "scan_E0_vs_omega",
    "localization_center",
    "participation_ratio",
    "conjugation_closure_deviation",
    "spectrum_multiset_distance",
]

RESIDUAL_TOL = 1e-9
DETECTION_TOL = 1e-6
CONDITION_LIMIT = 1e12
# ``D^-1 V^T V - 1`` on the probes, relative: above it V^T V is not diagonal
GRAM_TOL = 1e-8
# backward error ``||V c - psi|| / (||V|| ||c||)`` the transpose route must
# meet, per column
RECONSTRUCTION_TOL = 1e-12
# power iteration for ||V|| and ||V^-1||: stop below this relative gain
NORM_TOL = 1e-5
NORM_MAX_STEPS = 500
# inverse-iteration shift off each eigenvalue, in ulps of the matrix scale
INVERSE_ITERATION_SHIFT = 2.0
# largest eigenvalue condition number ``1 / |v^T v|`` (unit v) the
# tridiagonal route keeps
EIGENVALUE_CONDITION_LIMIT = 1e4
# seed of the fixed start and probe vectors
_SEED = 20240607
# columns per block of every pass over an eigenvector matrix, so that no
# n x n temporary is formed (:func:`_column_blocks`)
_BLOCK = 64
# most entries of the cost matrix that the dense assignment of :func:`_match`
# may form: above the L = 80 electron closure, 6400^2 = 4.1e7
ASSIGNMENT_LIMIT = 10**8


class EigendecompositionError(RuntimeError):
    """Eigensolver failure or an uncertifiable decomposition."""


class ReferenceSelectionError(RuntimeError):
    """No admissible reference eigenstate in the requested window."""


@dataclass(frozen=True)
class ComplexSpectrum:
    """Right eigenpairs of a complex symmetric matrix, residual-certified.

    Eigenvalues are in :func:`_level_order`; eigenvector ``V[:, k]`` is
    unit-norm with its leading amplitude (:func:`leading_amplitude_index`)
    real positive, so the decomposition is deterministic.  ``solver`` names
    the route of :func:`eigendecompose`: ``"tridiagonal"``, ``"kronecker"`` or ``"dense"``.

    ``V`` is held as its stored columns ``S`` (n x m) in row ``windows``:
    one ``(first, block)`` per run of columns, ``block`` their rows from
    ``first`` to the last nonzero one, every other row exact zeros; one per
    :func:`_column_blocks` slice on the tridiagonal route, one of the whole
    ``V`` on the others.  Level ``k`` reads column ``source[k]``, and where
    ``mirror[k]`` is +-1 it is that column's gauge partner ``mirror[k] *
    gauge * conj(S[:, source[k]])`` (:func:`_gauge_image`), an eigenvector
    at the conjugate level.  Without ``source`` every level is its own
    column and ``S`` is ``V``.  Every pass over the windows goes through
    :meth:`vectors_times`, :meth:`transpose_times`, :meth:`per_column` or
    :meth:`eigenvectors`; ``right_eigenvectors`` assembles the whole ``V``.

    ``V^T V = D`` is diagonal, so ``V^-1 = D^-1 V^T`` is the one inverse of
    every expansion and of the condition number.  Where two seeded probes
    find ``V^T V`` not diagonal, ``condition`` is ``inf``: an exceptional
    point, or on the dense route a degeneracy in ``eig``'s basis.
    """

    eigenvalues: np.ndarray
    windows: tuple
    residuals: np.ndarray
    solver: str = "dense"
    source: np.ndarray | None = None
    mirror: np.ndarray | None = None
    gauge: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def _starts(self) -> np.ndarray:
        """The first column of ``S`` in each window, and ``m`` after them."""
        return np.cumsum([0, *(block.shape[1] for _, block in self.windows)])

    @cached_property
    def _partners(self) -> tuple:
        """``(stored, levels, sources, signs)``: the levels held as the
        columns of ``S``, in order; the gauge partners, the column each
        reads and its sign ``mirror``."""
        if self.source is None:
            return np.arange(self.dim), *np.empty((3, 0), dtype=int)
        levels = np.flatnonzero(self.mirror)
        return (np.flatnonzero(self.mirror == 0), levels, self.source[levels],
                self.mirror[levels])

    def eigenvectors(self, levels) -> np.ndarray:
        """``V[:, levels]`` for a slice or an index array: a view of a whole
        ``V`` window, else formed in C order from the windows."""
        (_, whole), *rest = self.windows
        if self.source is None and not rest and len(whole) == self.dim:
            return whole[:, levels]  # a view: statistics round by eig's Fortran layout
        cols = np.arange(self.dim)[levels] if self.source is None else self.source[levels]
        v = np.zeros((self.dim, cols.size), dtype=complex)
        for (first, block), start in zip(self.windows, self._starts):
            at = np.flatnonzero((cols >= start) & (cols < start + block.shape[1]))
            v[first:first + len(block), at] = block[:, cols[at] - start]
        if self.source is None:
            return v
        sign = self.mirror[levels]
        partners = np.flatnonzero(sign)
        # masked ufuncs over all of v take 4x as long
        v[:, partners] = _gauge_image(np.take(v, partners, axis=1), self.gauge, sign[partners])
        return v

    @property
    def right_eigenvectors(self) -> np.ndarray:
        """The whole ``V``, assembled on each read (n x n)."""
        return self.eigenvectors(slice(None))

    def per_column(self, function) -> np.ndarray:
        """``function(E[block], V[:, block])`` over :func:`_column_blocks`,
        each block formed in turn and dropped before the next, the results
        joined along their last axis: one value per level, or ``(k, dim)``
        where ``function`` returns ``k`` rows.  Statistics of ``|v|``
        (:func:`localization_center`, :func:`participation_ratio`) are taken
        here rather than on the windows: the centre's gemv rounds a column
        by its place in the block."""
        return _by_blocks(lambda block: function(self.eigenvalues[block],
                                                 self.eigenvectors(block)), self.dim)

    def _stored_times(self, take, y: np.ndarray | None = None) -> np.ndarray:
        """``S @ a``, or ``y + S @ a`` in place, by windows; ``take(cols)`` is
        ``a[cols]``.  A new product's first window is assigned, not added to
        zeros: a whole-matrix window gives ``S @ a`` bit for bit, ``-0.0`` too."""
        for (first, block), start in zip(self.windows, self._starts):
            part = block @ take(slice(start, start + block.shape[1]))
            if y is None:
                y = np.zeros((self.dim, *part.shape[1:]), dtype=complex)
                y[first:first + len(block)] = part
            else:
                y[first:first + len(block)] += part
            del part  # else two windows' products are alive at the next one
        return y

    def _stored_transpose_times(self, y: np.ndarray) -> np.ndarray:
        """``S^T @ y``, each window against its own rows of ``y``."""
        out = np.empty((self._starts[-1], *y.shape[1:]), dtype=complex)
        for (first, block), start in zip(self.windows, self._starts):
            out[start:start + block.shape[1]] = block.T @ y[first:first + len(block)]
        return out

    def vectors_times(self, x) -> np.ndarray:
        """``V @ x`` for a vector or a matrix ``x``, or ``x(levels)`` its rows,
        formed per window: ``S @ A + g * conj(S @ B)``, ``A`` the rows of the
        stored levels, ``B`` the partners' conjugated, signed rows at their columns."""
        rows = x if callable(x) else x.__getitem__
        stored, levels, sources, signs = self._partners
        if not levels.size:
            return self._stored_times(rows)

        def partner_rows(cols: slice) -> np.ndarray:  # B's rows of one window
            at = np.flatnonzero((sources >= cols.start) & (sources < cols.stop))
            w = rows(levels[at])
            b = np.zeros((cols.stop - cols.start, *w.shape[1:]), dtype=complex)
            b[sources[at] - cols.start] = _along_rows(signs[at], w) * np.conj(w)
            return b
        y = self._stored_times(partner_rows)
        np.conj(y, out=y)
        y *= _along_rows(self.gauge, y)
        return self._stored_times(lambda cols: rows(stored[cols]), y)

    def transpose_times(self, y: np.ndarray) -> np.ndarray:
        """``V^T @ y`` for a vector or a matrix ``y``: ``S^T y`` for the
        stored levels, ``sign * conj(S^T conj(g * y))`` for the partners."""
        stored, levels, sources, signs = self._partners
        if not levels.size:
            return self._stored_transpose_times(y)
        out = np.empty((self.dim, *y.shape[1:]), dtype=complex)
        out[stored] = self._stored_transpose_times(y)
        w = _along_rows(self.gauge, y) * y
        w = self._stored_transpose_times(np.conj(w, out=w))
        out[levels] = _along_rows(signs, w) * np.conj(w[sources])
        return out

    @cached_property
    def _gram_diagonal(self) -> np.ndarray | None:
        """``d = diag(V^T V)`` if two seeded probes show ``V^T V = D``, else
        None; ``d`` is taken on ``S``, a partner's the conjugate of its
        source's, as ``(g * conj(v))^T (g * conj(v)) = conj(v^T v)``."""
        d = np.concatenate([np.einsum("ij,ij->j", block, block) for _, block in self.windows])
        if self.source is not None:
            d = d[self.source]
            levels = self._partners[1]
            d[levels] = np.conj(d[levels])
        probes = _start_vectors(self.dim, 2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            off = self.transpose_times(self.vectors_times(probes)) / d[:, None] - probes
            gap = np.linalg.norm(off)
        return d if gap <= GRAM_TOL * np.linalg.norm(probes) else None

    def belongs_to(self, h) -> bool:
        """Whether ``h`` (of this dimension) has these eigenpairs on one seeded
        probe ``x``: ``||h V x - V (E x)|| <= sum_k |x_k| ||H v_k - E_k v_k||``
        is below ``max(RESIDUAL_TOL, 2 max residual) ||x||_1``."""
        x = _start_vectors(self.dim, 1)[:, 0]
        y = self.vectors_times(np.stack([x, self.eigenvalues * x], axis=1))
        tol = max(RESIDUAL_TOL, 2.0 * self.residuals.max())
        return bool(np.linalg.norm(h @ y[:, 0] - y[:, 1]) < tol * np.abs(x).sum())

    @cached_property
    def _norm(self) -> float:
        """``||V||_2`` by power iteration (:func:`_norm_estimate`), a lower bound."""
        return _norm_estimate(
            self.vectors_times, lambda y: np.conj(self.transpose_times(np.conj(y))), self.dim
        )

    @cached_property
    def condition(self) -> float:
        """2-norm condition number ``kappa_2(V)``; ``inf`` at an exceptional point.

        Estimated as ``||V|| ||V^-1||``, each norm by power iteration on
        ``A^H A`` (:func:`_norm_estimate`), with ``V^-1 = D^-1 V^T``.  Both
        factors are lower bounds; no SVD is formed.  ``inf`` where
        ``V^T V`` is not diagonal: ``V`` has a self-orthogonal direction.
        """
        d = self._gram_diagonal
        if d is None:
            return math.inf
        with np.errstate(all="ignore"):  # a near-singular V may overflow
            kappa = self._norm * _norm_estimate(
                lambda x: self.transpose_times(x) / d,
                lambda y: np.conj(self.vectors_times(np.conj(y) / d)),
                self.dim,
            )
        return kappa if math.isfinite(kappa) else math.inf

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Expansion coefficients ``c`` of ``psi = V c``; ``psi`` a vector or
        a matrix whose columns are expanded.

        ``c = D^-1 V^T psi`` plus one refinement step with the exact
        residual, kept if every column's backward error is small,
        ``||V c - psi|| <= RECONSTRUCTION_TOL ||V|| ||c||``.

        Raises
        ------
        ValueError
            If ``condition`` exceeds ``CONDITION_LIMIT`` (rounding would
            dominate the coefficients), or some column misses the backward
            error: ``V^T V`` is not diagonal off the probes.
        """
        if self.condition > CONDITION_LIMIT:
            raise ValueError(
                f"eigenvector condition number {self.condition:.2e} exceeds "
                f"{CONDITION_LIMIT:.0e}; the eigenbasis is numerically defective"
            )
        psi = np.asarray(psi, dtype=complex)
        weights = _along_rows(self._gram_diagonal, psi)
        c = self.transpose_times(psi) / weights
        c += self.transpose_times(psi - self.vectors_times(c)) / weights
        miss = np.linalg.norm(self.vectors_times(c) - psi, axis=0)
        bound = RECONSTRUCTION_TOL * self._norm * np.linalg.norm(c, axis=0)
        if not np.all(miss <= bound):
            raise ValueError(
                "the transpose inverse D^-1 V^T reconstructs psi with a backward "
                f"error above {RECONSTRUCTION_TOL:.0e}: V^T V is not diagonal"
            )
        return c


def _start_vectors(n: int, count: int) -> np.ndarray:
    """``count`` fixed pseudo-random complex columns of length ``n``."""
    rng = np.random.default_rng(_SEED)
    return rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))


def _along_rows(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a``, one entry per row of ``x`` (a vector or a matrix), shaped to
    broadcast against it."""
    return a.reshape((-1,) + (1,) * (x.ndim - 1))


def _norm_estimate(apply, apply_h, n: int) -> float:
    """Lower bound on ``||A||_2`` by power iteration on ``A^H A``.

    ``apply`` and ``apply_h`` multiply by ``A`` and ``A^H``.  Stops once a
    step raises the estimate by less than ``NORM_TOL`` relative, or after
    ``NORM_MAX_STEPS`` steps.
    """
    x = _start_vectors(n, 1)[:, 0]
    x /= np.linalg.norm(x)
    estimate = 0.0
    for _ in range(NORM_MAX_STEPS):
        y = apply(x)
        gain = np.linalg.norm(y)
        if not gain > estimate * (1.0 + NORM_TOL):
            return max(gain, estimate)
        estimate = gain
        x = apply_h(y)
        x /= np.linalg.norm(x)
    return estimate


@dataclass(frozen=True)
class LadderFamily:
    """One detected arithmetic progression of complex levels."""

    reference_energy: complex
    spacing: float
    rung_count: int
    member_indices: tuple
    max_spacing_deviation: float
    max_imag_spread: float

    def to_dict(self) -> dict:
        return {
            "reference_energy": [self.reference_energy.real, self.reference_energy.imag],
            "spacing": self.spacing,
            "rung_count": self.rung_count,
            "member_indices": list(self.member_indices),
            "max_spacing_deviation": self.max_spacing_deviation,
            "max_imag_spread": self.max_imag_spread,
        }


@dataclass(frozen=True)
class LadderReport:
    """Ladder families plus conjugate pairing found in a spectrum."""

    expected_spacing: float
    tol: float
    families: tuple
    conjugate_pairing: tuple  # (index_plus, index_minus, |E+ - conj(E-)|)
    unassigned: tuple
    diagnostics: tuple

    @property
    def max_pairing_deviation(self) -> float:
        return max((dev for _, _, dev in self.conjugate_pairing), default=0.0)

    def to_dict(self) -> dict:
        return {
            "expected_spacing": self.expected_spacing,
            "tol": self.tol,
            "families": [f.to_dict() for f in self.families],
            "conjugate_pairing": [
                {"index_plus": int(i), "index_minus": int(j), "deviation": float(d)}
                for i, j, d in self.conjugate_pairing
            ],
            "unassigned": list(self.unassigned),
            "diagnostics": list(self.diagnostics),
        }


@dataclass(frozen=True)
class ReferenceState:
    """A certified eigenstate used as ladder starting rung."""

    energy: complex
    amplitudes: np.ndarray
    localization_center: float
    participation_ratio: float
    index: int


@dataclass(frozen=True)
class ScanResult:
    """Reference energy versus slope, with a linear fit of the real part."""

    omegas: np.ndarray
    energies: np.ndarray  # complex, NaN where selection failed
    centers: np.ndarray
    participation_ratios: np.ndarray
    slope: float | None
    intercept: float | None
    max_fit_residual: float | None
    failures: tuple


def _column_blocks(n: int):
    """Slices of ``_BLOCK`` columns covering ``n``, the last 4 to
    ``_BLOCK + 3`` wide unless it is the only one: NumPy sums one column
    pairwise, not row by row as wider blocks do, and OpenBLAS's gemv has
    its own path for 1 to 3 contiguous columns, so a narrower last block
    would round its columns unlike the whole-matrix formula."""
    stops = range(_BLOCK, n - 3, _BLOCK)
    return map(slice, [0, *stops], [*stops, n])


def _by_blocks(function, n: int) -> np.ndarray:
    """``function(block)`` over the :func:`_column_blocks` slices of ``n``
    columns, in turn, the results joined along their last axis."""
    return np.concatenate([function(block) for block in _column_blocks(n)], axis=-1)


def _per_column(statistic, amplitudes: np.ndarray) -> float | np.ndarray:
    """``statistic`` of a vector, or of each column of a matrix by blocks."""
    a = np.asarray(amplitudes)
    if a.ndim == 1:
        return float(statistic(a))
    return _by_blocks(lambda block: statistic(a[:, block]), a.shape[1])


def _center(amplitudes: np.ndarray) -> np.ndarray:
    w = np.abs(amplitudes) ** 2
    total = w.sum(axis=0)
    if np.any(total == 0):
        raise ValueError("zero-norm state has no localization center")
    return np.arange(w.shape[0]) @ w / total


def _inverse_fourth_power(amplitudes: np.ndarray) -> np.ndarray:
    w = np.abs(amplitudes) ** 2
    w = w / w.sum(axis=0)
    return 1.0 / np.sum(w**2, axis=0)


def localization_center(amplitudes: np.ndarray) -> float | np.ndarray:
    """Site-index first moment of the Dirac weight |f_j|^2; one per column
    of a matrix."""
    return _per_column(_center, amplitudes)


def participation_ratio(amplitudes: np.ndarray) -> float | np.ndarray:
    """Inverse of the summed fourth power: number of sites a state occupies;
    one per column of a matrix."""
    return _per_column(_inverse_fourth_power, amplitudes)


def leading_amplitude_index(vectors: np.ndarray) -> np.ndarray:
    """Row of each column's phase reference: the first amplitude whose
    magnitude is within ``1e-9`` (relative) of the column maximum.

    Eigenvectors of the dimer chains often carry two amplitudes of equal
    magnitude; the tolerance keeps rounding noise from choosing between
    them, as in :func:`select_reference_state`.
    """
    mags = np.abs(vectors)
    return np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=0), axis=0)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Scale each column, in place, to unit norm with its leading amplitude
    real positive, a block of columns at a time; returns the row of each
    column's leading amplitude (:func:`leading_amplitude_index`)."""
    def fix(block: slice) -> np.ndarray:
        v = vectors[:, block]
        v /= np.linalg.norm(v, axis=0)
        leads = leading_amplitude_index(v)
        lead = v[leads, np.arange(v.shape[1])]
        v *= np.abs(lead) / lead
        return leads
    return _by_blocks(fix, vectors.shape[1])


def _level_order(values: np.ndarray) -> np.ndarray:
    """Indices that sort levels by real part, ties by imaginary part
    ascending.  Neighbours in real part within ``1e-9 * max(1, max|E|)``
    count as tied, so rounding never orders the conjugate pairs of the
    dimer chains, whose real parts are equal in exact arithmetic.
    """
    by_real = np.argsort(values.real, kind="stable")
    steps = np.diff(values.real[by_real])
    tie = 1e-9 * max(1.0, float(np.abs(values).max()))
    group = np.concatenate(([0], np.cumsum(steps > tie)))
    return by_real[np.lexsort((values.imag[by_real], group))]


def _bond_gauge(off: np.ndarray) -> np.ndarray:
    """Gauge signs ``g`` of a chain whose bonds are real or imaginary:
    ``g_0 = 1``, and the sign flips across every imaginary bond.

    ``g = D^2`` for the diagonal unitary ``D`` of the real gauge image
    ``J = D^-1 T D`` (:func:`_schur_eigenvalues`), so ``T`` maps
    ``g * conj(v)`` to ``conj(E) g * conj(v)`` wherever ``T v = E v``.  On
    ``dimer_1i``, ``g_j = (-1)**(j // 2)``.
    """
    return np.concatenate(([1.0], np.cumprod(np.where(off.real == 0, -1.0, 1.0))))


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, values: np.ndarray):
    """Eigenvectors of the tridiagonal matrix at the given eigenvalues (the
    stored levels of :func:`_tridiagonal_spectrum`), one column each, unnormalized.

    Inverse iteration per eigenvalue with LAPACK ``zgtsv`` (partial
    pivoting), the shift ``INVERSE_ITERATION_SHIFT`` ulps of the matrix
    scale off the eigenvalue.  One solve from a fixed start vector locates
    the eigenvector's largest amplitude; two sweeps then start from the
    unit vector there.  Started from a vector spread over every site, the
    result keeps a floor of the other modes (about 1e-30 at n = 1000);
    from the unit vector, amplitudes far from it decay as the eigenvector
    does.

    O(n) per solve, O(n m) for m levels.  None if a factorization meets an
    exactly zero pivot.
    """
    n = diag.size
    start = _start_vectors(n, 1)
    scale = float(np.abs(diag).max() + 2.0 * np.abs(off).max())
    nudge = INVERSE_ITERATION_SHIFT * np.finfo(float).eps * scale * (1 + 1j)
    vectors = np.empty((n, values.size), dtype=complex)
    for k in range(values.size):
        shifted = diag - (values[k] + nudge)
        _, _, _, x, info = zgtsv(off, shifted, off, start)
        if info != 0:
            return None
        unit = np.zeros((n, 1), dtype=complex)
        unit[np.argmax(np.abs(x))] = 1.0
        x = unit
        for _ in range(2):
            _, _, _, x, info = zgtsv(off, shifted, off, x / np.linalg.norm(x))
            if info != 0:
                return None
        vectors[:, k] = x[:, 0]
    return vectors


def _gauge_image(v: np.ndarray, gauge: np.ndarray, sign) -> np.ndarray:
    """``sign * gauge * conj(v)`` in place: each column's gauge partner (:func:`_bond_gauge`)."""
    np.conjugate(v, out=v)
    v *= gauge[:, None]
    return np.multiply(v, sign, out=v)


def _schur_eigenvalues(diag: np.ndarray, off: np.ndarray) -> tuple | None:
    """``(values, plus)``: a chain's eigenvalues from one Schur form
    without Schur vectors, and the indices ``plus`` whose conjugate
    ``values[plus + 1] == conj(values[plus])`` is exact.  None if the QR
    iteration fails.

    A chain with a real diagonal and only real or imaginary bonds is
    similar, through a diagonal unitary ``D`` (entries +-1, +-i), to the
    real tridiagonal ``J = D^-1 T D``: diagonal ``a``, superdiagonal
    ``|t|``, subdiagonal ``|t|`` across real and ``-|t|`` across imaginary
    bonds.  LAPACK ``dgees`` takes ``J`` in real arithmetic and returns
    each complex pair as exact conjugates, the one with ``Im > 0`` first.
    Only the ``plus`` levels get a stored column (:func:`_tridiagonal_spectrum`).
    Every chain with a complex bond product ``t^2`` takes ``zgees`` on
    ``T``, and ``plus`` is empty.  Either matrix is built from the bands in
    Fortran order and overwritten in place: the one n x n transient of the route.

    The workspace is held at 3n.  With it the Hessenberg reduction inside
    either routine runs unblocked, and on a tridiagonal matrix, which is
    already Hessenberg, its reflectors have zero tails that LAPACK skips:
    O(n^2).  From about 8n on it runs blocked, in O(n^3), as it does in
    ``eigvals``, which gives ``zgeev`` its optimal workspace: 2 to 9 times
    slower for n >= 1000, with the same QR iteration after it.
    """
    n = diag.size
    if np.all(diag.imag == 0) and np.all((off.real == 0) | (off.imag == 0)):
        image = _tridiagonal(diag.real, np.abs(off),
                             np.where(off.real == 0, -1.0, 1.0) * np.abs(off), order="F")
        _, _, re, im, _, _, info = dgees(
            lambda *_: None, image, compute_v=0, lwork=3 * n, overwrite_a=1
        )
        return (re + 1j * im, np.flatnonzero(im > 0)) if info == 0 else None
    _, _, values, _, _, info = zgees(
        lambda _: None, _tridiagonal(diag, off, order="F"), compute_v=0, lwork=3 * n,
        overwrite_a=1,
    )
    return (values, np.empty(0, dtype=int)) if info == 0 else None


def _tridiagonal_spectrum(h: ChainMatrix) -> ComplexSpectrum | None:
    """Eigenvalues from one Schur form without Schur vectors
    (:func:`_schur_eigenvalues`); eigenvectors by inverse iteration
    (:func:`_inverse_iteration`), a :func:`_column_blocks` slice at a time,
    each block phase-fixed, certified by :func:`matrix_residuals` and cut to
    its row window while it is alive, for every level but the ``Im E < 0``
    partners of a real Schur form.  A partner is its source column's gauge image
    ``g[lead] * g * conj(v)`` (:func:`_gauge_image`, ``lead`` the source's
    leading row), the column the phase convention makes of ``g * conj(v)``,
    never stored: it is formed in place of the block once its window is kept,
    and certified by its own residual against the complex ``T``.

    None if the QR iteration or inverse iteration breaks down, if ``V^T V`` is
    not diagonal (the columns are no basis the transpose route can invert), or
    if some unit eigenvector is within ``1 / EIGENVALUE_CONDITION_LIMIT`` of
    self-orthogonal, ``|v^T v| -> 0``: the approach to an exceptional point,
    where the Schur form and ``eig`` may disagree beyond 1e-10.
    """
    diag, off = h.diag, h.off
    found = _schur_eigenvalues(diag, off)
    if found is None:
        return None
    values, plus = found
    order = _level_order(values)
    rank = np.argsort(order)  # the level index of each Schur-form index
    values = values[order]
    partner = rank[plus + 1]  # the Im E < 0 level of each pair
    mirror = np.zeros(values.size)
    mirror[partner] = 1.0  # its sign is set below, from its source's lead
    stored = np.flatnonzero(mirror == 0)
    source = np.searchsorted(stored, np.arange(values.size))  # a stored level's own column
    source[partner] = source[rank[plus]]
    gauge, residuals, windows = _bond_gauge(off), np.empty(values.size), []
    for block in _column_blocks(stored.size):  # one n x _BLOCK array at a time
        e = values[stored[block]]
        columns = _inverse_iteration(diag, off, e)
        if columns is None:
            return None
        leads = _fix_phases(columns)
        residuals[stored[block]] = matrix_residuals(h, e, columns)
        rows = np.flatnonzero(np.any(columns != 0, axis=1))
        windows.append((int(rows[0]), columns[rows[0]:rows[-1] + 1].copy()))
        here = partner[(source[partner] >= block.start) & (source[partner] < block.stop)]
        if here.size:  # the partners' columns g[lead] * g * conj(v), in place of the block
            at = source[here] - block.start
            mirror[here] = gauge[leads[at]]
            columns = _gauge_image(columns, gauge, gauge[leads])
            residuals[here] = matrix_residuals(h, np.conj(e), columns)[at]
        del columns  # before the next block's inverse iteration forms its own
    layout = (source, mirror, gauge) if plus.size else ()  # zgees: every level its own column
    spectrum = ComplexSpectrum(values, tuple(windows), residuals, "tridiagonal", *layout)
    d = spectrum._gram_diagonal
    if d is None or np.abs(d).min() < 1.0 / EIGENVALUE_CONDITION_LIMIT:
        return None
    return spectrum


def matrix_residuals(h, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``||H v_k - E_k v_k||`` per column from the product ``h @ v`` (``h``
    a dense array, an :class:`OperatorMatrix`, a :class:`ChainMatrix` or a
    :class:`PairMatrix`), a block of columns at a time."""
    def residuals(block: slice) -> np.ndarray:
        v = vectors[:, block]
        return np.linalg.norm(h @ v - v * values[block], axis=0)
    return _by_blocks(residuals, values.size)


def _dense_spectrum(entries: np.ndarray) -> ComplexSpectrum:
    """Eigenpairs from ``scipy.linalg.eig``: an arbitrary basis of each degenerate subspace."""
    try:
        values, vectors = scipy.linalg.eig(entries)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise EigendecompositionError(f"eigensolver did not converge: {exc}") from exc
    order = _level_order(values)
    values, vectors = values[order], vectors[:, order]
    _fix_phases(vectors)
    return ComplexSpectrum(values, ((0, vectors),), matrix_residuals(entries, values, vectors))


def _kronecker_spectrum(h: PairMatrix) -> ComplexSpectrum:
    """Eigenpairs of the pair lattice ``H1 x 1 + 1 x H1`` from those of its
    chain ``H1``, whatever its bonds: levels ``e_i + e_j``, vectors
    ``basis.restrict(v_i x v_j)`` over the basis's own ``(i, j)`` layout, one
    :func:`_column_blocks` slice of outer products at a time, c-orthogonal
    inside every degeneracy as ``(v_i x v_j)^T (v_k x v_l) = (v_i^T v_k)
    (v_j^T v_l)``.  An ``EigendecompositionError`` of ``H1`` propagates.
    The residuals are taken by the lattice's own product ``h @ v``.
    """
    x, y = h.basis.layout[:2]
    chain = eigendecompose(h.chain)
    values = chain.eigenvalues[x] + chain.eigenvalues[y]
    order = _level_order(values)
    values, i, j = values[order], x[order], y[order]
    rows = chain.right_eigenvectors.T  # the chain's V: L x L
    vectors = np.empty((h.dim, values.size), dtype=complex)
    for block in _column_blocks(values.size):
        vectors[:, block] = h.basis.restrict(rows[i[block], :, None] * rows[j[block], None, :]).T
    _fix_phases(vectors)
    residuals = matrix_residuals(h, values, vectors)
    return ComplexSpectrum(values, ((0, vectors),), residuals, "kronecker")


def eigendecompose(h: OperatorMatrix | ChainMatrix | PairMatrix) -> ComplexSpectrum:
    """Full right eigendecomposition with a residual certificate.

    The route, recorded as ``solver``, follows from the type of ``h``.  A
    :class:`ChainMatrix` is ``"tridiagonal"``, from its two bands: one
    Schur form without Schur vectors and O(n^2) inverse iteration
    (:func:`_tridiagonal_spectrum`).  A chain with a real
    diagonal and only real or imaginary bonds (``dimer_1i``) takes
    ``dgees`` on its real gauge image, with one inverse iteration and one
    stored column per conjugate pair, the partner's column ``g * conj(v)``
    formed on request; a chain with a complex bond product takes
    ``zgees``.  A :class:`PairMatrix` is ``"kronecker"``, from its own
    chain (:func:`_kronecker_spectrum`).  If
    either fails the certificate or rejects its own result (exceptional
    points), and for every :class:`OperatorMatrix`, ``"dense"``
    (:func:`_dense_spectrum`) runs on ``h.entries``, assembled only then:
    there a degenerate matrix reads ``condition == inf``, but no
    experiment decomposes one.

    Raises
    ------
    ValueError
        If the matrix is not complex symmetric, ``H^T = H``: the transpose
        inverse ``V^-1 = D^-1 V^T`` rests on it.
    EigendecompositionError
        If the solver fails or any ``||H v - E v|| / ||v||`` reaches
        ``RESIDUAL_TOL``; the message carries the eigenvector-matrix
        condition number (a large value flags a near-exceptional point).
    """
    if h.dim < 2:
        raise ValueError("eigendecompose needs dim >= 2")
    # chains and pair lattices are complex symmetric by construction
    if isinstance(h, ChainMatrix):
        spectrum = _tridiagonal_spectrum(h)
    elif isinstance(h, PairMatrix):
        spectrum = _kronecker_spectrum(h)
    elif not np.array_equal(h.entries, h.entries.T):
        raise ValueError("matrix is not complex symmetric (H^T != H)")
    else:
        spectrum = None
    if spectrum is not None and np.all(spectrum.residuals < RESIDUAL_TOL):
        return spectrum
    spectrum = _dense_spectrum(h.entries)
    residuals = spectrum.residuals
    if not np.all(residuals < RESIDUAL_TOL):
        raise EigendecompositionError(
            f"residual certificate failed: max residual {residuals.max():.3e} "
            f">= {RESIDUAL_TOL:.1e}; eigenvector condition number "
            f"{spectrum.condition:.3e} (possible exceptional point)"
        )
    return spectrum


def _degenerate_indices(values: np.ndarray, tol: float) -> set:
    """Indices of the levels with another level closer than ``tol``: one
    strict :func:`_within` query of every level against all of them."""
    order = np.argsort(values.real, kind="stable")
    t, j = _within(values, order, values, np.full(values.size, tol), strict=True)
    return set(t[t != j].tolist())


def detect_ladders(
    spectrum: ComplexSpectrum,
    expected_spacing: float,
    tol: float = DETECTION_TOL,
) -> LadderReport:
    """Greedy arithmetic-progression clustering of a complex spectrum.

    Starting from each level with no level at ``E - spacing``, a chain is
    extended while a unique unused level sits within ``tol * max(1, |E|)``
    of ``E + spacing`` in the complex plane (this enforces both the real
    spacing and the agreement of imaginary parts).  Chains shorter than 3
    rungs are discarded; their members are reported as unassigned.
    Ambiguous extensions (two candidates in tolerance, a near-degenerate
    cluster) terminate the chain and leave a diagnostic.  The diagnostic of
    the excluded clusters judges the whole spectrum: with ``V^T V``
    diagonal they are degeneracies; otherwise its "self-orthogonal
    direction" is an exceptional point or a dense-route degeneracy.

    Chains are started from levels in order of real part, ties in ascending
    index order.  Every level's parents and successors come from two
    :func:`_within` queries before any chain is walked, and the
    near-degenerate levels (:func:`_degenerate_indices`) from a third; the
    walk then only reads them.  Cost: O(n log n + pairs) time and
    O(n + pairs) memory, where ``pairs`` counts the levels in the
    real-part windows of the queries: a few per level, unless many levels
    share a real part.  The conjugate pairing (:func:`_conjugate_pairing`)
    falls back to the assignment on a dense cost matrix where it finds no
    covering mutual nearest neighbours, as on degenerate pair spectra.
    """
    if expected_spacing <= 0:
        raise ValueError("expected_spacing must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    values = spectrum.eigenvalues
    n = values.size
    if n == 0:
        raise ValueError("empty spectrum")
    order = np.argsort(values.real, kind="stable")

    def within_reach(targets: np.ndarray) -> tuple:
        # np.hypot rounds |E| as the scalar abs() does, where np.abs of an
        # array may differ in the last bit
        reach = tol * np.maximum(1.0, np.hypot(targets.real, targets.imag))
        return _within(values, order, targets, reach, strict=False)

    degenerate = np.zeros(n, dtype=bool)
    degenerate[list(_degenerate_indices(values, tol))] = True
    diagnostics = []
    if degenerate.any():
        cause = (
            "the spectrum has a c-orthogonal eigenbasis, so these are degeneracies"
            if spectrum._gram_diagonal is not None
            else "the spectrum's eigenbasis has a self-orthogonal direction "
            "(an exceptional point), not necessarily among these levels"
        )
        diagnostics.append(
            f"excluded {np.count_nonzero(degenerate)} levels in near-degenerate clusters "
            f"(tol {tol:.1e}); {cause}"
        )

    t, j = within_reach(values - expected_spacing)
    has_parent = np.zeros(n, dtype=bool)
    has_parent[t[(j != t) & ~degenerate[j]]] = True
    t, j = within_reach(values + expected_spacing)
    keep = ~degenerate[j]
    successors = j[keep].tolist()  # of level i: successors[first[i]:first[i + 1]]
    first = np.searchsorted(t[keep], np.arange(n + 1)).tolist()

    used = np.zeros(n, dtype=bool)
    member = np.zeros(n, dtype=bool)
    families = []
    for k in order[~degenerate[order] & ~has_parent[order]].tolist():
        if used[k]:
            continue
        chain = [k]
        member[k] = True
        while True:
            i = chain[-1]
            cands = [j for j in successors[first[i]:first[i + 1]] if not (used[j] or member[j])]
            if not cands:
                break
            if len(cands) > 1:
                diagnostics.append(
                    f"ambiguous rung near {values[i] + expected_spacing:.6g}: "
                    f"{len(cands)} candidates; chain terminated"
                )
                break
            chain.append(cands[0])
            member[cands[0]] = True
        member[chain] = False
        if len(chain) >= 3:
            member_vals = values[chain]
            steps = np.diff(np.real(member_vals))
            families.append(
                LadderFamily(
                    reference_energy=complex(member_vals[0]),
                    spacing=float(np.mean(steps)),
                    rung_count=len(chain),
                    member_indices=tuple(chain),
                    max_spacing_deviation=float(np.max(np.abs(steps - expected_spacing))),
                    max_imag_spread=float(np.ptp(np.imag(member_vals))),
                )
            )
            used[chain] = True
    del successors, first  # room for the conjugate pairing's queries

    families.sort(key=lambda f: (-f.rung_count, f.reference_energy.real))
    return LadderReport(
        expected_spacing=float(expected_spacing),
        tol=float(tol),
        families=tuple(families),
        conjugate_pairing=_conjugate_pairing(values, tol),
        unassigned=tuple(np.flatnonzero(~used).tolist()),
        diagnostics=tuple(diagnostics),
    )


def _within(values: np.ndarray, order: np.ndarray, targets: np.ndarray, radii: np.ndarray,
            strict: bool) -> tuple:
    """``(t, j)``: every level ``values[j]`` within ``radii[t]`` of
    ``targets[t]`` in the complex plane, ``<`` if ``strict`` else ``<=``,
    grouped by ``t`` ascending; ``order`` sorts ``values`` by real part.

    Each target's candidates are the levels whose real part lies in a
    ``searchsorted`` window of its radius, widened by a few ulps so that no
    level within reach falls outside through rounding; the distance
    ``np.abs`` then decides.  O((n + targets) log n + pairs) time and
    O(n + pairs) memory, where ``pairs`` counts the window members.
    """
    sorted_real = values.real[order]
    pad = radii + 4 * np.finfo(float).eps * (np.abs(targets.real) + radii)
    lo = np.searchsorted(sorted_real, targets.real - pad, side="left")
    counts = np.searchsorted(sorted_real, targets.real + pad, side="right") - lo
    t = np.repeat(np.arange(targets.size), counts)
    j = order[np.arange(t.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    dist = np.abs(values[j] - targets[t])
    near = dist < radii[t] if strict else dist <= radii[t]
    return t[near], j[near]


def _nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the point nearest each query in the complex plane, or -1
    where two points tie for nearest.

    The points bracketing a query's real part bound its nearest distance;
    one :func:`_within` query of that reach holds every point as near, and
    at least one of them, and each query takes the minimum of its pairs.
    O(n + pairs) memory.
    """
    order = np.argsort(points.real, kind="stable")
    at = np.searchsorted(points.real[order], queries.real)
    left = order[np.maximum(at - 1, 0)]
    right = order[np.minimum(at, points.size - 1)]
    bound = np.minimum(np.abs(points[left] - queries), np.abs(points[right] - queries))
    t, j = _within(points, order, queries, bound, strict=False)
    dist = np.abs(points[j] - queries[t])
    best = np.full(queries.size, np.inf)
    np.minimum.at(best, t, dist)
    at_best = dist == best[t]
    unique = at_best & (np.bincount(t[at_best], minlength=queries.size)[t] == 1)
    nearest = np.full(queries.size, -1)
    nearest[t[unique]] = j[unique]
    return nearest


def _match(a: np.ndarray, b: np.ndarray) -> tuple:
    """``(rows, cols)``, rows ascending: ``a[rows]`` matched to ``b[cols]``
    with the least summed distance.

    Pairs mutual nearest neighbours, both without ties.  If they cover the
    smaller side, each level there sits at its own minimum distance, so
    they are the unique optimal assignment, the one ``linear_sum_assignment``
    returns; otherwise that runs on the dense cost matrix, as it does on
    degenerate spectra such as the pair lattices'.

    Raises
    ------
    ValueError
        If that cost matrix would exceed ``ASSIGNMENT_LIMIT`` entries.
    """
    forward = _nearest(b, a)
    backward = _nearest(a, b)
    rows = np.flatnonzero((forward >= 0) & (backward[forward] == np.arange(a.size)))
    if rows.size < min(a.size, b.size):
        if a.size * b.size > ASSIGNMENT_LIMIT:
            raise ValueError(
                f"the dense assignment of {a.size} to {b.size} levels needs "
                f"{a.size * b.size:.2e} cost entries, above {ASSIGNMENT_LIMIT:.0e}"
            )
        return linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return rows, forward[rows]


def _conjugate_pairing(values: np.ndarray, tol: float) -> tuple:
    """Match Im>0 levels against Im<0 levels minimizing the summed
    ``|E+ - conj(E-)|`` (:func:`_match`); pairs in ascending order of the
    Im>0 index."""
    scale = max(1.0, float(np.max(np.abs(values))))
    cut = tol * scale
    plus = np.flatnonzero(values.imag > cut)
    minus = np.flatnonzero(values.imag < -cut)
    if plus.size == 0 or minus.size == 0:
        return ()
    upper = values[plus]
    mirrored = np.conj(values[minus])
    rows, cols = _match(upper, mirrored)
    deviations = np.abs(upper[rows] - mirrored[cols])
    return tuple(
        (int(plus[r]), int(minus[c]), float(d)) for r, c, d in zip(rows, cols, deviations)
    )


def conjugation_closure_deviation(eigenvalues: np.ndarray) -> float:
    """How far the multiset {conj(E)} is from {E} (pseudo-Hermiticity)."""
    values = np.asarray(eigenvalues)
    return spectrum_multiset_distance(values, np.conj(values))


def spectrum_multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max matched distance between two eigenvalue multisets, matched with
    the least summed distance (:func:`_match`); sorting by (Re, Im) would
    misorder conjugate pairs whose real parts tie within rounding noise.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    rows, cols = _match(a, b)
    return float(np.abs(a[rows] - b[cols]).max())


def verify_ladder_operator(
    h: OperatorMatrix | ChainMatrix | PairMatrix,
    op: SymmetryOp,
    state: ReferenceState,
    expected_shift: complex,
) -> float:
    """Residual of the eigenpair generated by a (possibly antiunitary) op.

    Applies ``op`` to the reference state, renormalizes, and returns
    ``||H w - E' w||`` on the interior window, where ``E'`` is
    ``E0 + shift`` for unitary ops and ``conj(E0) + shift`` when the
    composite contains time reversal.
    """
    w = apply_symmetry(op, state.amplitudes)
    nrm = np.linalg.norm(w)
    if nrm < 1e-12:
        raise ValueError("symmetry annihilated the reference state on this truncation")
    w = w / nrm
    window = interior_slice(h.dim)
    center = localization_center(w)
    if not in_window(center, window):
        raise ReferenceSelectionError(
            f"transformed state centered at {center:.2f} leaves the interior "
            f"window [{window.start}, {window.stop})"
        )
    e0 = np.conj(state.energy) if op.antiunitary else state.energy
    target = e0 + expected_shift
    resid = h @ w - target * w
    return float(np.linalg.norm(resid[window]))


def select_reference_state(spectrum: ComplexSpectrum, im_sign: str = "+") -> ReferenceState:
    """Pick the ladder starting rung from a certified spectrum.

    Among eigenstates whose Dirac-weight center lies inside the interior
    window (:func:`interior_slice`) and whose imaginary part has the
    requested sign, returns the one centered nearest the lattice
    midpoint.  Centers within ``1e-9 * max(1, midpoint)`` of the nearest
    one count as tied, and the lowest spectrum index among them wins, so
    rounding noise in the centers never decides.  For a numerically real
    spectrum ``im_sign`` is ignored.
    """
    if im_sign not in ("+", "-"):
        raise ValueError("im_sign must be '+' or '-'")
    dim = spectrum.dim
    win = interior_slice(dim)
    values = spectrum.eigenvalues
    scale = max(1.0, float(np.max(np.abs(values))))
    spectrum_is_real = float(np.max(np.abs(values.imag))) < 1e-9 * scale
    sign = 1.0 if im_sign == "+" else -1.0
    sign_ok = spectrum_is_real | (sign * values.imag > 1e-9 * scale)

    centers = spectrum.per_column(lambda _, v: localization_center(v))
    candidates = np.flatnonzero(in_window(centers, win) & sign_ok)
    if candidates.size == 0:
        raise ReferenceSelectionError(
            f"no eigenstate with Im sign '{im_sign}' centered inside "
            f"[{win.start}, {win.stop}); the truncation is too small for this "
            "slope - increase n_sites"
        )
    midpoint = (dim - 1) / 2.0
    offsets = np.abs(centers[candidates] - midpoint)
    tied = offsets <= offsets.min() + 1e-9 * max(1.0, midpoint)
    best = int(candidates[np.argmax(tied)])
    amps = spectrum.eigenvectors([best])[:, 0]  # formed: no view keeps S alive
    return ReferenceState(
        energy=complex(values[best]),
        amplitudes=amps,
        localization_center=float(centers[best]),
        participation_ratio=participation_ratio(amps),
        index=best,
    )


def scan_E0_vs_omega(
    spec_template,
    omega_grid,
    im_sign: str = "+",
) -> ScanResult:
    """Reference energy across a grid of slopes, with a linearity fit.

    Each grid point rebuilds the chain, diagonalizes it, and selects the
    reference state in the interior window; selection failures are
    recorded per point rather than aborting the scan.  The least-squares fit is of ``Re E0`` against
    ``omega``; with fewer than two valid points it is flagged undefined
    (``None``).
    """
    omegas = np.asarray(list(omega_grid), dtype=float)
    if omegas.size == 0:
        raise ValueError("omega_grid is empty")
    if np.any(omegas <= 0) or np.any(np.diff(omegas) <= 0):
        raise ValueError("omega_grid must be strictly positive and ascending")

    energies = np.full(omegas.size, np.nan + 1j * np.nan, dtype=complex)
    centers = np.full(omegas.size, np.nan)
    prs = np.full(omegas.size, np.nan)
    failures = []
    for i, omega in enumerate(omegas):
        try:
            h = build_chain(spec_template.with_omega(float(omega)))
            ref = select_reference_state(eigendecompose(h), im_sign=im_sign)
        except (ReferenceSelectionError, EigendecompositionError) as exc:
            failures.append((float(omega), str(exc)))
            continue
        energies[i] = ref.energy
        centers[i] = ref.localization_center
        prs[i] = ref.participation_ratio

    valid = ~np.isnan(energies.real)
    slope = intercept = max_resid = None
    if valid.sum() >= 2:
        coeffs = np.polyfit(omegas[valid], energies.real[valid], 1)
        slope, intercept = float(coeffs[0]), float(coeffs[1])
        fit = np.polyval(coeffs, omegas[valid])
        max_resid = float(np.max(np.abs(fit - energies.real[valid])))
    return ScanResult(
        omegas=omegas,
        energies=energies,
        centers=centers,
        participation_ratios=prs,
        slope=slope,
        intercept=intercept,
        max_fit_residual=max_resid,
        failures=tuple(failures),
    )
