"""Eigendecomposition of non-normal lattices and ladder detection.

The central objects are a certified right eigendecomposition
(:class:`ComplexSpectrum`), the arithmetic-progression search over the
complex spectrum (:func:`detect_ladders`), and residual certificates for
the translation / gauge / time-reversal ladder operators acting on a
reference eigenstate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zgees, zgtsv
from scipy.optimize import linear_sum_assignment

from .lattices import (
    OperatorMatrix,
    SymmetryOp,
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
# tridiagonal route keeps; above it the dense route reruns
EIGENVALUE_CONDITION_LIMIT = 1e4
# seed of the fixed start and probe vectors
_SEED = 20240607


class EigendecompositionError(RuntimeError):
    """Eigensolver failure or an uncertifiable decomposition."""


class ReferenceSelectionError(RuntimeError):
    """No admissible reference eigenstate in the requested window."""


@dataclass(frozen=True)
class ComplexSpectrum:
    """Right eigenpairs of a non-normal matrix, residual-certified.

    Eigenvalues are sorted by real part (ties: imaginary part ascending);
    ``right_eigenvectors[:, k]`` is unit-norm with its leading amplitude
    (:func:`leading_amplitude_index`) made real positive, so the
    decomposition is deterministic.  ``solver`` names the route that
    produced the eigenvectors: ``"tridiagonal"`` (one ``zgees`` without
    Schur vectors, then inverse iteration) or ``"dense"``
    (``scipy.linalg.eig``).

    The eigenvector matrix ``V`` is the (non-orthogonal) basis of every
    expansion.  Every matrix the package builds is complex symmetric, so
    for distinct eigenvalues ``V^T V = D`` is diagonal and
    ``V^-1 = D^-1 V^T``; where two seeded probes find ``V^T V`` not
    diagonal (degenerate levels, a matrix that is not symmetric) an LU
    factorization of ``V`` takes its place.  Either is set up on first use
    and kept for the lifetime of the spectrum.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    residuals: np.ndarray
    solver: str = "dense"

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def _gram_diagonal(self) -> np.ndarray | None:
        """``d = diag(V^T V)`` if two seeded probes show ``V^T V = D``, else None."""
        v = self.right_eigenvectors
        d = np.einsum("ij,ij->j", v, v)
        probes = _start_vectors(self.dim, 2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            off = (v.T @ (v @ probes)) / d[:, None] - probes
            gap = np.linalg.norm(off)
        return d if gap <= GRAM_TOL * np.linalg.norm(probes) else None

    @cached_property
    def _lu(self) -> tuple:
        with warnings.catch_warnings():  # a singular V is reported by ``condition``
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            return scipy.linalg.lu_factor(self.right_eigenvectors)

    @cached_property
    def _norm(self) -> float:
        """``||V||_2`` by power iteration (:func:`_norm_estimate`), a lower bound."""
        v = self.right_eigenvectors
        return _norm_estimate(lambda x: v @ x, lambda y: np.conj(v.T @ np.conj(y)), self.dim)

    @cached_property
    def condition(self) -> float:
        """2-norm condition number ``kappa_2(V)``; huge near an exceptional point.

        Estimated as ``||V|| ||V^-1||``, each norm by power iteration on
        ``A^H A`` (:func:`_norm_estimate`), with ``V^-1`` applied as
        ``D^-1 V^T`` where ``V^T V`` is diagonal and through the LU factors
        otherwise.  Both factors are lower bounds; no SVD is formed.  A
        singular ``V`` gives ``inf``.
        """
        v = self.right_eigenvectors
        d = self._gram_diagonal
        if d is not None:
            inverse = lambda x: (v.T @ x) / d  # noqa: E731
            inverse_h = lambda y: np.conj(v @ (np.conj(y) / d))  # noqa: E731
        else:
            lu = self._lu
            if not np.all(np.diagonal(lu[0])):
                return math.inf
            inverse = lambda x: scipy.linalg.lu_solve(lu, x, check_finite=False)  # noqa: E731
            inverse_h = lambda y: scipy.linalg.lu_solve(  # noqa: E731
                lu, y, trans=2, check_finite=False
            )
        with np.errstate(all="ignore"):  # a near-singular V may overflow
            kappa = self._norm * _norm_estimate(inverse, inverse_h, self.dim)
        return kappa if math.isfinite(kappa) else math.inf

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Expansion coefficients ``c`` of ``psi = V c``; ``psi`` a vector or
        a matrix whose columns are expanded.

        ``c = D^-1 V^T psi`` plus one refinement step with the exact
        residual, kept if every column's backward error is small,
        ``||V c - psi|| <= RECONSTRUCTION_TOL ||V|| ||c||`` (the standard
        an LU solve meets); otherwise, and when ``V^T V`` is not diagonal,
        the LU solve.

        Raises
        ------
        ValueError
            If the condition number of ``V`` exceeds ``CONDITION_LIMIT``:
            the coefficients would be dominated by rounding error.
        """
        if self.condition > CONDITION_LIMIT:
            raise ValueError(
                f"eigenvector condition number {self.condition:.2e} exceeds "
                f"{CONDITION_LIMIT:.0e}; the eigenbasis is numerically defective"
            )
        psi = np.asarray(psi, dtype=complex)
        d = self._gram_diagonal
        if d is not None:
            v = self.right_eigenvectors
            weights = d if psi.ndim == 1 else d[:, None]
            c = (v.T @ psi) / weights
            c += (v.T @ (psi - v @ c)) / weights
            miss = np.linalg.norm(v @ c - psi, axis=0)
            if np.all(miss <= RECONSTRUCTION_TOL * self._norm * np.linalg.norm(c, axis=0)):
                return c
        return scipy.linalg.lu_solve(self._lu, psi)


def _start_vectors(n: int, count: int) -> np.ndarray:
    """``count`` fixed pseudo-random complex columns of length ``n``."""
    rng = np.random.default_rng(_SEED)
    return rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))


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
        if not self.conjugate_pairing:
            return 0.0
        return max(dev for _, _, dev in self.conjugate_pairing)

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
    failures: tuple = field(default=())


def localization_center(amplitudes: np.ndarray) -> float | np.ndarray:
    """Site-index first moment of the Dirac weight |f_j|^2; one per column
    of a matrix."""
    w = np.abs(np.asarray(amplitudes)) ** 2
    total = w.sum(axis=0)
    if np.any(total == 0):
        raise ValueError("zero-norm state has no localization center")
    centers = np.arange(w.shape[0]) @ w / total
    return float(centers) if w.ndim == 1 else centers


def participation_ratio(amplitudes: np.ndarray) -> float | np.ndarray:
    """Inverse of the summed fourth power: number of sites a state occupies;
    one per column of a matrix."""
    w = np.abs(np.asarray(amplitudes)) ** 2
    w = w / w.sum(axis=0)
    ratios = 1.0 / np.sum(w**2, axis=0)
    return float(ratios) if w.ndim == 1 else ratios


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
    real positive."""
    vectors /= np.linalg.norm(vectors, axis=0)
    lead = vectors[leading_amplitude_index(vectors), np.arange(vectors.shape[1])]
    vectors *= np.abs(lead) / lead
    return vectors


def _tridiagonal_bands(entries: np.ndarray) -> tuple | None:
    """``(diagonal, off_diagonal)`` of an irreducible complex-symmetric
    tridiagonal matrix: equal off-diagonals, all nonzero, nothing outside
    the three diagonals.  None for any other matrix."""
    off = np.diagonal(entries, 1)
    if not (np.all(off != 0) and np.array_equal(off, np.diagonal(entries, -1))):
        return None
    diag = np.diagonal(entries)
    if np.count_nonzero(entries) != np.count_nonzero(diag) + 2 * off.size:
        return None
    return diag.copy(), off.copy()


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, values: np.ndarray):
    """Eigenvectors of the tridiagonal matrix at the given eigenvalues.

    Inverse iteration per eigenvalue with LAPACK ``zgtsv`` (partial
    pivoting), the shift ``INVERSE_ITERATION_SHIFT`` ulps of the matrix
    scale off the eigenvalue.  One solve from a fixed start vector locates
    the eigenvector's largest amplitude; two sweeps then start from the
    unit vector there.  Started from a vector spread over every site, the
    result keeps a floor of the other modes (about 1e-30 at n = 1000);
    from the unit vector, amplitudes far from it decay as the eigenvector
    does.  Columns come back unnormalized.  O(n) per solve, O(n^2) in all.
    None if a factorization meets an exactly zero pivot.
    """
    n = diag.size
    start = _start_vectors(n, 1)
    scale = float(np.abs(diag).max() + 2.0 * np.abs(off).max())
    nudge = INVERSE_ITERATION_SHIFT * np.finfo(float).eps * scale * (1 + 1j)
    vectors = np.empty((n, n), dtype=complex)
    for k, value in enumerate(values):
        shifted = diag - (value + nudge)
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


def _tridiagonal_residuals(diag, off, values, vectors, block: int = 64) -> np.ndarray:
    """``||T v_k - E_k v_k||`` from the three diagonals of ``T``, a block of
    columns at a time, so that no n x n temporary is formed."""
    residuals = np.empty(values.size)
    for lo in range(0, values.size, block):
        v = vectors[:, lo:lo + block]
        r = v * (diag[:, None] - values[None, lo:lo + block])
        r[:-1] += off[:, None] * v[1:]
        r[1:] += off[:, None] * v[:-1]
        residuals[lo:lo + block] = np.linalg.norm(r, axis=0)
    return residuals


def _schur_eigenvalues(entries: np.ndarray) -> np.ndarray | None:
    """Eigenvalues from the diagonal of the complex Schur form: LAPACK
    ``zgees`` without Schur vectors.  None if the QR iteration fails.

    The workspace is held at 3n.  With it the Hessenberg reduction inside
    ``zgees`` runs unblocked, and on a tridiagonal matrix, which is already
    Hessenberg, its reflectors have zero tails that LAPACK skips: O(n^2).
    From about 8n on it runs blocked, in O(n^3), as it does in ``eigvals``,
    which gives ``zgeev`` its optimal workspace: 2 to 9 times slower for
    n >= 1000, with the same QR iteration after it.
    """
    _, _, values, _, _, info = zgees(
        lambda _: None, entries, compute_v=0, lwork=3 * entries.shape[0]
    )
    return values if info == 0 else None


def _tridiagonal_spectrum(entries: np.ndarray, diag, off) -> ComplexSpectrum | None:
    """Eigenvalues from one ``zgees`` without Schur vectors
    (:func:`_schur_eigenvalues`), eigenvectors by inverse iteration.

    None if ``zgees`` or inverse iteration breaks down, if ``V^T V`` is
    not diagonal (the columns are no basis the transpose route can
    invert), or if some unit eigenvector is within
    ``1 / EIGENVALUE_CONDITION_LIMIT`` of self-orthogonal,
    ``|v^T v| -> 0``: that is the approach to an exceptional point, where
    the eigenvalues are ill-conditioned and ``zgees`` and ``eig`` may
    disagree beyond 1e-10.
    """
    values = _schur_eigenvalues(entries)
    if values is None:
        return None
    values = values[np.lexsort((values.imag, values.real))]
    vectors = _inverse_iteration(diag, off, values)
    if vectors is None:
        return None
    _fix_phases(vectors)
    residuals = _tridiagonal_residuals(diag, off, values, vectors)
    spectrum = ComplexSpectrum(values, vectors, residuals, solver="tridiagonal")
    d = spectrum._gram_diagonal
    if d is None or np.abs(d).min() < 1.0 / EIGENVALUE_CONDITION_LIMIT:
        return None
    return spectrum


def _dense_spectrum(entries: np.ndarray) -> ComplexSpectrum:
    """Eigenpairs from ``scipy.linalg.eig``; residuals from the full matrix."""
    try:
        values, vectors = scipy.linalg.eig(entries)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise EigendecompositionError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = _fix_phases(vectors[:, order])
    residuals = np.linalg.norm(entries @ vectors - vectors * values[None, :], axis=0)
    return ComplexSpectrum(values, vectors, residuals)


def eigendecompose(h: OperatorMatrix, residual_tol: float = RESIDUAL_TOL) -> ComplexSpectrum:
    """Full right eigendecomposition with a residual certificate.

    An irreducible complex-symmetric tridiagonal matrix (every chain) takes
    the tridiagonal route: one ``zgees`` without Schur vectors and O(n^2)
    inverse iteration.
    If any of its columns fails the certificate, or the route rejects its
    own result (:func:`_tridiagonal_spectrum`), the dense
    ``scipy.linalg.eig`` route reruns and is certified instead; exceptional
    points need it.  Every other matrix takes the dense route directly.

    Raises
    ------
    EigendecompositionError
        If the solver fails or any ``||H v - E v|| / ||v||`` exceeds
        ``residual_tol``; the message carries the eigenvector-matrix
        condition number (a large value flags a near-exceptional point).
    """
    entries = h.entries
    if entries.shape[0] < 2:
        raise ValueError("eigendecompose needs dim >= 2")
    bands = _tridiagonal_bands(entries)
    if bands is not None:
        spectrum = _tridiagonal_spectrum(entries, *bands)
        if spectrum is not None and np.all(spectrum.residuals < residual_tol):
            return spectrum
    spectrum = _dense_spectrum(entries)
    residuals = spectrum.residuals
    if not np.all(residuals < residual_tol):
        raise EigendecompositionError(
            f"residual certificate failed: max residual {residuals.max():.3e} "
            f">= {residual_tol:.1e}; eigenvector condition number "
            f"{spectrum.condition:.3e} (possible exceptional point)"
        )
    return spectrum


def _degenerate_indices(values: np.ndarray, tol: float) -> set:
    """Indices involved in any complex-plane cluster tighter than ``tol``.

    Compares each level of the real-part-sorted spectrum with its neighbour
    ``d`` places on, for d = 1, 2, ... while some such pair differs in real
    part by at most ``tol``.  The complex distance is rounded from that same
    real difference, so it can be below ``tol`` only inside this window.
    O(n) memory; O(n) time per offset.
    """
    order = np.argsort(values.real, kind="stable")
    ranked = values[order]
    hit = np.zeros(values.size, dtype=bool)
    for d in range(1, values.size):
        near = np.flatnonzero(ranked.real[d:] - ranked.real[:-d] <= tol)
        if near.size == 0:
            break
        close = near[np.abs(ranked[near + d] - ranked[near]) < tol]
        hit[close] = hit[close + d] = True
    return {int(k) for k in order[hit]}


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
    cluster) terminate the chain and leave a diagnostic.

    Chains are started from levels in order of real part, ties in ascending
    index order.  Each parent or successor lookup binary-searches the
    real-part-sorted spectrum for the levels whose real part is within
    tolerance of the target and applies the complex distance test to those
    alone; near-degenerate clusters are found among neighbours in the same
    order.  Cost: O(n log n + rungs * window), where ``window`` is the
    number of levels per lookup: a few, unless many levels share a real
    part.  No n x n array is formed, unless the conjugate pairing
    (:func:`_conjugate_pairing`) finds no unambiguous nearest-neighbour
    matching and falls back to the assignment on a dense cost matrix.
    """
    if expected_spacing <= 0:
        raise ValueError("expected_spacing must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    values = spectrum.eigenvalues
    n = values.size
    if n == 0:
        raise ValueError("empty spectrum")

    def local_tol(target: complex) -> float:
        return tol * max(1.0, abs(target))

    order = np.argsort(values.real, kind="stable")
    sorted_real = values.real[order]

    def window(target: complex, half: float) -> list:
        lo, hi = _window_bounds(sorted_real, target.real, half)
        return order[lo:hi].tolist()

    degenerate = _degenerate_indices(values, tol)
    diagnostics = []
    if degenerate:
        diagnostics.append(
            f"excluded {len(degenerate)} levels in near-degenerate clusters "
            f"(tol {tol:.1e}); possible exceptional points"
        )

    used: set = set()
    families = []
    for k in order.tolist():
        if k in used or k in degenerate:
            continue
        below = values[k] - expected_spacing
        lt = local_tol(below)
        has_parent = any(
            abs(values[j] - below) <= lt
            for j in window(below, lt)
            if j != k and j not in degenerate
        )
        if has_parent:
            continue
        chain = [k]
        members = {k}
        current = values[k]
        while True:
            target = current + expected_spacing
            lt = local_tol(target)
            cands = [
                j
                for j in window(target, lt)
                if j not in used and j not in degenerate and j not in members
                and abs(values[j] - target) <= lt
            ]
            if not cands:
                break
            if len(cands) > 1:
                diagnostics.append(
                    f"ambiguous rung near {target:.6g}: {len(cands)} candidates; "
                    "chain terminated"
                )
                break
            chain.append(cands[0])
            members.add(cands[0])
            current = values[cands[0]]
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
            used.update(chain)

    families.sort(key=lambda f: (-f.rung_count, f.reference_energy.real))
    unassigned = tuple(sorted(set(range(n)) - used))
    pairing = _conjugate_pairing(values, tol)
    return LadderReport(
        expected_spacing=float(expected_spacing),
        tol=float(tol),
        families=tuple(families),
        conjugate_pairing=pairing,
        unassigned=unassigned,
        diagnostics=tuple(diagnostics),
    )


def _window_bounds(sorted_real: np.ndarray, center, half):
    """``(lo, hi)`` such that ``sorted_real[lo:hi]`` holds every level within
    ``half`` of ``center``; ``center`` and ``half`` scalars or arrays.

    Widened by a few ulps, so that no level within ``half`` of a target in
    the complex plane falls outside through rounding.
    """
    pad = half + 4 * np.finfo(float).eps * (np.abs(center) + half)
    return (
        np.searchsorted(sorted_real, center - pad, side="left"),
        np.searchsorted(sorted_real, center + pad, side="right"),
    )


def _nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the point nearest each query in the complex plane, or -1
    where two points tie for nearest.

    The points bracketing a query's real part bound its nearest distance;
    the ``searchsorted`` window of that half-width then holds every point
    as near, and at least one of them.  Windows of one point need no
    distance comparison.  O(n) memory.
    """
    order = np.argsort(points.real, kind="stable")
    sorted_real = points.real[order]
    at = np.searchsorted(sorted_real, queries.real)
    left = order[np.maximum(at - 1, 0)]
    right = order[np.minimum(at, points.size - 1)]
    bound = np.minimum(np.abs(points[left] - queries), np.abs(points[right] - queries))
    lo, hi = _window_bounds(sorted_real, queries.real, bound)
    nearest = order[lo]
    for k in np.flatnonzero(hi - lo > 1):
        near = order[lo[k]:hi[k]]
        dist = np.abs(points[near] - queries[k])
        best = np.argmin(dist)
        nearest[k] = near[best] if np.count_nonzero(dist == dist[best]) == 1 else -1
    return nearest


def _conjugate_pairing(values: np.ndarray, tol: float) -> tuple:
    """Match Im>0 levels against Im<0 levels minimizing the summed
    ``|E+ - conj(E-)|``; pairs in ascending order of the Im>0 index.

    Each Im>0 level is paired with its nearest conj(Im<0) level when that
    one's nearest Im>0 level is it in turn, both without ties.  If these
    mutual pairs cover the smaller side, every level there sits at its own
    minimum distance, so they are the unique optimal assignment, the one
    ``linear_sum_assignment`` returns.  Otherwise the assignment runs on
    the dense cost matrix.
    """
    scale = max(1.0, float(np.max(np.abs(values))))
    cut = tol * scale
    plus = np.flatnonzero(values.imag > cut)
    minus = np.flatnonzero(values.imag < -cut)
    if plus.size == 0 or minus.size == 0:
        return ()
    upper = values[plus]
    mirrored = np.conj(values[minus])
    forward = _nearest(mirrored, upper)
    backward = _nearest(upper, mirrored)
    rows = np.flatnonzero((forward >= 0) & (backward[forward] == np.arange(plus.size)))
    cols = forward[rows]
    if rows.size < min(plus.size, minus.size):
        cost = np.abs(upper[:, None] - mirrored[None, :])
        rows, cols = linear_sum_assignment(cost)
    deviations = np.abs(upper[rows] - mirrored[cols])
    return tuple(
        (int(plus[r]), int(minus[c]), float(d)) for r, c, d in zip(rows, cols, deviations)
    )


def conjugation_closure_deviation(eigenvalues: np.ndarray) -> float:
    """How far the multiset {conj(E)} is from {E} (pseudo-Hermiticity)."""
    values = np.asarray(eigenvalues)
    return spectrum_multiset_distance(values, np.conj(values))


def spectrum_multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max matched distance between two eigenvalue multisets.

    Uses optimal assignment; sorting by (Re, Im) would misorder conjugate
    pairs whose real parts tie within rounding noise.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size != b.size:
        raise ValueError(f"multiset sizes differ: {a.size} vs {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def verify_ladder_operator(
    h: OperatorMatrix,
    op: SymmetryOp,
    state: ReferenceState,
    expected_shift: complex,
    margin: int | None = None,
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
    window = interior_slice(h.dim, margin)
    center = localization_center(w)
    if not in_window(center, window):
        raise ReferenceSelectionError(
            f"transformed state centered at {center:.2f} leaves the interior "
            f"window [{window.start}, {window.stop})"
        )
    e0 = np.conj(state.energy) if op.antiunitary else state.energy
    target = e0 + expected_shift
    resid = h.entries @ w - target * w
    return float(np.linalg.norm(resid[window]))


def select_reference_state(
    spectrum: ComplexSpectrum,
    window: slice | None = None,
    im_sign: str = "+",
) -> ReferenceState:
    """Pick the ladder starting rung from a certified spectrum.

    Among eigenstates whose Dirac-weight center lies inside ``window``
    (default: the interior window) and whose imaginary part has the
    requested sign, returns the one centered nearest the lattice
    midpoint.  Centers within ``1e-9 * max(1, midpoint)`` of the nearest
    one count as tied, and the lowest spectrum index among them wins, so
    rounding noise in the centers never decides.  For a numerically real
    spectrum ``im_sign`` is ignored.
    """
    if im_sign not in ("+", "-"):
        raise ValueError("im_sign must be '+' or '-'")
    dim = spectrum.dim
    win = interior_slice(dim) if window is None else window
    values = spectrum.eigenvalues
    scale = max(1.0, float(np.max(np.abs(values))))
    spectrum_is_real = float(np.max(np.abs(values.imag))) < 1e-9 * scale

    centers = localization_center(spectrum.right_eigenvectors)
    if spectrum_is_real:
        sign_ok = np.ones(dim, dtype=bool)
    elif im_sign == "+":
        sign_ok = values.imag > 1e-9 * scale
    else:
        sign_ok = values.imag < -1e-9 * scale
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
    amps = spectrum.right_eigenvectors[:, best]
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
