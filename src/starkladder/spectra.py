"""Eigendecomposition of non-normal lattices and ladder detection.

The central objects are a certified right eigendecomposition
(:class:`ComplexSpectrum`), the arithmetic-progression search over the
complex spectrum (:func:`detect_ladders`), and residual certificates for
the translation / gauge / time-reversal ladder operators acting on a
reference eigenstate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
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


class EigendecompositionError(RuntimeError):
    """Eigensolver failure or an uncertifiable decomposition."""


class ReferenceSelectionError(RuntimeError):
    """No admissible reference eigenstate in the requested window."""


@dataclass(frozen=True)
class ComplexSpectrum:
    """Right eigenpairs of a non-normal matrix, residual-certified.

    Eigenvalues are sorted by real part (ties: imaginary part ascending);
    ``right_eigenvectors[:, k]`` is unit-norm with its largest-magnitude
    amplitude made real positive, so the decomposition is deterministic.

    The eigenvector matrix ``V`` is the (non-orthogonal) basis of every
    expansion: its condition number and LU factorization are computed on
    first use and kept for the lifetime of the spectrum.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    residuals: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def condition(self) -> float:
        """2-norm condition number of ``V``; huge near an exceptional point."""
        return float(np.linalg.cond(self.right_eigenvectors))

    @cached_property
    def _lu(self) -> tuple:
        return scipy.linalg.lu_factor(self.right_eigenvectors)

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Expansion coefficients ``c`` of ``psi = V c``.

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
        return scipy.linalg.lu_solve(self._lu, np.asarray(psi, dtype=complex))


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


def eigendecompose(h: OperatorMatrix, residual_tol: float = RESIDUAL_TOL) -> ComplexSpectrum:
    """Full right eigendecomposition with a residual certificate.

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
    try:
        values, vectors = scipy.linalg.eig(entries)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise EigendecompositionError(f"eigensolver did not converge: {exc}") from exc

    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]

    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    lead = np.argmax(np.abs(vectors), axis=0)
    phases = vectors[lead, np.arange(vectors.shape[1])]
    vectors = vectors * (np.abs(phases) / phases)[None, :]

    residuals = np.linalg.norm(entries @ vectors - vectors * values[None, :], axis=0)
    spectrum = ComplexSpectrum(values, vectors, residuals)
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
    part.  No n x n array is formed here; the conjugate pairing matches the
    Im > 0 levels against the Im < 0 ones with a dense cost matrix.
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
        # widened by a few ulps, so that no level within ``half`` of the
        # target in the complex plane falls outside through rounding
        pad = half + 4 * np.finfo(float).eps * (abs(target.real) + half)
        lo = np.searchsorted(sorted_real, target.real - pad, side="left")
        hi = np.searchsorted(sorted_real, target.real + pad, side="right")
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


def _conjugate_pairing(values: np.ndarray, tol: float) -> tuple:
    """Match Im>0 levels against Im<0 levels minimizing |E+ - conj(E-)|."""
    scale = max(1.0, float(np.max(np.abs(values))))
    cut = tol * scale
    plus = np.flatnonzero(values.imag > cut)
    minus = np.flatnonzero(values.imag < -cut)
    if plus.size == 0 or minus.size == 0:
        return ()
    cost = np.abs(values[plus][:, None] - np.conj(values[minus])[None, :])
    rows, cols = linear_sum_assignment(cost)
    return tuple(
        (int(plus[r]), int(minus[c]), float(cost[r, c])) for r, c in zip(rows, cols)
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
