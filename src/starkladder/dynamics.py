"""Time evolution under non-Hermitian lattices and derived observables.

Raw evolution is never renormalized: exponential growth or decay of the
norm is the physics.  Observables that need taming carry an explicit
rescaling rate ``lam``, reported alongside the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.integrate import solve_ivp

from .lattices import LatticeKind, OperatorMatrix
from .spectra import CONDITION_LIMIT, ComplexSpectrum, eigendecompose

if TYPE_CHECKING:
    from .pairmap import PairBasis

__all__ = [
    "TimeSeries",
    "evolve",
    "gaussian_state",
    "site_state",
    "dirac_probability",
    "extract_projected_mu",
    "build_pair_product_state",
    "fidelity",
    "family_projection",
]

PROJECTION_SUPPRESSION = 1e6


@dataclass(frozen=True)
class TimeSeries:
    """Evolved snapshots ``states[k] = phi(times[k])`` on a fixed basis."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim), raw (never renormalized)
    basis_labels: tuple
    lam: float = 0.0  # rescaling rate documented with any derived probability
    method: str = "spectral"

    @property
    def initial_state(self) -> np.ndarray:
        return self.states[0]

    def state_at(self, t: float) -> np.ndarray:
        """Snapshot at the sampled time nearest ``t``."""
        k = int(np.argmin(np.abs(self.times - t)))
        return self.states[k]


def _check_times(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1D array")
    if times[0] != 0.0:
        raise ValueError("times must start at 0 (the initial state is a snapshot)")
    if np.any(np.diff(times) <= 0) and times.size > 1:
        raise ValueError("times must be strictly ascending")
    return times


def evolve(
    h: OperatorMatrix,
    psi0: np.ndarray,
    times,
    spectrum: ComplexSpectrum | None = None,
) -> TimeSeries:
    """Propagate ``psi0`` under ``exp(-i H t)`` at the sampled times.

    Default path is spectral synthesis: expand in right eigenvectors,
    attach ``exp(-i E t)`` per mode, re-synthesize -- exact to eigensolver
    precision at arbitrary ``t``.  A near-defective eigenvector matrix
    (``spectrum.condition`` above ``CONDITION_LIMIT``) falls back to an
    adaptive fourth-order integrator; ``TimeSeries.method`` records which
    path ran.
    """
    times = _check_times(times)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.dim,):
        raise ValueError(f"state dimension {psi0.shape} does not match {h.dim}")
    if not (np.all(np.isfinite(psi0.real)) and np.all(np.isfinite(psi0.imag))):
        raise ValueError("initial state has non-finite amplitudes")

    if spectrum is None:
        spectrum = eigendecompose(h)
    if spectrum.condition <= CONDITION_LIMIT:
        coeffs = spectrum.coefficients(psi0)
        phases = np.exp(-1j * np.outer(spectrum.eigenvalues, times))
        states = (spectrum.right_eigenvectors @ (coeffs[:, None] * phases)).T
        method = "spectral"
    else:
        entries = h.entries
        sol = solve_ivp(
            lambda _t, y: -1j * (entries @ y),
            (0.0, float(times[-1])),
            psi0,
            t_eval=times,
            method="RK45",
            rtol=1e-10,
            atol=1e-12,
        )
        if not sol.success:
            raise RuntimeError(f"integrator fallback failed: {sol.message}")
        states = sol.y.T.astype(complex)
        method = f"integrator (eigenvector condition {spectrum.condition:.2e})"
    states[0] = psi0  # t = 0 is the initial snapshot, exactly
    return TimeSeries(
        times=times, states=states, basis_labels=h.basis_labels, method=method
    )


def gaussian_state(alpha: float, j0: int, dim: int) -> np.ndarray:
    """Normalized Gaussian wavepacket ``exp(-alpha^2 (j - j0)^2)``."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0 <= j0 < dim:
        raise ValueError(f"j0 = {j0} outside [0, {dim})")
    j = np.arange(dim)
    amps = np.exp(-(alpha**2) * (j - j0) ** 2).astype(complex)
    return amps / np.linalg.norm(amps)


def site_state(j0: int, dim: int) -> np.ndarray:
    """Kronecker-delta state at site ``j0``."""
    if not 0 <= j0 < dim:
        raise ValueError(f"j0 = {j0} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[j0] = 1.0
    return amps


def dirac_probability(series: TimeSeries, lam: float) -> np.ndarray:
    """Rescaled site-resolved probability ``exp(-2 lam t) |phi_n(t)|^2``.

    Rows follow ``series.times``, columns ``series.basis_labels`` (site
    index in 1D, ``(x, y)`` on pair lattices, where ``lam = 0`` is the
    conventional choice).
    """
    damp = np.exp(-2.0 * lam * series.times)
    return damp[:, None] * np.abs(series.states) ** 2


def family_projection(
    spectrum: ComplexSpectrum, member_indices, psi: np.ndarray
) -> np.ndarray:
    """Component of ``psi`` inside the span of the given eigenvectors.

    Expansion runs over the full (non-orthogonal) right eigenbasis;
    coefficients outside ``member_indices`` are zeroed.
    """
    coeffs = spectrum.coefficients(psi)
    keep = np.zeros(spectrum.dim, dtype=complex)
    idx = np.asarray(list(member_indices), dtype=int)
    keep[idx] = coeffs[idx]
    return spectrum.right_eigenvectors @ keep


def extract_projected_mu(
    series: TimeSeries,
    e0: complex,
    t_late: float | None = None,
    min_suppression: float = PROJECTION_SUPPRESSION,
) -> np.ndarray:
    """Site profile left after evolution has projected out decaying modes.

    Long non-unitary evolution exponentially favors the growing-ladder
    component; the returned profile is the normalized amplitude vector of
    ``exp(i E0 t) phi(t)`` at the sampled time nearest ``t_late`` (default:
    the last snapshot).

    Raises
    ------
    ValueError
        If ``Im E0 <= 0`` (no projection mechanism for Hermitian spectra)
        or if ``exp(2 Im E0 t_late)`` has not reached ``min_suppression``.
    """
    im0 = float(np.imag(e0))
    if im0 <= 0:
        raise ValueError(
            "projection by evolution needs Im E0 > 0; Hermitian spectra do not decay"
        )
    t = float(series.times[-1]) if t_late is None else float(t_late)
    suppression = math.exp(2.0 * im0 * t)
    if suppression < min_suppression:
        raise ValueError(
            f"t_late = {t:g} suppresses the decaying sector only by "
            f"{suppression:.3g} (< {min_suppression:.1g}); evolve longer"
        )
    state = series.state_at(t)
    mu = np.exp(1j * e0 * t) * state
    nrm = np.linalg.norm(mu)
    if nrm == 0:
        raise ValueError("evolved state vanished; cannot extract a profile")
    return mu / nrm


def build_pair_product_state(mu: np.ndarray, pair_basis: "PairBasis") -> np.ndarray:
    """Two-particle product state from a 1D profile, in a pair basis.

    The underlying amplitudes are ``psi(x, y) = mu(x) * (-1)**(y // 2) *
    conj(mu(y))``, i.e. the second factor is the gauge-plus-conjugation
    image of the first.  On the electron basis the array is used as-is; the
    fermion basis takes the antisymmetric part (``x > y``), the boson basis
    the symmetric part with the diagonal kept at unit weight.  The result
    is normalized.
    """
    mu = np.asarray(mu, dtype=complex)
    side = mu.size
    signs = np.where((np.arange(side) // 2) % 2 == 0, 1.0, -1.0)
    psi = np.outer(mu, signs * np.conj(mu))

    kind = pair_basis.kind
    if kind is LatticeKind.PAIR_2D_ELECTRON:
        amps = psi.ravel()
    elif kind is LatticeKind.PAIR_2D_FERMION:
        amps = np.array(
            [(psi[x, y] - psi[y, x]) / math.sqrt(2.0) for x, y in pair_basis.labels]
        )
    elif kind is LatticeKind.PAIR_2D_BOSON:
        amps = np.array(
            [
                psi[x, y] if x == y else (psi[x, y] + psi[y, x]) / math.sqrt(2.0)
                for x, y in pair_basis.labels
            ]
        )
    else:
        raise ValueError(f"not a pair basis: {kind!r}")
    nrm = np.linalg.norm(amps)
    if nrm < 1e-15:
        raise ValueError(
            "pair state has zero norm after (anti)symmetrization; "
            "a single-site profile has no fermionic pair component"
        )
    return amps / nrm


def fidelity(series: TimeSeries) -> np.ndarray:
    """Normalized return probability ``|<phi(0)|phi(t)>|^2 / (norms)``.

    Bounded in [0, 1] by Cauchy-Schwarz, exactly as computed.
    """
    phi0 = series.initial_state
    n0 = np.linalg.norm(phi0) ** 2
    overlaps = np.abs(series.states @ np.conj(phi0)) ** 2
    norms = np.linalg.norm(series.states, axis=1) ** 2
    if np.any(norms == 0):
        raise ValueError("evolved state has zero norm; fidelity undefined")
    return overlaps / (norms * n0)
