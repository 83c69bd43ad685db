"""Time evolution under non-Hermitian lattices and derived observables.

Raw evolution is never renormalized: exponential growth or decay of the
norm is the physics.  Observables that need taming take an explicit
rescaling rate ``lam`` as an argument (:func:`dirac_probability`), and
the runs report it alongside the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .lattices import OperatorMatrix, gauge_op
from .spectra import CONDITION_LIMIT, ComplexSpectrum, eigendecompose

if TYPE_CHECKING:
    from .pairmap import PairBasis

__all__ = [
    "TimeSeries",
    "evolve",
    "evolve_pair",
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


def _check_state(psi0: np.ndarray, dim: int) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (dim,):
        raise ValueError(f"state dimension {psi0.shape} does not match {dim}")
    if not (np.all(np.isfinite(psi0.real)) and np.all(np.isfinite(psi0.imag))):
        raise ValueError("initial state has non-finite amplitudes")
    return psi0


def _integrate(rhs, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Adaptive fourth-order integration of ``dy/dt = rhs(t, y)``; rows per time."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (0.0, float(times[-1])),
        y0,
        t_eval=times,
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"integrator fallback failed: {sol.message}")
    return sol.y.T.astype(complex)


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
    psi0 = _check_state(psi0, h.dim)
    if spectrum is None:
        spectrum = eigendecompose(h)
    if spectrum.condition <= CONDITION_LIMIT:
        coeffs = spectrum.coefficients(psi0)
        phases = np.exp(-1j * np.outer(spectrum.eigenvalues, times))
        states = (spectrum.right_eigenvectors @ (coeffs[:, None] * phases)).T
        method = "spectral"
    else:
        entries = h.entries
        states = _integrate(lambda _t, y: -1j * (entries @ y), psi0, times)
        method = f"integrator (eigenvector condition {spectrum.condition:.2e})"
    states[0] = psi0  # t = 0 is the initial snapshot, exactly
    return TimeSeries(
        times=times, states=states, basis_labels=h.basis_labels, method=method
    )


def evolve_pair(
    chain: OperatorMatrix,
    phi0: np.ndarray,
    basis: "PairBasis",
    times,
) -> TimeSeries:
    """Propagate a pair state on the Kronecker-sum lattice of ``chain``.

    The electron pair lattice is ``H1 x 1 + 1 x H1`` (``H1`` the chain, as
    :func:`starkladder.lattices.build_pair_lattice` builds it), so the pair
    amplitude matrix evolves as ``Psi(t) = U(t) Psi0 U(t)^T`` with
    ``U(t) = exp(-i H1 t)``.  With ``H1 = V diag(e) V^-1`` and
    ``C = V^-1 Psi0 V^-T``, ``Psi(t) = V (C * exp(-i (e_i + e_j) t)) V^T``:
    O(L^3) per sample from the chain's spectrum, never an ``L^2 x L^2``
    matrix.  Fermion and boson states are embedded as (anti)symmetric
    amplitude matrices and restricted back to ``basis.labels``
    (:meth:`starkladder.pairmap.PairBasis.embed` and ``restrict``).

    ``kappa(V x V) = kappa(V)^2``; above ``CONDITION_LIMIT`` the matrix ODE
    ``dPsi/dt = -i (H1 Psi + Psi H1^T)`` is integrated instead, as
    :func:`evolve` does; ``TimeSeries.method`` records which path ran.
    """
    times = _check_times(times)
    phi0 = _check_state(phi0, basis.dim)
    if chain.dim != basis.side:
        raise ValueError(
            f"chain of {chain.dim} sites does not match pair side {basis.side}"
        )
    spectrum = eigendecompose(chain)
    psi0 = basis.embed(phi0)
    condition = spectrum.condition**2
    if condition <= CONDITION_LIMIT:
        v = spectrum.right_eigenvectors
        c = spectrum.coefficients(spectrum.coefficients(psi0).T).T
        phases = np.exp(-1j * np.outer(times, spectrum.eigenvalues))
        states = np.empty((times.size, basis.dim), dtype=complex)
        for k, phase in enumerate(phases):  # one L x L amplitude matrix alive
            w = v * phase  # V diag(exp(-i e t))
            states[k] = basis.restrict(w @ c @ w.T)
        method = "spectral"
    else:
        h1 = chain.entries
        side = basis.side

        def rhs(_t: float, y: np.ndarray) -> np.ndarray:
            psi = y.reshape(side, side)
            return (-1j * (h1 @ psi + psi @ h1.T)).ravel()

        psis = _integrate(rhs, psi0.ravel(), times).reshape(-1, side, side)
        states = basis.restrict(psis)
        method = f"integrator (eigenvector condition {condition:.2e})"
    states[0] = phi0  # t = 0 is the initial snapshot, exactly
    return TimeSeries(
        times=times, states=states, basis_labels=basis.labels, method=method
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
        or if ``exp(2 Im E0 t_late)`` has not reached
        ``PROJECTION_SUPPRESSION``.
    """
    im0 = float(np.imag(e0))
    if im0 <= 0:
        raise ValueError(
            "projection by evolution needs Im E0 > 0; Hermitian spectra do not decay"
        )
    t = float(series.times[-1]) if t_late is None else float(t_late)
    suppression = math.exp(2.0 * im0 * t)
    if suppression < PROJECTION_SUPPRESSION:
        raise ValueError(
            f"t_late = {t:g} suppresses the decaying sector only by "
            f"{suppression:.3g} (< {PROJECTION_SUPPRESSION:.1g}); evolve longer"
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
    psi = np.outer(mu, gauge_op(side).signs * np.conj(mu))

    amps = pair_basis.restrict(psi)
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
    # C order: the sums below round alike whatever layout the states come in
    states = np.ascontiguousarray(series.states)
    n0 = np.linalg.norm(phi0) ** 2
    overlaps = np.abs(states @ np.conj(phi0)) ** 2
    norms = np.linalg.norm(states, axis=1) ** 2
    if np.any(norms == 0):
        raise ValueError("evolved state has zero norm; fidelity undefined")
    return overlaps / (norms * n0)
