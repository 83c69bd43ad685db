"""Time evolution under non-Hermitian lattices and derived observables.

Raw evolution is never renormalized: exponential growth or decay of the
norm is the physics.  Observables that need taming take an explicit
rescaling rate ``lam`` as an argument (:func:`dirac_probability`), and
the runs report it alongside the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattices import ChainMatrix, OperatorMatrix, PairBasis, PairMatrix, gauge_op
from .spectra import CONDITION_LIMIT, ComplexSpectrum, eigendecompose

__all__ = [
    "TimeSeries",
    "evolve",
    "gaussian_state",
    "site_state",
    "dirac_probability",
    "extract_projected_mu",
    "projection_time",
    "build_pair_product_state",
    "fidelity",
    "family_projection",
]

PROJECTION_SUPPRESSION = 1e6


def projection_time(e0: complex, omega: float) -> float:
    """Default ``t_late`` of :func:`extract_projected_mu`: the time at which
    ``exp(2 Im E0 t)`` passes ``PROJECTION_SUPPRESSION`` with 5 % to spare,
    or three Bloch periods ``3 pi / omega`` if longer; the floor alone
    where ``omega <= 0``."""
    floor = math.log(PROJECTION_SUPPRESSION) / (2.0 * float(np.imag(e0))) * 1.05
    return max(floor, 3.0 * math.pi / omega) if omega > 0 else floor


@dataclass(frozen=True)
class TimeSeries:
    """Evolved snapshots ``states[k] = phi(times[k])`` on a fixed basis, with
    the propagation ``method`` and the eigensolver route (``solver``) and
    2-norm ``condition`` number of the eigenbasis it expanded in."""

    times: np.ndarray
    states: np.ndarray  # (n_times, dim), raw (never renormalized)
    basis_labels: tuple
    method: str = "spectral"
    solver: str | None = None
    condition: float | None = None

    @property
    def initial_state(self) -> np.ndarray:
        return self.states[0]


def _check_times(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1D array")
    if times[0] != 0.0:
        raise ValueError("times must start at 0 (the initial state is a snapshot)")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")
    return times


def _check_state(psi0: np.ndarray, dim: int) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (dim,):
        raise ValueError(f"state dimension {psi0.shape} does not match {dim}")
    if not (np.all(np.isfinite(psi0.real)) and np.all(np.isfinite(psi0.imag))):
        raise ValueError("initial state has non-finite amplitudes")
    return psi0


def _own_spectrum(
    h: OperatorMatrix | ChainMatrix, spectrum: ComplexSpectrum | None
) -> ComplexSpectrum:
    """``spectrum``, or ``h``'s own if None; ``ValueError`` if it has another
    dimension or ``h`` misses its eigenpairs on a seeded probe
    (:meth:`ComplexSpectrum.belongs_to`)."""
    if spectrum is None:
        return eigendecompose(h)
    if spectrum.dim != h.dim or not spectrum.belongs_to(h):
        raise ValueError(f"the spectrum (dimension {spectrum.dim}) belongs to another matrix")
    return spectrum


def evolve(
    h: OperatorMatrix | ChainMatrix | PairMatrix,
    psi0: np.ndarray,
    times,
    spectrum: ComplexSpectrum | None = None,
) -> TimeSeries:
    """Propagate ``psi0`` under ``exp(-i H t)`` at the sampled times.

    Default path is spectral synthesis: expand in right eigenvectors,
    attach ``exp(-i E t)`` per mode, re-synthesize -- exact to eigensolver
    precision at arbitrary ``t``.  A :class:`PairMatrix` expands in its
    chain's eigenvectors (:func:`_pair_synthesis`), and its basis ``V x V``
    has the condition number ``kappa(V)^2``.  A near-defective eigenvector
    matrix (condition above ``CONDITION_LIMIT``) falls back to an adaptive
    fourth-order integrator; ``TimeSeries.method`` records which path ran,
    ``solver`` and ``condition`` the basis's.  A basis below that limit
    whose transpose inverse misses its backward error raises ``ValueError``
    (:meth:`ComplexSpectrum.coefficients`), as does a ``spectrum`` of
    another matrix than ``h``, or than a pair lattice's chain
    (:func:`_own_spectrum`).
    """
    times = _check_times(times)
    psi0 = _check_state(psi0, h.dim)
    pair = isinstance(h, PairMatrix)
    spectrum = _own_spectrum(h.chain if pair else h, spectrum)
    condition = spectrum.condition**2 if pair else spectrum.condition
    method = "spectral"
    if condition > CONDITION_LIMIT:  # adaptive fourth-order integration
        from scipy.integrate import solve_ivp

        sol = solve_ivp(
            lambda _t, y: -1j * (h @ y),
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
        method = f"integrator (eigenvector condition {condition:.2e})"
    elif pair:
        states = _pair_synthesis(h.basis, spectrum, psi0, times)
    else:  # each window's phase rows exp(-i E t) c, formed with its columns
        e, c = spectrum.eigenvalues, spectrum.coefficients(psi0)[:, None]
        states = spectrum.vectors_times(lambda k: np.exp(-1j * np.outer(e[k], times)) * c[k]).T
    states[0] = psi0  # t = 0 is the initial snapshot, exactly
    return TimeSeries(times, states, h.basis_labels, method, spectrum.solver, condition)


def _pair_synthesis(basis: PairBasis, chain: ComplexSpectrum, phi0: np.ndarray,
                    times: np.ndarray) -> np.ndarray:
    """Rows ``phi(t)`` on the Kronecker-sum lattice ``H1 x 1 + 1 x H1``.

    The pair amplitude matrix evolves as ``Psi(t) = U(t) Psi0 U(t)^T`` with
    ``U(t) = exp(-i H1 t)``.  With ``H1 = V diag(e) V^-1`` (``chain``) and
    ``C = V^-1 Psi0 V^-T`` from the chain's own :meth:`coefficients
    <ComplexSpectrum.coefficients>`, ``Psi(t) = V (C * exp(-i (e_i + e_j)
    t)) V^T``, on the chain's whole L x L ``V``: O(L^3) per sample, never an
    ``L^2 x L^2`` matrix.  Fermion and boson states are embedded as
    (anti)symmetric amplitude matrices and restricted back to ``basis``
    (:meth:`starkladder.lattices.PairBasis.embed` and ``restrict``).
    """
    v = chain.right_eigenvectors
    c = chain.coefficients(chain.coefficients(basis.embed(phi0)).T).T
    phases = np.exp(-1j * np.outer(times, chain.eigenvalues))
    states = np.empty((times.size, basis.dim), dtype=complex)
    for k, phase in enumerate(phases):  # one L x L amplitude matrix alive
        w = v * phase  # V diag(exp(-i e t))
        states[k] = basis.restrict(w @ c @ w.T)
    return states


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
    p = np.abs(series.states)
    np.square(p, out=p)
    return np.multiply(p, np.exp(-2.0 * lam * series.times)[:, None], out=p)


def family_projection(
    spectrum: ComplexSpectrum, member_indices, psi: np.ndarray
) -> np.ndarray:
    """Component of ``psi`` inside the span of the given eigenvectors.

    Expansion runs over the full (non-orthogonal) right eigenbasis;
    coefficients outside ``member_indices`` are zeroed.  Raises
    ``ValueError`` where :meth:`ComplexSpectrum.coefficients` refuses.
    """
    coeffs = spectrum.coefficients(psi)
    keep = np.zeros(spectrum.dim, dtype=complex)
    idx = np.asarray(list(member_indices), dtype=int)
    keep[idx] = coeffs[idx]
    return spectrum.vectors_times(keep)


def extract_projected_mu(
    series: TimeSeries,
    e0: complex,
    t_late: float,
) -> np.ndarray:
    """Site profile left after evolution has projected out decaying modes.

    Long non-unitary evolution exponentially favors the growing-ladder
    component; the returned profile is the normalized amplitude vector of
    ``exp(i E0 t) phi(t)`` at the sampled time nearest ``t_late``.

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
    t = float(t_late)
    suppression = math.exp(2.0 * im0 * t)
    if suppression < PROJECTION_SUPPRESSION:
        raise ValueError(
            f"t_late = {t:g} suppresses the decaying sector only by "
            f"{suppression:.3g} (< {PROJECTION_SUPPRESSION:.1g}); evolve longer"
        )
    mu = np.exp(1j * e0 * t) * series.states[np.argmin(np.abs(series.times - t))]
    nrm = np.linalg.norm(mu)
    if nrm == 0:
        raise ValueError("evolved state vanished; cannot extract a profile")
    return mu / nrm


def build_pair_product_state(mu: np.ndarray, pair_basis: PairBasis) -> np.ndarray:
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
    # eight rows at a time: the norm's (times x dim) temporaries set the
    # peak of a pair run; each row still reduces over its own contiguous axis
    norms = np.empty(states.shape[0])
    for k in range(0, states.shape[0], 8):
        norms[k:k + 8] = np.linalg.norm(states[k:k + 8], axis=1)
    norms **= 2
    if np.any(norms == 0):
        raise ValueError("evolved state has zero norm; fidelity undefined")
    return overlaps / (norms * n0)
