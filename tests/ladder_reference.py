"""The greedy ladder detector written as a full scan over every level.

An independent reference for ``spectra.detect_ladders``: each rung lookup
tests all n levels, the near-degenerate clusters come from the dense
n x n distance matrix, and the conjugate pairing and the multiset distance
are the optimal assignment on the dense cost matrix.  O(n^2) per rung, so
keep n small.  Also builds the synthetic spectra (given levels, identity
eigenbasis) that both are fed.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from starkladder.spectra import ComplexSpectrum, LadderFamily, LadderReport


def synthetic_spectrum(values) -> ComplexSpectrum:
    """A spectrum of the given levels with an identity eigenbasis."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    return ComplexSpectrum(
        eigenvalues=values,
        windows=((0, np.eye(n, dtype=complex)),),
        residuals=np.zeros(n),
    )


def reference_degenerate_indices(values: np.ndarray, tol: float) -> set:
    """Indices involved in any complex-plane cluster tighter than ``tol``."""
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    return {int(k) for k in np.flatnonzero((dist < tol).any(axis=1))}


def reference_conjugate_pairing(values: np.ndarray, tol: float) -> tuple:
    """Optimal assignment of Im>0 levels to Im<0 levels on the dense
    ``|E+ - conj(E-)|`` cost matrix."""
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


def reference_multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max matched distance of the optimal assignment on the dense cost matrix."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def reference_detect_ladders(spectrum, expected_spacing: float, tol: float) -> LadderReport:
    """Greedy arithmetic-progression clustering of a complex spectrum."""
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

    degenerate = reference_degenerate_indices(values, tol)
    diagnostics = []
    if degenerate:
        # judged on the whole spectrum: V^T V diagonal means degeneracies
        vectors = spectrum.right_eigenvectors
        gram = vectors.T @ vectors
        cause = (
            "the spectrum has a c-orthogonal eigenbasis, so these are degeneracies"
            if np.allclose(gram, np.diag(np.diag(gram)), rtol=0, atol=1e-8)
            else "the spectrum's eigenbasis has a self-orthogonal direction "
            "(an exceptional point), not necessarily among these levels"
        )
        diagnostics.append(
            f"excluded {len(degenerate)} levels in near-degenerate clusters "
            f"(tol {tol:.1e}); {cause}"
        )

    used: set = set()
    families = []
    order = np.argsort(values.real, kind="stable")
    for k in order:
        k = int(k)
        if k in used or k in degenerate:
            continue
        below = values[k] - expected_spacing
        has_parent = any(
            abs(values[j] - below) <= local_tol(below)
            for j in range(n)
            if j != k and j not in degenerate
        )
        if has_parent:
            continue
        chain = [k]
        current = values[k]
        while True:
            target = current + expected_spacing
            lt = local_tol(target)
            cands = [
                j
                for j in range(n)
                if j not in used and j not in degenerate and j not in chain
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
    pairing = reference_conjugate_pairing(values, tol)
    return LadderReport(
        expected_spacing=float(expected_spacing),
        tol=float(tol),
        families=tuple(families),
        conjugate_pairing=pairing,
        unassigned=unassigned,
        diagnostics=tuple(diagnostics),
    )
