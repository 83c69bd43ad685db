"""Two-particle chain problems as 2D single-particle lattices.

The hand-built 2D lattices (:func:`starkladder.lattices.build_pair_lattice`)
are certified here against an independent oracle that applies the
second-quantized two-particle Hamiltonian to each pair basis state and
re-expands.  Fermionic exchange signs and the bosonic sqrt(2) factors on
double occupation come out of the operator algebra, never from the
transcribed lattice couplings.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .dynamics import TimeSeries
from .lattices import LatticeKind, OperatorMatrix, PairMatrix, electron_side, pair_basis

__all__ = [
    "oracle_pair_hamiltonian",
    "sector_decompose",
    "lift_1d_evolution",
    "sector_reassembled_distance",
]


def _bond_amp(b: int) -> complex:
    """1/i dimer hopping on bond (b, b+1), indexed by the lower site."""
    return 1.0 + 0j if b % 2 == 0 else 1j


def _chain_hops(side: int):
    """Directed nearest-neighbor hops (q -> p) with their amplitudes."""
    for b in range(side - 1):
        amp = _bond_amp(b)
        yield b + 1, b, amp  # p, q: destroy at b, create at b + 1
        yield b, b + 1, amp


def oracle_pair_hamiltonian(
    kind: LatticeKind, side: int, omega: float, origin_offset: int | None = None
) -> OperatorMatrix:
    """Two-particle Hamiltonian built from operator algebra.

    Applies the 1/i-dimer chain Hamiltonian, in second quantization, to
    every pair basis state: distinguishable species for the electron
    basis, anticommuting operators (descending-order convention ``x > y``)
    for fermions, and occupation-number normalization
    ``(b^dag)^n / sqrt(n!)`` for bosons.
    """
    kind = LatticeKind(kind)
    if side < 4:
        raise ValueError("pair lattices need side >= 4")
    offset = side // 2 if origin_offset is None else int(origin_offset)
    basis = pair_basis(kind, side)
    index = {lab: i for i, lab in enumerate(basis.labels)}
    dim = basis.dim
    h = np.zeros((dim, dim), dtype=complex)

    for col, (x, y) in enumerate(basis.labels):
        h[col, col] = omega * ((x - offset) + (y - offset))
        if kind is LatticeKind.PAIR_2D_ELECTRON:
            # species are distinguishable: hop each coordinate independently
            for p, q, amp in _chain_hops(side):
                if q == x:
                    h[index[(p, y)], col] += amp
                if q == y:
                    h[index[(x, p)], col] += amp
        elif kind is LatticeKind.PAIR_2D_FERMION:
            # state is f+_x f+_y |0>, x > y; f_q picks up a sign crossing f+_x
            for p, q, amp in _chain_hops(side):
                terms = []
                if q == x:
                    terms.append(((p, y), +1.0))
                if q == y:
                    terms.append(((p, x), -1.0))
                for (a, b), sign in terms:
                    if a == b:
                        continue  # Pauli exclusion: (f+_a)^2 = 0
                    if a < b:
                        a, b, sign = b, a, -sign
                    h[index[(a, b)], col] += amp * sign
        else:
            # bosons: coefficient sqrt(n_q) * sqrt(n_p + 1) from b+_p b_q
            occ = {x: 2} if x == y else {x: 1, y: 1}
            for p, q, amp in _chain_hops(side):
                n_q = occ.get(q, 0)
                if n_q == 0:
                    continue
                coeff = math.sqrt(n_q) * math.sqrt(occ.get(p, 0) + 1)
                new_occ = dict(occ)
                new_occ[q] = n_q - 1
                if new_occ[q] == 0:
                    del new_occ[q]
                new_occ[p] = new_occ.get(p, 0) + 1
                sites = sorted(new_occ)
                label = (
                    (sites[0], sites[0]) if len(sites) == 1 else (sites[1], sites[0])
                )
                h[index[label], col] += amp * coeff
    return OperatorMatrix(h, basis.labels)


# swap sectors of the electron lattice: (symmetric, antisymmetric)
_SECTOR_KINDS = (LatticeKind.PAIR_2D_BOSON, LatticeKind.PAIR_2D_FERMION)


def sector_decompose(
    h_electron: PairMatrix | OperatorMatrix,
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Split the electron lattice into (symmetric, antisymmetric) sectors.

    Refuses (raising ``ValueError``) a matrix on any basis other than the
    electron pair basis, and one that is not reflection symmetric about
    ``x == y`` to 1e-12 of its largest entry, which would indicate a
    builder bug rather than a property of the model.  Each sector
    ``P H P^T`` is taken by index maps (:meth:`PairBasis.restrict` on both
    index pairs), never by a dense projector.
    """
    side, entries = electron_side(h_electron.basis_labels), h_electron.entries
    h4 = entries.reshape(side, side, side, side)
    asym = float(np.linalg.norm(h4 - h4.transpose(1, 0, 3, 2)))  # (x, y) -> (y, x)
    if asym > 1e-12 * max(1.0, float(np.abs(entries).max())):
        raise ValueError(
            f"electron lattice is not reflection symmetric (deviation {asym:.3e}); "
            "refusing to decompose"
        )
    rows = entries.reshape(side * side, side, side)
    out = []
    for kind in _SECTOR_KINDS:
        basis = pair_basis(kind, side)
        h_pt = basis.restrict(rows)  # H P^T
        sector = basis.restrict(h_pt.T.reshape(basis.dim, side, side)).T
        out.append(OperatorMatrix(sector, basis.labels))
    return out[0], out[1]


def _normalized_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(
        np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b))
    )


def _expm_states(h: OperatorMatrix, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``expm(-i H t) psi0`` per time, by ``scipy.linalg.expm``: no eigensolver."""
    entries = h.entries
    return np.array([scipy.linalg.expm(-1j * t * entries) @ psi0 for t in times])


def lift_1d_evolution(direct: TimeSeries, oracle: OperatorMatrix) -> float:
    """Largest normalized distance between a pair evolution and the oracle's.

    ``direct`` is a pair evolution (``evolve`` on a pair lattice); the
    oracle is evolved from the same initial state at the same times by
    ``expm``, sharing no code with it.  The two are supposed to be equal,
    so this certifies basis ordering and plumbing end to end.  A
    basis-label mismatch raises ``ValueError``.
    """
    if direct.basis_labels != oracle.basis_labels:
        raise ValueError("basis ordering mismatch between builder and oracle")
    states = _expm_states(oracle, direct.initial_state, direct.times)
    return max(_normalized_distance(a, b) for a, b in zip(direct.states, states))


def sector_reassembled_distance(direct: TimeSeries, sectors: tuple) -> float:
    """Full-lattice evolution versus sector-wise evolution, reassembled.

    ``direct`` is the evolution of an electron pair state and ``sectors``
    the (symmetric, antisymmetric) parts of its lattice from
    :func:`sector_decompose`.  Restricts the initial state to both swap
    sectors, evolves each under its sector matrix by ``scipy.linalg.expm``,
    embeds the results back into the full lattice, and returns the maximum
    normalized distance to the direct evolution.  A series on any basis
    other than the electron pair basis raises ``ValueError``.
    """
    side = electron_side(direct.basis_labels)
    amps = direct.initial_state.reshape(side, side)
    rebuilt = np.zeros_like(direct.states)
    for kind, sector in zip(_SECTOR_KINDS, sectors):
        basis = pair_basis(kind, side)
        states = _expm_states(sector, basis.restrict(amps), direct.times)
        rebuilt += basis.embed(states).reshape(-1, side * side)
    return max(_normalized_distance(d, r) for d, r in zip(direct.states, rebuilt))
