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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import TimeSeries, evolve
from .lattices import (
    LatticeKind,
    OperatorMatrix,
    electron_side,
    pair_labels,
)

__all__ = [
    "PairBasis",
    "pair_basis",
    "oracle_pair_hamiltonian",
    "sector_decompose",
    "lift_1d_evolution",
    "sector_reassembled_distance",
]


@dataclass(frozen=True)
class PairBasis:
    """Ordered two-particle basis on a side-``L`` chain."""

    kind: LatticeKind
    side: int
    labels: tuple

    @property
    def dim(self) -> int:
        return len(self.labels)

    def label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def layout(self) -> tuple:
        """Where each amplitude sits in the ``side x side`` amplitude matrix.

        Amplitude ``k`` enters at ``(x[k], y[k])`` with ``weight[k]`` and at
        the mirrored entry ``(y[k], x[k])`` with ``parity * weight[k]``
        (1/sqrt(2) off the diagonal, 1/2 twice on it), so ``restrict`` maps
        onto the swap sector with orthonormal rows and ``embed`` is its
        transpose.  The electron basis is the identity map (``parity`` 0).
        """
        xy = np.asarray(self.labels, dtype=int).T
        xy.flags.writeable = False  # cached: every caller shares these arrays
        x, y = xy
        if self.kind is LatticeKind.PAIR_2D_ELECTRON:
            return x, y, 0.0, 1.0
        parity = 1.0 if self.kind is LatticeKind.PAIR_2D_BOSON else -1.0
        weight = np.where(x == y, 0.5, 1.0 / math.sqrt(2.0))
        weight.flags.writeable = False
        return x, y, parity, weight

    def embed(self, amps: np.ndarray) -> np.ndarray:
        """Amplitude matrices ``[..., L, L]`` of states ``amps[..., dim]``."""
        x, y, parity, weight = self.layout
        amps = np.asarray(amps)
        psi = np.zeros(amps.shape[:-1] + (self.side, self.side), dtype=complex)
        psi[..., x, y] = weight * amps
        if parity:
            psi[..., y, x] += parity * weight * amps
        return psi

    def restrict(self, psi: np.ndarray) -> np.ndarray:
        """Amplitudes in this basis of amplitude matrices ``psi[..., L, L]``."""
        x, y, parity, weight = self.layout
        if not parity:
            return psi[..., x, y]
        return weight * (psi[..., x, y] + parity * psi[..., y, x])


def pair_basis(kind: LatticeKind, side: int) -> PairBasis:
    """Lexicographic pair basis for the given statistics."""
    kind = LatticeKind(kind)
    return PairBasis(kind=kind, side=side, labels=pair_labels(kind, side))


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
    index = basis.label_index()
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


def sector_decompose(h_electron: OperatorMatrix) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Split the electron lattice into (symmetric, antisymmetric) sectors.

    Refuses (raising ``ValueError``) a matrix on any basis other than the
    electron pair basis, and one that is not reflection symmetric about
    ``x == y`` to 1e-12 of its largest entry, which would indicate a
    builder bug rather than a property of the model.  Each sector
    ``P H P^T`` is taken by index maps (:meth:`PairBasis.restrict` on both
    index pairs), never by a dense projector.
    """
    side = electron_side(h_electron)
    h4 = h_electron.entries.reshape(side, side, side, side)
    asym = float(np.linalg.norm(h4 - h4.transpose(1, 0, 3, 2)))  # (x, y) -> (y, x)
    if asym > 1e-12 * max(1.0, float(np.abs(h_electron.entries).max())):
        raise ValueError(
            f"electron lattice is not reflection symmetric (deviation {asym:.3e}); "
            "refusing to decompose"
        )
    rows = h_electron.entries.reshape(side * side, side, side)
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


def lift_1d_evolution(direct: TimeSeries, oracle: OperatorMatrix) -> float:
    """Largest normalized distance between a built-lattice evolution and
    the oracle's.

    ``direct`` is the evolution under the hand-built lattice; the oracle is
    evolved from the same initial state at the same times.  The two
    matrices are supposed to be equal, so this certifies basis ordering and
    plumbing end to end.  A basis-label mismatch raises ``ValueError``.
    """
    if direct.basis_labels != oracle.basis_labels:
        raise ValueError("basis ordering mismatch between builder and oracle")
    series = evolve(oracle, direct.initial_state, direct.times)
    return max(_normalized_distance(a, b) for a, b in zip(direct.states, series.states))


def sector_reassembled_distance(direct: TimeSeries, sectors: tuple) -> float:
    """Full-lattice evolution versus sector-wise evolution, reassembled.

    ``direct`` is the evolution under the electron lattice and ``sectors``
    its (symmetric, antisymmetric) parts from :func:`sector_decompose`.
    Restricts the initial state to both swap sectors, evolves each under
    its sector matrix, embeds the results back into the full lattice, and
    returns the maximum normalized distance to the direct evolution.
    """
    side = math.isqrt(len(direct.basis_labels))
    amps = direct.initial_state.reshape(side, side)
    rebuilt = np.zeros_like(direct.states)
    for kind, sector in zip(_SECTOR_KINDS, sectors):
        basis = pair_basis(kind, side)
        comp = basis.restrict(amps)
        if np.linalg.norm(comp) > 0:
            series = evolve(sector, comp, direct.times)
            rebuilt += basis.embed(series.states).reshape(-1, side * side)
    return max(_normalized_distance(d, r) for d, r in zip(direct.states, rebuilt))
