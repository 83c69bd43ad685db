"""Pair lattices and swap-sector projectors written out the long way.

An independent reference for ``lattices.build_pair_lattice``, for the
Kronecker sum of any chain on a pair basis, for the index maps of
``PairBasis`` (``embed``/``restrict``) and for ``pairmap.sector_decompose``.
The pair lattice is cut out of the full Kronecker sum.  Row ``k`` of the
projector onto a fermion or boson basis puts 1/sqrt(2) at label ``(x, y)``
and ``parity/sqrt(2)`` at the mirrored ``(y, x)``, or 1 on the diagonal
``x == y``; on the electron basis it is the identity.
"""

import math
from dataclasses import replace

import numpy as np

from starkladder.lattices import LatticeKind, build_chain

_KEEP = {
    LatticeKind.PAIR_2D_ELECTRON: lambda x, y: True,
    LatticeKind.PAIR_2D_FERMION: lambda x, y: x > y,
    LatticeKind.PAIR_2D_BOSON: lambda x, y: x >= y,
}


def reference_pair_lattice(spec) -> tuple:
    """``(entries, labels)`` of a pair lattice from ``H1 x 1 + 1 x H1`` of
    the 1/i chain (:func:`reference_kronecker_sum`)."""
    h1 = build_chain(replace(spec, kind=LatticeKind.DIMER_1I)).entries
    return reference_kronecker_sum(h1, spec.kind)


def reference_kronecker_sum(h1: np.ndarray, kind) -> tuple:
    """``(entries, labels)`` of ``H1 x 1 + 1 x H1`` on the pair basis of ``kind``.

    The electron lattice is the whole Kronecker sum of the chain ``h1``; the
    fermion (``x > y``) and boson (``x >= y``) lattices are its rows and
    columns at flat index ``x * side + y``, the boson one with sqrt(2) on
    every bond with exactly one endpoint on the diagonal.
    """
    side = h1.shape[0]
    eye = np.eye(side)
    electron = np.kron(h1, eye) + np.kron(eye, h1)
    keep = _KEEP[kind]
    labels = tuple((x, y) for x in range(side) for y in range(side) if keep(x, y))
    flat = np.array([x * side + y for x, y in labels])
    h = electron[np.ix_(flat, flat)]
    if kind is LatticeKind.PAIR_2D_BOSON:
        on_diag = np.array([x == y for x, y in labels])
        touches = on_diag[:, None] ^ on_diag[None, :]
        h = np.where(touches, math.sqrt(2.0) * h, h)
    return h, labels


def reference_projector(basis) -> np.ndarray:
    """Rows map the electron basis (flat index ``x * side + y``) onto ``basis``."""
    side = basis.side
    parity = {LatticeKind.PAIR_2D_ELECTRON: 0, LatticeKind.PAIR_2D_BOSON: +1,
              LatticeKind.PAIR_2D_FERMION: -1}[basis.kind]
    proj = np.zeros((basis.dim, side * side))
    for row, (x, y) in enumerate(basis.labels):
        if parity == 0 or x == y:
            proj[row, x * side + y] = 1.0
        else:
            proj[row, x * side + y] = 1.0 / math.sqrt(2.0)
            proj[row, y * side + x] = parity / math.sqrt(2.0)
    return proj
