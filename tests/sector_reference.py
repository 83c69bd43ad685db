"""Swap-sector projectors written out label by label.

An independent reference for the index maps of ``PairBasis``
(``embed``/``restrict``) and for ``pairmap.sector_decompose``.  Row ``k``
of the projector onto a fermion or boson basis puts 1/sqrt(2) at label
``(x, y)`` and ``parity/sqrt(2)`` at the mirrored ``(y, x)``, or 1 on the
diagonal ``x == y``; on the electron basis it is the identity.
"""

import math

import numpy as np

from starkladder.lattices import LatticeKind


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
