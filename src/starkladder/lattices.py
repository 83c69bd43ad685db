"""Finite matrix representations of tilted tight-binding lattices.

Builds open-boundary truncations of 1D dimerized chains (uniform, J/J*
alternation, 1/i alternation) under a linear on-site ramp, the 2D square
lattices that encode two-particle problems on those chains, and the
symmetry operators (translation, gauge, time reversal, 2D parity) used to
certify ladder structure.

Conventions
-----------
* Matrix row ``r`` is lattice site ``r``; ``origin_offset`` only shifts the
  zero of the linear potential.  Bond ``b`` couples rows ``(b, b+1)`` and
  carries ``j_even`` for even ``b``, ``j_odd`` for odd ``b``.
* "+ H.c." hopping is realized with the *same* complex amplitude on both
  directed entries (complex symmetric, not conjugate symmetric).  This is
  what makes the models genuinely non-Hermitian.
* 2D pair lattices use lexicographic ``(x, y)`` ordering with ``x`` the
  slow index; the linear potential is ``omega * ((x - o) + (y - o))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

__all__ = [
    "LatticeKind",
    "LatticeSpec",
    "OperatorMatrix",
    "SymmetryOp",
    "build_chain",
    "build_pair_lattice",
    "translation_op",
    "gauge_op",
    "time_reversal_op",
    "parity_2d_op",
    "compose",
    "apply_symmetry",
    "interior_slice",
    "interior_margin",
    "in_window",
    "ramped_translation_deviation",
    "gauge_conjugation_deviation",
    "pt_commutator_deviation",
    "electron_side",
]


class LatticeKind(str, Enum):
    """Supported lattice families."""

    UNIFORM_1D = "uniform_1d"
    DIMER_JJSTAR = "dimer_jjstar"
    DIMER_1I = "dimer_1i"
    PAIR_2D_ELECTRON = "pair_2d_electron"
    PAIR_2D_FERMION = "pair_2d_fermion"
    PAIR_2D_BOSON = "pair_2d_boson"

    @property
    def is_chain(self) -> bool:
        return self in _CHAIN_KINDS

    @property
    def is_pair(self) -> bool:
        return self in _PAIR_KINDS


_CHAIN_KINDS = frozenset(
    {LatticeKind.UNIFORM_1D, LatticeKind.DIMER_JJSTAR, LatticeKind.DIMER_1I}
)
_PAIR_KINDS = frozenset(
    {
        LatticeKind.PAIR_2D_ELECTRON,
        LatticeKind.PAIR_2D_FERMION,
        LatticeKind.PAIR_2D_BOSON,
    }
)


@dataclass(frozen=True)
class LatticeSpec:
    """Declarative description of a tilted lattice.

    Parameters
    ----------
    kind : LatticeKind
        Lattice family.  For 2D pair kinds ``n_sites`` is the side length
        of the underlying chain.
    n_sites : int
        Number of chain sites (>= 2; >= 4 for pair kinds).
    omega : float
        Slope of the linear on-site potential, in units of the even-bond
        hopping magnitude.
    j_even, j_odd : complex
        Hopping amplitudes on even / odd bonds.  ``dimer_jjstar`` forces
        ``j_odd == conj(j_even)``; ``dimer_1i`` and the pair kinds force
        ``(j_even, j_odd) == (1, 1j)``.
    origin_offset : int
        Site index carrying potential zero; defaults to ``n_sites // 2``.
    """

    kind: LatticeKind
    n_sites: int
    omega: float
    j_even: complex = 1.0
    j_odd: complex | None = None
    origin_offset: int | None = None

    def __post_init__(self) -> None:
        kind = LatticeKind(self.kind)
        object.__setattr__(self, "kind", kind)
        n_min = 4 if kind.is_pair else 2
        if int(self.n_sites) != self.n_sites or self.n_sites < n_min:
            raise ValueError(
                f"{kind.value} needs n_sites >= {n_min}, got {self.n_sites!r}"
            )
        object.__setattr__(self, "n_sites", int(self.n_sites))
        if not math.isfinite(float(np.real(self.omega))) or np.imag(self.omega) != 0:
            raise ValueError(f"omega must be finite real, got {self.omega!r}")
        object.__setattr__(self, "omega", float(np.real(self.omega)))

        j_even = complex(self.j_even)
        j_odd = self.j_odd
        if kind is LatticeKind.UNIFORM_1D:
            j_odd = j_even if j_odd is None else complex(j_odd)
            if j_odd != j_even:
                raise ValueError("uniform_1d uses a single hopping amplitude")
        elif kind is LatticeKind.DIMER_JJSTAR:
            j_odd = j_even.conjugate() if j_odd is None else complex(j_odd)
            if j_odd != j_even.conjugate():
                raise ValueError("dimer_jjstar requires j_odd == conj(j_even)")
        else:
            # dimer_1i pattern, also fixed for all 2D pair lattices
            j_odd = 1j if j_odd is None else complex(j_odd)
            if j_even != 1 or j_odd != 1j:
                raise ValueError(f"{kind.value} requires (j_even, j_odd) == (1, i)")
        object.__setattr__(self, "j_even", j_even)
        object.__setattr__(self, "j_odd", j_odd)

        offset = self.n_sites // 2 if self.origin_offset is None else int(self.origin_offset)
        object.__setattr__(self, "origin_offset", offset)

    def with_omega(self, omega: float) -> "LatticeSpec":
        """Copy of this spec at a different slope."""
        return replace(self, omega=omega)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix on an explicitly labelled finite basis."""

    entries: np.ndarray
    basis_labels: tuple

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"operator must be square, got shape {entries.shape}")
        if not (np.all(np.isfinite(entries.real)) and np.all(np.isfinite(entries.imag))):
            raise ValueError("operator entries must be finite")
        labels = tuple(self.basis_labels)
        if len(labels) != entries.shape[0]:
            raise ValueError(
                f"{len(labels)} basis labels for dimension {entries.shape[0]}"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def label_index(self) -> dict:
        """Map basis label -> row index."""
        return {lab: i for i, lab in enumerate(self.basis_labels)}


@dataclass(frozen=True)
class SymmetryOp:
    """A (possibly antiunitary) symmetry on a finite basis.

    A leaf shifts basis labels by ``shift`` and then scales by ``signs``
    (``None``: all +1), conjugating where antiunitary:
    ``(op v)[j] = signs[j] * v[j - shift]``, zero where ``j - shift`` falls
    off the truncation.  Composites store their factors in operator-product
    order: ``factors[0]`` acts last.
    """

    kind: str
    shift: int = 0
    signs: np.ndarray | None = None
    antiunitary: bool = False
    factors: tuple["SymmetryOp", ...] = field(default=())


def _bond_amplitudes(spec: LatticeSpec, n_bonds: int) -> np.ndarray:
    amps = np.empty(n_bonds, dtype=complex)
    amps[0::2] = spec.j_even
    amps[1::2] = spec.j_odd
    return amps


def build_chain(spec: LatticeSpec) -> OperatorMatrix:
    """Open-boundary matrix of a tilted 1D chain.

    Off-diagonal entries alternate ``j_even`` / ``j_odd`` along the chain,
    with the same amplitude on both directions of each bond; the diagonal
    is ``omega * (j - origin_offset)``.
    """
    if not spec.kind.is_chain:
        raise ValueError(f"build_chain needs a 1D kind, got {spec.kind.value}")
    n = spec.n_sites
    h = np.zeros((n, n), dtype=complex)
    sites = np.arange(n)
    h[sites, sites] = spec.omega * (sites - spec.origin_offset)
    amps = _bond_amplitudes(spec, n - 1)
    h[sites[:-1], sites[1:]] = amps
    h[sites[1:], sites[:-1]] = amps
    return OperatorMatrix(h, tuple(int(j) for j in sites))


def pair_labels(kind: LatticeKind, side: int) -> tuple:
    """Lexicographic (x, y) basis labels for a pair lattice."""
    if kind is LatticeKind.PAIR_2D_ELECTRON:
        return tuple((x, y) for x in range(side) for y in range(side))
    if kind is LatticeKind.PAIR_2D_FERMION:
        return tuple((x, y) for x in range(side) for y in range(x))
    if kind is LatticeKind.PAIR_2D_BOSON:
        return tuple((x, y) for x in range(side) for y in range(x + 1))
    raise ValueError(f"not a pair kind: {kind!r}")


def electron_side(h: OperatorMatrix) -> int:
    """Side ``L`` of an electron pair lattice; ``ValueError`` for any other basis.

    The size alone cannot tell: the fermion lattice at ``L = 9`` and the
    boson lattice at ``L = 8`` both have dimension 36 = 6 x 6.
    """
    side = math.isqrt(h.dim)
    if h.basis_labels != pair_labels(LatticeKind.PAIR_2D_ELECTRON, side):
        labels = h.basis_labels
        raise ValueError(
            f"not an electron pair lattice: its {h.dim} basis labels "
            f"({labels[0]!r} ... {labels[-1]!r}) are not the full L x L square "
            "of (x, y) pairs"
        )
    return side


def build_pair_lattice(spec: LatticeSpec) -> OperatorMatrix:
    """2D square-lattice matrix encoding a two-particle chain problem.

    The electron lattice is the full ``L x L`` grid with the 1/i-dimer bond
    pattern along both axes and potential ``omega * ((x - o) + (y - o))``.
    The fermion lattice is its restriction to the strict lower triangle
    ``x > y``; the boson lattice keeps ``x >= y`` and scales each bond with
    exactly one endpoint on the diagonal ``x == y`` by sqrt(2).
    """
    if not spec.kind.is_pair:
        raise ValueError(f"build_pair_lattice needs a 2D kind, got {spec.kind.value}")
    side = spec.n_sites
    chain = build_chain(replace(spec, kind=LatticeKind.DIMER_1I)).entries
    eye = np.eye(side)
    electron = np.kron(chain, eye) + np.kron(eye, chain)
    if spec.kind is LatticeKind.PAIR_2D_ELECTRON:
        return OperatorMatrix(electron, pair_labels(spec.kind, side))

    labels = pair_labels(spec.kind, side)
    flat = np.array([x * side + y for x, y in labels])
    h = electron[np.ix_(flat, flat)]
    if spec.kind is LatticeKind.PAIR_2D_BOSON:
        on_diag = np.array([x == y for x, y in labels])
        touches = on_diag[:, None] ^ on_diag[None, :]
        h = np.where(touches, math.sqrt(2.0) * h, h)
    return OperatorMatrix(h, labels)


def translation_op(dim: int, n0: int) -> SymmetryOp:
    """Shift of basis labels by ``n0``; a partial isometry on any truncation."""
    if dim < 1:
        raise ValueError(f"translation needs dim >= 1, got {dim}")
    return SymmetryOp(kind=f"translate({n0})", shift=int(n0))


def _gauge_signs(dim: int) -> np.ndarray:
    """The gauge's diagonal ``(-1)**(j // 2)``: +1, +1, -1, -1, ..."""
    return np.where((np.arange(dim) // 2) % 2 == 0, 1.0, -1.0)


def gauge_op(dim: int) -> SymmetryOp:
    """Diagonal +-1 gauge with sign ``(-1)**(j // 2)``."""
    return SymmetryOp(kind="gauge", signs=_gauge_signs(dim))


def time_reversal_op() -> SymmetryOp:
    """Complex conjugation in the site basis."""
    return SymmetryOp(kind="time_reversal", antiunitary=True)


def _parity_2d_signs(side: int) -> np.ndarray:
    """Diagonal of the electron pair parity: the gauge signs of both particles."""
    signs = _gauge_signs(side)
    return np.outer(signs, signs).ravel()


def parity_2d_op(side: int) -> SymmetryOp:
    """Diagonal parity on the electron pair basis: ``(-1)**(x//2 + y//2)``."""
    return SymmetryOp(kind="parity_2d", signs=_parity_2d_signs(side))


def compose(*factors: SymmetryOp) -> SymmetryOp:
    """Operator product; ``compose(a, b)`` applies ``b`` first, then ``a``."""
    if not factors:
        raise ValueError("compose needs at least one factor")
    anti = sum(f.antiunitary for f in factors) % 2 == 1
    kind = " * ".join(f.kind for f in factors)
    return SymmetryOp(kind=kind, antiunitary=anti, factors=tuple(factors))


def _shifted(vec: np.ndarray, shift: int) -> np.ndarray:
    """New array with ``out[j + shift] = vec[j]`` where both lie in range."""
    out = np.zeros_like(vec)
    lo, keep = max(shift, 0), max(vec.shape[-1] - abs(shift), 0)
    out[..., lo:lo + keep] = vec[..., lo - shift:lo - shift + keep]
    return out


def apply_symmetry(op: SymmetryOp, vec: np.ndarray) -> np.ndarray:
    """Apply a symmetry (conjugating where antiunitary) to a state vector."""
    out = np.asarray(vec, dtype=complex)
    if op.factors:
        for f in reversed(op.factors):
            out = apply_symmetry(f, out)
        return out
    out = _shifted(out, op.shift)
    if op.signs is not None:
        out *= op.signs
    return np.conj(out) if op.antiunitary else out


def interior_margin(n: int) -> int:
    """Default number of edge sites discarded per end: ceil(n / 6)."""
    return -(-n // 6)


def interior_slice(n: int, margin: int | None = None) -> slice:
    """Central index window of a length-``n`` truncation."""
    m = interior_margin(n) if margin is None else int(margin)
    if 2 * m >= n:
        raise ValueError(f"margin {m} leaves no interior for n = {n}")
    return slice(m, n - m)


def in_window(positions, window: slice):
    """Whether each position lies in ``[window.start, window.stop - 1]``."""
    positions = np.asarray(positions)
    return (positions >= window.start) & (positions <= window.stop - 1)


def ramped_translation_deviation(
    h: OperatorMatrix, omega: float, n0: int = 2, margin: int | None = None
) -> float:
    """Interior-block norm of ``T_n0 H T_n0^-1 - (H - n0*omega)``.

    On the truncation the inverse is the adjoint of the shift (a partial
    isometry), so the identity can only hold away from the edges, where
    ``(T_n0 H T_n0^-1)[i, j] = H[i - n0, j - n0]``.
    """
    n = h.dim
    m = max(interior_margin(n) if margin is None else int(margin), abs(n0))
    w = interior_slice(n, m)
    k = np.arange(w.stop - w.start)
    ramped = h.entries[w, w].copy()  # H - n0*omega on the window
    ramped[k, k] -= n0 * omega
    shifted = slice(w.start - n0, w.stop - n0)
    return float(np.linalg.norm(h.entries[shifted, shifted] - ramped))


def gauge_conjugation_deviation(h: OperatorMatrix) -> float:
    """Norm of ``g H g^-1 - H*`` (exact for the 1/i chain, even truncated)."""
    g, entries = _gauge_signs(h.dim), h.entries
    return float(np.linalg.norm(g[:, None] * entries * g - np.conj(entries)))


def pt_commutator_deviation(h2d: OperatorMatrix) -> float:
    """Norm of the commutator of parity-times-conjugation with ``H``.

    For antiunitary ``PT``, ``[PT, H] v = (P conj(H) - H P) conj(v)``, so
    the reported value is ``|| P conj(H) - H P ||``; the diagonal ``P``
    scales rows and columns.
    """
    p, h = _parity_2d_signs(electron_side(h2d)), h2d.entries
    return float(np.linalg.norm(p[:, None] * np.conj(h) - h * p))
