"""Finite matrix representations of tilted tight-binding lattices.

Builds open-boundary truncations of 1D dimerized chains (uniform, J/J*
alternation, 1/i alternation) under a linear on-site ramp, the pair bases
and 2D square lattices that encode two-particle problems on those chains,
and the symmetry operators (translation, gauge, time reversal, 2D parity)
used to certify ladder structure.

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
from functools import cached_property

import numpy as np

__all__ = [
    "LatticeKind",
    "LatticeSpec",
    "OperatorMatrix",
    "ChainMatrix",
    "PairMatrix",
    "PairBasis",
    "SymmetryOp",
    "build_chain",
    "pair_basis",
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
        return not self.is_pair

    @property
    def is_pair(self) -> bool:
        return self in _PAIR_KINDS


_PAIR_KINDS = (LatticeKind.PAIR_2D_ELECTRON, LatticeKind.PAIR_2D_FERMION,
               LatticeKind.PAIR_2D_BOSON)


def _integral(value) -> bool:
    """Whether ``value`` is a whole number: ``int(value)`` loses nothing."""
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


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
        Finite hopping amplitudes on even / odd bonds.  ``dimer_jjstar`` forces
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
        if not _integral(self.n_sites) or self.n_sites < n_min:
            raise ValueError(
                f"{kind.value} needs n_sites >= {n_min}, got {self.n_sites!r}"
            )
        object.__setattr__(self, "n_sites", int(self.n_sites))
        if not math.isfinite(float(np.real(self.omega))) or np.imag(self.omega) != 0:
            raise ValueError(f"omega must be finite real, got {self.omega!r}")
        object.__setattr__(self, "omega", float(np.real(self.omega)))

        j_even = complex(self.j_even)
        j_odd = None if self.j_odd is None else complex(self.j_odd)
        for name, j in (("j_even", j_even), ("j_odd", j_odd)):
            if j is not None and not np.isfinite(j):
                raise ValueError(f"{name} must be finite, got {j!r}")
        if kind is LatticeKind.UNIFORM_1D:
            j_odd = j_even if j_odd is None else j_odd
            if j_odd != j_even:
                raise ValueError("uniform_1d uses a single hopping amplitude")
        elif kind is LatticeKind.DIMER_JJSTAR:
            j_odd = j_even.conjugate() if j_odd is None else j_odd
            if j_odd != j_even.conjugate():
                raise ValueError("dimer_jjstar requires j_odd == conj(j_even)")
        else:
            # dimer_1i pattern, also fixed for all 2D pair lattices
            j_odd = 1j if j_odd is None else j_odd
            if j_even != 1 or j_odd != 1j:
                raise ValueError(f"{kind.value} requires (j_even, j_odd) == (1, i)")
        object.__setattr__(self, "j_even", j_even)
        object.__setattr__(self, "j_odd", j_odd)

        offset = self.n_sites // 2 if self.origin_offset is None else self.origin_offset
        if not _integral(offset):
            raise ValueError(f"origin_offset must be an integer, got {offset!r}")
        object.__setattr__(self, "origin_offset", int(offset))

    def with_omega(self, omega: float) -> "LatticeSpec":
        """Copy of this spec at a different slope."""
        return replace(self, omega=omega)

    @property
    def chain(self) -> "LatticeSpec":
        """The chain ``H1`` of this pair lattice ``H1 x 1 + 1 x H1``: the 1/i dimer."""
        if not self.kind.is_pair:
            raise ValueError(f"{self.kind.value} is a chain, not a pair lattice")
        return replace(self, kind=LatticeKind.DIMER_1I)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix on an explicitly labelled finite basis: the
    oracle, the swap sectors and test matrices.  A chain is a
    :class:`ChainMatrix` and a pair lattice a :class:`PairMatrix`; all three
    multiply as ``h @ x``."""

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

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.entries @ x


@dataclass(frozen=True)
class ChainMatrix:
    """Open-boundary chain held as its two bands: on-site energies ``diag``
    and ``off[b]`` on both directed entries of bond ``(b, b+1)``, so it is
    complex symmetric by construction.  ``h @ x`` takes the band product,
    O(n) per column; ``entries``, the dense matrix, is assembled on each
    read and never stored."""

    diag: np.ndarray
    off: np.ndarray
    basis_labels: tuple

    def __post_init__(self) -> None:
        for name in ("diag", "off"):
            band = np.array(getattr(self, name), dtype=complex)
            band.flags.writeable = False
            object.__setattr__(self, name, band)
        labels = tuple(self.basis_labels)
        if self.off.shape != (self.diag.size - 1,) or len(labels) != self.diag.size:
            raise ValueError(
                f"{self.diag.size} sites need {self.diag.size - 1} bonds and as many "
                f"labels as sites, got {self.off.size} bonds and {len(labels)} labels"
            )
        object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def entries(self) -> np.ndarray:
        return _tridiagonal(self.diag, self.off)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        rows = (-1,) + (1,) * (x.ndim - 1)  # one band entry per row of x
        diag, off = self.diag.reshape(rows), self.off.reshape(rows)
        y = diag * x
        y[:-1] += off * x[1:]
        y[1:] += off * x[:-1]
        return y


@dataclass(frozen=True)
class SymmetryOp:
    """A (possibly antiunitary) symmetry on a finite basis.

    A leaf shifts basis labels by ``shift`` and then scales by ``signs``
    (``None``: all +1), conjugating where antiunitary:
    ``(op v)[j] = signs[j] * v[j - shift]``, zero where ``j - shift`` falls
    off the truncation.  Composites store their factors in operator-product
    order: ``factors[0]`` acts last.
    """

    shift: int = 0
    signs: np.ndarray | None = None
    antiunitary: bool = False
    factors: tuple["SymmetryOp", ...] = field(default=())


def _tridiagonal(diag: np.ndarray, upper: np.ndarray, lower: np.ndarray | None = None,
                 order: str = "C") -> np.ndarray:
    """Dense tridiagonal matrix with ``diag`` on the diagonal, ``upper[b]`` at
    ``(b, b+1)`` and ``lower[b]`` at ``(b+1, b)``: a chain's bonds on both
    entries by default, and in Fortran ``order`` for LAPACK to overwrite."""
    n = diag.size
    lower = upper if lower is None else lower
    h = np.zeros((n, n), dtype=np.result_type(diag, upper, lower), order=order)
    sites = np.arange(n)
    h[sites, sites] = diag
    h[sites[:-1], sites[1:]] = upper
    h[sites[1:], sites[:-1]] = lower
    return h


def build_chain(spec: LatticeSpec) -> ChainMatrix:
    """Open-boundary tilted 1D chain, as its bands.

    Off-diagonal entries alternate ``j_even`` / ``j_odd`` along the chain,
    with the same amplitude on both directions of each bond; the diagonal
    is ``omega * (j - origin_offset)``.
    """
    if not spec.kind.is_chain:
        raise ValueError(f"build_chain needs a 1D kind, got {spec.kind.value}")
    sites = np.arange(spec.n_sites)
    bonds = np.where(sites[:-1] % 2 == 0, spec.j_even, spec.j_odd)
    return ChainMatrix(spec.omega * (sites - spec.origin_offset), bonds, range(spec.n_sites))


@dataclass(frozen=True)
class PairBasis:
    """Ordered two-particle basis on a side-``L`` chain."""

    kind: LatticeKind
    side: int
    labels: tuple

    @property
    def dim(self) -> int:
        return len(self.labels)

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
    """Lexicographic ``(x, y)`` pair basis: the full square for electrons,
    ``x > y`` for fermions, ``x >= y`` for bosons."""
    kind = LatticeKind(kind)
    if kind is LatticeKind.PAIR_2D_ELECTRON:
        labels = tuple((x, y) for x in range(side) for y in range(side))
    elif kind is LatticeKind.PAIR_2D_FERMION:
        labels = tuple((x, y) for x in range(side) for y in range(x))
    elif kind is LatticeKind.PAIR_2D_BOSON:
        labels = tuple((x, y) for x in range(side) for y in range(x + 1))
    else:
        raise ValueError(f"not a pair kind: {kind!r}")
    return PairBasis(kind=kind, side=side, labels=labels)


def electron_side(labels: tuple) -> int:
    """Side ``L`` of the electron pair basis ``labels``; ``ValueError`` for any
    other basis."""
    side = math.isqrt(len(labels))
    if pair_basis(LatticeKind.PAIR_2D_ELECTRON, side).labels != labels:
        raise ValueError(
            f"not an electron pair lattice: its {len(labels)} basis labels "
            f"({labels[0]!r} ... {labels[-1]!r}) are not the full L x L square "
            "of (x, y) pairs"
        )
    return side


@dataclass(frozen=True)
class PairMatrix:
    """Pair lattice ``H1 x 1 + 1 x H1`` held as its chain ``H1`` and its pair
    basis.  ``h @ x`` is ``basis.restrict(H1 Psi + Psi H1^T)`` with
    ``Psi = basis.embed(x)``, by the chain's band product; ``entries``, the
    dense matrix, is assembled on each read and never stored."""

    chain: ChainMatrix
    basis: PairBasis

    def __post_init__(self) -> None:
        if self.chain.dim != self.basis.side:
            raise ValueError(
                f"chain of {self.chain.dim} sites does not match pair side {self.basis.side}"
            )

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def basis_labels(self) -> tuple:
        return self.basis.labels

    @property
    def entries(self) -> np.ndarray:
        """``H[k, l] = H1[x_k, x_l] [y_k == y_l] + [x_k == x_l] H1[y_k, y_l]``
        on the basis's own labels, so the fermion lattice (``x > y``) and the
        boson lattice (``x >= y``) are never cut out of the full
        ``L^2 x L^2`` matrix; the boson lattice scales each bond with exactly
        one endpoint on the diagonal ``x == y`` by sqrt(2)."""
        h1 = self.chain.entries
        x, y = self.basis.layout[:2]
        h = h1[np.ix_(x, x)] * (y[:, None] == y) + (x[:, None] == x) * h1[np.ix_(y, y)]
        if self.basis.kind is LatticeKind.PAIR_2D_BOSON:
            on_diag = x == y
            h = np.where(on_diag[:, None] ^ on_diag, math.sqrt(2.0) * h, h)
        return h

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # amplitude matrices with the lattice axes first, so that the chain's
        # band product runs along the first particle's axis
        psi = np.moveaxis(self.basis.embed(np.asarray(x).T), (-2, -1), (0, 1))
        out = self.chain @ psi + np.swapaxes(self.chain @ np.swapaxes(psi, 0, 1), 0, 1)
        return self.basis.restrict(np.moveaxis(out, (0, 1), (-2, -1))).T


def build_pair_lattice(spec: LatticeSpec) -> PairMatrix:
    """2D square lattice encoding a two-particle chain problem: the Kronecker
    sum ``H1 x 1 + 1 x H1`` of the chain ``H1 = build_chain(spec.chain)``
    (:attr:`LatticeSpec.chain`) on the pair basis of ``spec.kind``.  The
    electron lattice is the full ``L x L`` grid with the bond pattern of
    ``H1`` along both axes and potential ``omega * ((x - o) + (y - o))``.
    """
    if not spec.kind.is_pair:
        raise ValueError(f"build_pair_lattice needs a 2D kind, got {spec.kind.value}")
    return PairMatrix(build_chain(spec.chain), pair_basis(spec.kind, spec.n_sites))


def translation_op(dim: int, n0: int) -> SymmetryOp:
    """Shift of basis labels by ``n0``; a partial isometry on any truncation."""
    if dim < 1:
        raise ValueError(f"translation needs dim >= 1, got {dim}")
    return SymmetryOp(shift=int(n0))


def _gauge_signs(dim: int) -> np.ndarray:
    """The gauge's diagonal ``(-1)**(j // 2)``: +1, +1, -1, -1, ..."""
    return np.where((np.arange(dim) // 2) % 2 == 0, 1.0, -1.0)


def gauge_op(dim: int) -> SymmetryOp:
    """Diagonal +-1 gauge with sign ``(-1)**(j // 2)``."""
    return SymmetryOp(signs=_gauge_signs(dim))


def time_reversal_op() -> SymmetryOp:
    """Complex conjugation in the site basis."""
    return SymmetryOp(antiunitary=True)


def _parity_2d_signs(side: int) -> np.ndarray:
    """Diagonal of the electron pair parity: the gauge signs of both particles."""
    signs = _gauge_signs(side)
    return np.outer(signs, signs).ravel()


def parity_2d_op(side: int) -> SymmetryOp:
    """Diagonal parity on the electron pair basis: ``(-1)**(x//2 + y//2)``."""
    return SymmetryOp(signs=_parity_2d_signs(side))


def compose(*factors: SymmetryOp) -> SymmetryOp:
    """Operator product; ``compose(a, b)`` applies ``b`` first, then ``a``."""
    if not factors:
        raise ValueError("compose needs at least one factor")
    anti = sum(f.antiunitary for f in factors) % 2 == 1
    return SymmetryOp(antiunitary=anti, factors=tuple(factors))


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
    h: OperatorMatrix | ChainMatrix, omega: float, n0: int = 2, margin: int | None = None
) -> float:
    """Interior-block norm of ``T_n0 H T_n0^-1 - (H - n0*omega)``.

    On the truncation the inverse is the adjoint of the shift (a partial
    isometry), so the identity can only hold away from the edges, where
    ``(T_n0 H T_n0^-1)[i, j] = H[i - n0, j - n0]``.
    """
    n, entries = h.dim, h.entries
    m = max(interior_margin(n) if margin is None else int(margin), abs(n0))
    w = interior_slice(n, m)
    k = np.arange(w.stop - w.start)
    ramped = entries[w, w].copy()  # H - n0*omega on the window
    ramped[k, k] -= n0 * omega
    shifted = slice(w.start - n0, w.stop - n0)
    return float(np.linalg.norm(entries[shifted, shifted] - ramped))


def gauge_conjugation_deviation(h: OperatorMatrix | ChainMatrix) -> float:
    """Norm of ``g H g^-1 - H*`` (exact for the 1/i chain, even truncated)."""
    g, entries = _gauge_signs(h.dim), h.entries
    return float(np.linalg.norm(g[:, None] * entries * g - np.conj(entries)))


def pt_commutator_deviation(h2d: PairMatrix | OperatorMatrix) -> float:
    """Norm of the commutator of parity-times-conjugation with ``H``.

    For antiunitary ``PT``, ``[PT, H] v = (P conj(H) - H P) conj(v)``, so
    the reported value is ``|| P conj(H) - H P ||``; the diagonal ``P``
    scales rows and columns.
    """
    p, h = _parity_2d_signs(electron_side(h2d.basis_labels)), h2d.entries
    return float(np.linalg.norm(p[:, None] * np.conj(h) - h * p))
