from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkladder.lattices import (
    ChainMatrix,
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    apply_symmetry,
    build_chain,
    build_pair_lattice,
    compose,
    electron_side,
    gauge_conjugation_deviation,
    gauge_op,
    in_window,
    interior_margin,
    interior_slice,
    pair_basis,
    parity_2d_op,
    pt_commutator_deviation,
    ramped_translation_deviation,
    time_reversal_op,
    translation_op,
)

from starkladder.pairmap import oracle_pair_hamiltonian, sector_decompose
from starkladder.spectra import eigendecompose

from sector_reference import reference_pair_lattice


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_two_site_uniform_chain():
    spec = LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=2, omega=0.0)
    h = build_chain(spec)
    np.testing.assert_array_equal(h.entries, np.array([[0, 1], [1, 0]], dtype=complex))


def test_three_site_dimer_1i_with_tilt():
    spec = LatticeSpec(
        kind=LatticeKind.DIMER_1I, n_sites=3, omega=1.0, origin_offset=1
    )
    expected = np.array(
        [[-1, 1, 0], [1, 0, 1j], [0, 1j, 1]], dtype=complex
    )
    np.testing.assert_allclose(build_chain(spec).entries, expected)


def _reference_chain_entries(spec: LatticeSpec) -> np.ndarray:
    """The chain matrix written out site by site and bond by bond."""
    h = np.zeros((spec.n_sites, spec.n_sites), dtype=complex)
    for r in range(spec.n_sites):
        h[r, r] = spec.omega * (r - spec.origin_offset)
    for b in range(spec.n_sites - 1):
        h[b, b + 1] = h[b + 1, b] = spec.j_even if b % 2 == 0 else spec.j_odd
    return h


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from([k for k in LatticeKind if k.is_chain]),
    n=st.integers(min_value=2, max_value=60),
    omega=st.floats(min_value=-2, max_value=2, allow_nan=False),
    offset=st.integers(min_value=-5, max_value=65),
    hopping=st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)
def test_chain_entries_equal_the_dense_assembly_bit_for_bit(kind, n, omega, offset, hopping):
    # a chain holds only its bands; entries, assembled on each read, is the
    # matrix written out site by site, signed zeros included
    j_even = 1.0 if kind is LatticeKind.DIMER_1I else hopping
    spec = LatticeSpec(kind=kind, n_sites=n, omega=omega, j_even=j_even, origin_offset=offset)
    h = build_chain(spec)
    assert h.entries.tobytes() == _reference_chain_entries(spec).tobytes()
    assert h.entries is not h.entries  # never stored


def test_chain_product_is_the_band_product():
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=9, omega=0.3,
                                j_even=0.8 + 0.6j))
    rng = np.random.default_rng(2)
    x = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
    np.testing.assert_allclose(h @ x, h.entries @ x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(h @ x[:, 1], h.entries @ x[:, 1], rtol=0, atol=1e-15)


def test_chain_bands_are_read_only_and_sized():
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=6, omega=0.2))
    with pytest.raises(ValueError):
        h.off[0] = 2.0
    with pytest.raises(ValueError, match="6 sites need 5 bonds"):
        ChainMatrix(h.diag, h.off[:-1], h.basis_labels)
    with pytest.raises(ValueError, match="as many labels as sites"):
        ChainMatrix(h.diag, h.off, h.basis_labels[:-1])


def test_long_chain_is_held_as_its_bands(traced_peak):
    # two bands of 1000 complex numbers; the dense matrix took 16 MB
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=0.2)
    assert traced_peak(lambda: build_chain(spec))[1] < 1e6


def test_chain_labels_are_row_indices():
    h = build_chain(LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=5, omega=0.1))
    assert h.basis_labels == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("n_sites", [0, 1, -3])
def test_chain_rejects_too_few_sites(n_sites):
    with pytest.raises(ValueError):
        LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=n_sites, omega=0.2)


@pytest.mark.parametrize("omega", [float("nan"), float("inf"), 1.0 + 1.0j])
def test_chain_rejects_bad_omega(omega):
    with pytest.raises(ValueError):
        LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=4, omega=omega)


@pytest.mark.parametrize("kind, field, value", [
    (LatticeKind.UNIFORM_1D, "j_even", complex("inf+1j")),
    (LatticeKind.UNIFORM_1D, "j_even", float("nan")),
    (LatticeKind.DIMER_JJSTAR, "j_even", float("inf")),
    (LatticeKind.DIMER_JJSTAR, "j_odd", complex(1, float("inf"))),
    (LatticeKind.UNIFORM_1D, "origin_offset", 2.7),
    (LatticeKind.UNIFORM_1D, "origin_offset", float("inf")),
    (LatticeKind.UNIFORM_1D, "origin_offset", "3"),
    (LatticeKind.UNIFORM_1D, "n_sites", float("inf")),
])
def test_spec_rejects_non_finite_hoppings_and_non_integral_sites(kind, field, value):
    # once truncated (origin_offset 2.7 ran at 2) or built into a matrix
    # that OperatorMatrix refused only at run time
    with pytest.raises(ValueError):
        LatticeSpec(**{"kind": kind, "n_sites": 8, "omega": 0.2, field: value})


def test_jjstar_forces_conjugate_hoppings():
    spec = LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=6, omega=0.1,
                       j_even=0.8 + 0.6j)
    assert spec.j_odd == 0.8 - 0.6j
    with pytest.raises(ValueError):
        LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=6, omega=0.1,
                    j_even=0.8 + 0.6j, j_odd=0.8 + 0.6j)


def test_dimer_1i_amplitudes_are_fixed():
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=6, omega=0.1)
    assert (spec.j_even, spec.j_odd) == (1.0, 1j)
    with pytest.raises(ValueError):
        LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=6, omega=0.1, j_even=2.0)


def test_build_chain_rejects_pair_kind():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=6, omega=0.1)
    with pytest.raises(ValueError):
        build_chain(spec)


def test_origin_offset_defaults_to_center():
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=8, omega=0.3)
    assert spec.origin_offset == 4
    h = build_chain(spec)
    assert h.entries[4, 4] == 0


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=40),
    omega=st.floats(min_value=-2, max_value=2, allow_nan=False),
    re=st.floats(min_value=-1.5, max_value=1.5),
    im=st.floats(min_value=-1.5, max_value=1.5),
)
def test_chain_is_tridiagonal_and_hopping_symmetric(n, omega, re, im):
    j = complex(re, im)
    if j == 0:
        j = 1.0
    spec = LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=n, omega=omega, j_even=j)
    h = build_chain(spec).entries
    assert np.array_equal(h, h.T)  # same amplitude on both bond directions
    off = np.triu(h, 2)
    assert not off.any()  # nearest-neighbor only
    bonds = np.diag(h, 1)
    assert np.all(bonds[0::2] == j) and np.all(bonds[1::2] == np.conj(j))


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=6, max_value=48),
    omega=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)
def test_ramped_translation_holds_for_any_tilt(n, omega):
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=n, omega=omega))
    assert ramped_translation_deviation(h, omega, n0=2) < 1e-12


# ---------------------------------------------------------------------------
# pair lattices
# ---------------------------------------------------------------------------


def test_electron_bond_pattern():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=6, omega=0.0)
    h = build_pair_lattice(spec)
    idx = {lab: i for i, lab in enumerate(h.basis_labels)}
    for y in range(6):
        assert h.entries[idx[(0, y)], idx[(1, y)]] == 1.0  # even x-bond
        assert h.entries[idx[(1, y)], idx[(2, y)]] == 1j  # odd x-bond
        assert h.entries[idx[(y, 0)], idx[(y, 1)]] == 1.0
        assert h.entries[idx[(y, 1)], idx[(y, 2)]] == 1j


def test_electron_diagonal_potential():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=4, omega=0.3,
                       origin_offset=0)
    h = build_pair_lattice(spec)
    idx = {lab: i for i, lab in enumerate(h.basis_labels)}
    for x in range(4):
        for y in range(4):
            assert h.entries[idx[(x, y)], idx[(x, y)]] == pytest.approx(0.3 * (x + y))


def test_boson_sqrt2_on_diagonal_touching_bonds():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_BOSON, n_sites=8, omega=0.0)
    h = build_pair_lattice(spec)
    idx = {lab: i for i, lab in enumerate(h.basis_labels)}
    root2 = np.sqrt(2.0)
    assert h.entries[idx[(3, 2)], idx[(2, 2)]] == pytest.approx(root2)  # even x-bond
    assert h.entries[idx[(4, 4)], idx[(4, 3)]] == pytest.approx(root2 * 1j)  # odd y-bond
    # bonds not touching the diagonal stay unscaled
    assert h.entries[idx[(5, 2)], idx[(6, 2)]] == pytest.approx(1j)


def test_fermion_dimension_counts_strict_pairs():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_FERMION, n_sites=6, omega=0.1)
    assert build_pair_lattice(spec).dim == 15


@pytest.mark.parametrize("offset", [None, 0, 3])
@pytest.mark.parametrize("kind", [k for k in LatticeKind if k.is_pair])
@pytest.mark.parametrize("side", [4, 5, 7, 8, 12, 40])
def test_pair_lattice_equals_kronecker_reference_bitwise(side, kind, offset):
    spec = LatticeSpec(kind=kind, n_sites=side, omega=0.37, origin_offset=offset)
    h = build_pair_lattice(spec)
    entries, labels = reference_pair_lattice(spec)
    assert h.basis_labels == labels
    assert h.entries.tobytes() == entries.tobytes()


def test_sector_build_never_forms_the_electron_lattice(traced_peak):
    # the 1600 x 1600 complex electron matrix alone takes 41 MB
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_FERMION, n_sites=40, omega=0.2)
    assert traced_peak(lambda: build_pair_lattice(spec).entries)[1] < 40e6


def test_pair_lattice_rejects_small_side():
    with pytest.raises(ValueError):
        LatticeSpec(kind=LatticeKind.PAIR_2D_BOSON, n_sites=3, omega=0.1)


def test_pair_label_order_is_lexicographic():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_FERMION, n_sites=4, omega=0.1)
    assert build_pair_lattice(spec).basis_labels == (
        (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
    )


@pytest.mark.parametrize("kind", [k for k in LatticeKind if k.is_pair])
@pytest.mark.parametrize("side", [2, 3, 4, 6, 8, 9, 13])
def test_pair_basis_of_recognizes_each_pair_basis(kind, side):
    # electron_side accepts the electron basis and no other pair basis
    labels = pair_basis(kind, side).labels
    if kind is LatticeKind.PAIR_2D_ELECTRON:
        assert electron_side(labels) == side
    else:
        with pytest.raises(ValueError, match="not an electron pair lattice"):
            electron_side(labels)


def test_pair_basis_of_refuses_other_labels():
    # 36 labels: the electron basis at L = 6, fermions at L = 9, bosons at
    # L = 8; only the labels themselves tell them apart
    labels = pair_basis(LatticeKind.PAIR_2D_ELECTRON, 6).labels
    others = [pair_basis(LatticeKind.PAIR_2D_FERMION, 9).labels,
              pair_basis(LatticeKind.PAIR_2D_BOSON, 8).labels,
              tuple(range(36)), labels[::-1], labels[:-1],
              ((0, 0), (1, 0), (0, 1), (1, 1))]  # the last not lexicographic
    for other in others:
        with pytest.raises(ValueError, match="not an electron pair lattice"):
            electron_side(other)


PAIR_KINDS = [k for k in LatticeKind if k.is_pair]


def _assert_chain(read: ChainMatrix, chain: ChainMatrix) -> None:
    """``read`` is ``chain``: the same bands, equal entry by entry."""
    assert read.basis_labels == chain.basis_labels
    np.testing.assert_array_equal(read.diag, chain.diag)
    np.testing.assert_array_equal(read.off, chain.off)


def _assert_entries(got: np.ndarray, want: np.ndarray) -> None:
    assert np.abs(got - want).max() <= 1e-15 * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize("kind", PAIR_KINDS)
@pytest.mark.parametrize("side", [4, 5, 6, 7, 8, 9, 10, 11, 12, 40])
def test_pair_lattice_holds_its_built_chain(kind, side):
    # a pair lattice holds the chain it is the Kronecker sum of; the oracle,
    # which knows no chain, and the electron lattice's swap sectors have its
    # entries
    for offset in (None, 0, 1):
        for omega in (0.0, 0.2, 1.2):
            spec = LatticeSpec(kind=kind, n_sites=side, omega=omega, origin_offset=offset)
            h = build_pair_lattice(spec)
            _assert_chain(h.chain, build_chain(spec.chain))
            assert h.basis == pair_basis(kind, side)
            _assert_entries(oracle_pair_hamiltonian(kind, side, omega, offset).entries,
                            h.entries)
            if kind is LatticeKind.PAIR_2D_ELECTRON:
                sectors = sector_decompose(h)
                for sector, other in zip(sectors, (LatticeKind.PAIR_2D_BOSON,
                                                   LatticeKind.PAIR_2D_FERMION)):
                    _assert_entries(sector.entries,
                                    build_pair_lattice(replace(spec, kind=other)).entries)


def test_only_a_pair_matrix_takes_the_kronecker_route():
    # only a PairMatrix holds a chain: the same lattice as a dense matrix on
    # its pair labels is decomposed as any dense matrix, its labels unread
    h = build_pair_lattice(LatticeSpec(LatticeKind.PAIR_2D_ELECTRON, 6, 0.2))
    assert eigendecompose(h).solver == "kronecker"
    assert eigendecompose(OperatorMatrix(h.entries, h.basis_labels)).solver == "dense"


@st.composite
def _pair_products(draw):
    """A pair lattice and a vector or a block of 1, 64 or 67 columns."""
    kind = draw(st.sampled_from(PAIR_KINDS))
    side = draw(st.integers(4, 14))
    spec = LatticeSpec(kind=kind, n_sites=side, omega=draw(st.floats(-1.5, 1.5)),
                       origin_offset=draw(st.integers(0, side - 1)))
    columns = draw(st.sampled_from([None, 1, 64, 67]))
    return spec, columns, draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=60)
@given(_pair_products())
def test_pair_product_is_the_dense_product(case):
    spec, columns, seed = case
    h = build_pair_lattice(spec)
    shape = (h.dim,) if columns is None else (h.dim, columns)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got, want = h @ x, h.entries @ x
    assert got.shape == want.shape == shape
    miss = np.linalg.norm(got - want, axis=0)
    assert np.all(miss <= 1e-14 * np.linalg.norm(want, axis=0))


def test_pair_spec_names_its_chain():
    spec = LatticeSpec(LatticeKind.PAIR_2D_BOSON, 9, 0.3, origin_offset=1)
    assert spec.chain == LatticeSpec(LatticeKind.DIMER_1I, 9, 0.3, origin_offset=1)
    with pytest.raises(ValueError, match="not a pair lattice"):
        LatticeSpec(LatticeKind.DIMER_1I, 9, 0.3).chain


# ---------------------------------------------------------------------------
# symmetry operators
# ---------------------------------------------------------------------------


def test_gauge_sign_pattern():
    g = gauge_op(6)
    assert g.shift == 0
    np.testing.assert_array_equal(g.signs, [1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


def test_translate_is_partial_isometry():
    t = translation_op(4, 2)
    images = [apply_symmetry(t, e) for e in np.eye(4)]
    # e0 -> e2, e1 -> e3; e2 and e3 are shifted off the truncation
    np.testing.assert_array_equal(
        images, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    back = translation_op(4, -2)
    np.testing.assert_array_equal(apply_symmetry(back, images[0]), [1, 0, 0, 0])


def test_parity_2d_floor_arithmetic():
    p = parity_2d_op(6).signs
    label = 2 * 6 + 3  # (x, y) = (2, 3): (-1)**(1 + 1) = +1
    assert p[label] == 1.0
    label = 1 * 6 + 2  # (1, 2): (-1)**(0 + 1) = -1
    assert p[label] == -1.0
    np.testing.assert_array_equal(
        parity_2d_op(4).signs,
        [1, 1, -1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, -1, 1, 1],
    )


def test_compose_tracks_antiunitarity():
    t, g = time_reversal_op(), gauge_op(4)
    assert compose(t, g).antiunitary
    assert not compose(t, g, t).antiunitary


def test_apply_symmetry_order_and_conjugation():
    vec = np.array([1.0, 1j, 2.0, 3j])
    t, g = time_reversal_op(), gauge_op(4)
    # compose(T, g): gauge first, then conjugation
    out = apply_symmetry(compose(t, g), vec)
    np.testing.assert_array_equal(out, [1.0, -1j, -2.0, 3j])
    np.testing.assert_array_equal(apply_symmetry(t, vec), [1.0, -1j, 2.0, -3j])
    # translation and gauge do not commute: the factor order shows
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    shift = translation_op(4, 1)
    np.testing.assert_array_equal(apply_symmetry(compose(g, shift), vec), [0, 1, -2, -3])
    np.testing.assert_array_equal(apply_symmetry(compose(shift, g), vec), [0, 1, 2, -3])


def test_apply_symmetry_shift():
    vec = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    out = apply_symmetry(translation_op(4, 1), vec)
    np.testing.assert_allclose(out, [0.0, 1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# matrix identities
# ---------------------------------------------------------------------------


def test_gauge_conjugation_identity_exact(dimer60):
    _, h, _ = dimer60
    assert gauge_conjugation_deviation(h) == 0.0


def test_ramped_translation_identity_interior(dimer60):
    spec, h, _ = dimer60
    assert ramped_translation_deviation(h, spec.omega, n0=2) < 1e-12


def test_ramped_translation_jjstar(jjstar60):
    spec, h, _ = jjstar60
    assert ramped_translation_deviation(h, spec.omega, n0=2) < 1e-12


def test_pt_commutes_with_electron_lattice():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=12, omega=0.2)
    assert pt_commutator_deviation(build_pair_lattice(spec)) < 1e-12


@pytest.mark.parametrize(
    "kind, side", [(LatticeKind.PAIR_2D_FERMION, 9), (LatticeKind.PAIR_2D_BOSON, 8)]
)
def test_pt_commutator_refuses_square_sized_sector_lattice(kind, side):
    # dimension 36 = 6 x 6: only the basis labels tell it is not an electron lattice
    h = build_pair_lattice(LatticeSpec(kind=kind, n_sites=side, omega=0.2))
    assert h.dim == 36
    with pytest.raises(ValueError, match="not an electron pair lattice"):
        pt_commutator_deviation(h)


def test_interior_window_defaults():
    assert interior_margin(60) == 10
    win = interior_slice(60)
    assert (win.start, win.stop) == (10, 50)
    inside = in_window([9.99, 10.0, 49.0, 49.01], win)
    np.testing.assert_array_equal(inside, [False, True, True, False])
    with pytest.raises(ValueError):
        interior_slice(4, margin=2)


# ---------------------------------------------------------------------------
# OperatorMatrix container
# ---------------------------------------------------------------------------


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)), (0, 1))
    with pytest.raises(ValueError):
        OperatorMatrix(np.full((2, 2), np.nan), (0, 1))
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 2)), (0, 1, 2))
