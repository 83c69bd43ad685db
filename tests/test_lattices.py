import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkladder.lattices import (
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    apply_symmetry,
    build_chain,
    build_pair_lattice,
    compose,
    gauge_conjugation_deviation,
    gauge_op,
    in_window,
    interior_margin,
    interior_slice,
    parity_2d_op,
    pt_commutator_deviation,
    ramped_translation_deviation,
    time_reversal_op,
    translation_op,
)


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
    idx = h.label_index()
    for y in range(6):
        assert h.entries[idx[(0, y)], idx[(1, y)]] == 1.0  # even x-bond
        assert h.entries[idx[(1, y)], idx[(2, y)]] == 1j  # odd x-bond
        assert h.entries[idx[(y, 0)], idx[(y, 1)]] == 1.0
        assert h.entries[idx[(y, 1)], idx[(y, 2)]] == 1j


def test_electron_diagonal_potential():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=4, omega=0.3,
                       origin_offset=0)
    h = build_pair_lattice(spec)
    idx = h.label_index()
    for x in range(4):
        for y in range(4):
            assert h.entries[idx[(x, y)], idx[(x, y)]] == pytest.approx(0.3 * (x + y))


def test_boson_sqrt2_on_diagonal_touching_bonds():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_BOSON, n_sites=8, omega=0.0)
    h = build_pair_lattice(spec)
    idx = h.label_index()
    root2 = np.sqrt(2.0)
    assert h.entries[idx[(3, 2)], idx[(2, 2)]] == pytest.approx(root2)  # even x-bond
    assert h.entries[idx[(4, 4)], idx[(4, 3)]] == pytest.approx(root2 * 1j)  # odd y-bond
    # bonds not touching the diagonal stay unscaled
    assert h.entries[idx[(5, 2)], idx[(6, 2)]] == pytest.approx(1j)


def test_fermion_dimension_counts_strict_pairs():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_FERMION, n_sites=6, omega=0.1)
    assert build_pair_lattice(spec).dim == 15


def test_pair_lattice_rejects_small_side():
    with pytest.raises(ValueError):
        LatticeSpec(kind=LatticeKind.PAIR_2D_BOSON, n_sites=3, omega=0.1)


def test_pair_label_order_is_lexicographic():
    spec = LatticeSpec(kind=LatticeKind.PAIR_2D_FERMION, n_sites=4, omega=0.1)
    assert build_pair_lattice(spec).basis_labels == (
        (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
    )


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
