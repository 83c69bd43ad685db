import numpy as np
import pytest

from starkladder.dynamics import evolve
from starkladder.lattices import (
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    build_pair_lattice,
)
from starkladder.pairmap import (
    lift_1d_evolution,
    oracle_pair_hamiltonian,
    pair_basis,
    sector_decompose,
    sector_reassembled_distance,
)
from starkladder.spectra import spectrum_multiset_distance

from sector_reference import reference_projector

OMEGA = 0.2
KINDS = (
    LatticeKind.PAIR_2D_ELECTRON,
    LatticeKind.PAIR_2D_FERMION,
    LatticeKind.PAIR_2D_BOSON,
)


def _electron(side, omega=OMEGA):
    return build_pair_lattice(
        LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=side, omega=omega)
    )


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def test_basis_regions_and_sizes():
    for side in (4, 7):
        assert pair_basis(LatticeKind.PAIR_2D_ELECTRON, side).dim == side**2
        fermion = pair_basis(LatticeKind.PAIR_2D_FERMION, side)
        boson = pair_basis(LatticeKind.PAIR_2D_BOSON, side)
        assert fermion.dim == side * (side - 1) // 2
        assert boson.dim == side * (side + 1) // 2
        assert all(x > y for x, y in fermion.labels)
        assert all(x >= y for x, y in boson.labels)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_electron_diagonal_is_summed_potential():
    h = oracle_pair_hamiltonian(LatticeKind.PAIR_2D_ELECTRON, 6, OMEGA, origin_offset=0)
    idx = {lab: i for i, lab in enumerate(h.basis_labels)}
    for x, y in h.basis_labels:
        assert h.entries[idx[(x, y)], idx[(x, y)]] == pytest.approx(OMEGA * (x + y))


def test_oracle_boson_sqrt2_from_double_occupation():
    h = oracle_pair_hamiltonian(LatticeKind.PAIR_2D_BOSON, 8, 0.0)
    idx = {lab: i for i, lab in enumerate(h.basis_labels)}
    for y in (1, 2):
        assert h.entries[idx[(2 * y + 1, 2 * y)], idx[(2 * y, 2 * y)]] == pytest.approx(
            np.sqrt(2.0)
        )


def test_oracle_fermion_matches_antisymmetric_projection():
    side = 4
    electron = oracle_pair_hamiltonian(LatticeKind.PAIR_2D_ELECTRON, side, 0.0)
    fermion = oracle_pair_hamiltonian(LatticeKind.PAIR_2D_FERMION, side, 0.0)
    assert fermion.dim == 6
    proj = reference_projector(pair_basis(LatticeKind.PAIR_2D_FERMION, side))
    projected = proj @ electron.entries @ proj.T
    np.testing.assert_allclose(fermion.entries, projected, atol=1e-12)


@pytest.mark.parametrize("side", [4, 6, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_builder_equals_oracle_entrywise(side, kind):
    built = build_pair_lattice(LatticeSpec(kind=kind, n_sites=side, omega=OMEGA))
    oracle = oracle_pair_hamiltonian(kind, side, OMEGA)
    assert built.basis_labels == oracle.basis_labels
    assert np.abs(built.entries - oracle.entries).max() < 1e-12


def test_oracle_rejects_small_side():
    with pytest.raises(ValueError):
        oracle_pair_hamiltonian(LatticeKind.PAIR_2D_BOSON, 3, OMEGA)


# ---------------------------------------------------------------------------
# sector decomposition
# ---------------------------------------------------------------------------


def test_projector_rows_are_orthonormal():
    side = 6
    for kind in (LatticeKind.PAIR_2D_BOSON, LatticeKind.PAIR_2D_FERMION):
        basis = pair_basis(kind, side)
        # restrict applied to every electron basis state: the projector's columns
        proj = basis.restrict(np.eye(side * side).reshape(-1, side, side)).T
        np.testing.assert_allclose(proj @ proj.T, np.eye(basis.dim), atol=1e-14)


def test_sector_dimensions_partition_the_square():
    side = 7
    h_sym, h_anti = sector_decompose(_electron(side))
    assert h_sym.dim == side * (side + 1) // 2
    assert h_anti.dim == side * (side - 1) // 2
    assert h_sym.dim + h_anti.dim == side**2


def test_electron_lattice_is_reflection_symmetric():
    h = _electron(8)
    index = h.label_index()
    swap = [index[(y, x)] for x, y in h.basis_labels]
    assert np.array_equal(h.entries[np.ix_(swap, swap)], h.entries)


def _reflection_symmetric_random(side):
    """Random matrix on the electron basis that commutes with (x, y) -> (y, x)."""
    labels = _electron(side).basis_labels
    index = {lab: i for i, lab in enumerate(labels)}
    swap = [index[(y, x)] for x, y in labels]
    rng = np.random.default_rng(side)
    a = rng.normal(size=(side**2, side**2)) + 1j * rng.normal(size=(side**2, side**2))
    return OperatorMatrix(a + a[np.ix_(swap, swap)], labels)


@pytest.mark.parametrize("side", [6, 7])
@pytest.mark.parametrize("source", ["lattice", "random"])
def test_sectors_equal_reference_projections(side, source):
    # the random matrix is not transpose-symmetric, unlike the lattice
    h = _electron(side) if source == "lattice" else _reflection_symmetric_random(side)
    sectors = sector_decompose(h)
    kinds = (LatticeKind.PAIR_2D_BOSON, LatticeKind.PAIR_2D_FERMION)
    for kind, sector in zip(kinds, sectors):
        basis = pair_basis(kind, side)
        proj = reference_projector(basis)
        assert sector.basis_labels == basis.labels
        np.testing.assert_allclose(
            sector.entries, proj @ h.entries @ proj.T, rtol=0, atol=1e-13
        )


def test_sectors_match_hand_built_lattices():
    side = 8
    h_sym, h_anti = sector_decompose(_electron(side))
    boson = build_pair_lattice(
        LatticeSpec(kind=LatticeKind.PAIR_2D_BOSON, n_sites=side, omega=OMEGA)
    )
    fermion = build_pair_lattice(
        LatticeSpec(kind=LatticeKind.PAIR_2D_FERMION, n_sites=side, omega=OMEGA)
    )
    assert np.abs(h_sym.entries - boson.entries).max() < 1e-12
    assert np.abs(h_anti.entries - fermion.entries).max() < 1e-12
    assert h_sym.basis_labels == boson.basis_labels
    assert h_anti.basis_labels == fermion.basis_labels


def test_electron_spectrum_closed_under_conjugation():
    # parity-conjugation symmetry forces conjugate-paired 2D levels
    from starkladder.spectra import conjugation_closure_deviation

    values = np.linalg.eigvals(_electron(8).entries)
    assert conjugation_closure_deviation(values) < 1e-9


def test_sector_spectra_merge_to_electron_spectrum():
    side = 8
    electron = _electron(side)
    h_sym, h_anti = sector_decompose(electron)
    merged = np.concatenate(
        [np.linalg.eigvals(h_sym.entries), np.linalg.eigvals(h_anti.entries)]
    )
    dev = spectrum_multiset_distance(np.linalg.eigvals(electron.entries), merged)
    assert dev < 1e-9


def test_decompose_refuses_asymmetric_matrix():
    h = _electron(6)
    entries = h.entries.copy()
    entries[1, 2] += 0.5  # break reflection symmetry
    broken = OperatorMatrix(entries, h.basis_labels)
    with pytest.raises(ValueError, match="reflection"):
        sector_decompose(broken)


def test_decompose_needs_square_lattice():
    fermion = build_pair_lattice(
        LatticeSpec(kind=LatticeKind.PAIR_2D_FERMION, n_sites=6, omega=OMEGA)
    )
    with pytest.raises(ValueError):
        sector_decompose(fermion)


@pytest.mark.parametrize(
    "kind, side", [(LatticeKind.PAIR_2D_FERMION, 9), (LatticeKind.PAIR_2D_BOSON, 8)]
)
def test_decompose_refuses_square_sized_sector_lattice(kind, side):
    # dimension 36 = 6 x 6: only the basis labels tell it is not an electron lattice
    sector = build_pair_lattice(LatticeSpec(kind=kind, n_sites=side, omega=OMEGA))
    assert sector.dim == 36
    with pytest.raises(ValueError, match="not an electron pair lattice"):
        sector_decompose(sector)


# ---------------------------------------------------------------------------
# evolution equivalence
# ---------------------------------------------------------------------------


def test_lift_evolution_certifies_plumbing():
    side = 8
    rng = np.random.default_rng(0)
    psi0 = rng.normal(size=side**2) + 1j * rng.normal(size=side**2)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 4.0, 5)
    oracle = oracle_pair_hamiltonian(LatticeKind.PAIR_2D_ELECTRON, side, OMEGA)
    direct = evolve(_electron(side), psi0, times)
    assert lift_1d_evolution(direct, oracle) < 1e-8
    # t = 0 is the initial snapshot on both sides, exactly
    assert lift_1d_evolution(evolve(_electron(side), psi0, [0.0]), oracle) == 0.0
    shuffled = OperatorMatrix(oracle.entries, oracle.basis_labels[::-1])
    with pytest.raises(ValueError, match="basis ordering mismatch"):
        lift_1d_evolution(direct, shuffled)


def test_sector_evolution_reassembles():
    side = 8
    rng = np.random.default_rng(1)
    psi0 = rng.normal(size=side**2) + 1j * rng.normal(size=side**2)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 4.0, 5)
    electron = _electron(side)
    direct = evolve(electron, psi0, times)
    assert sector_reassembled_distance(direct, sector_decompose(electron)) < 1e-8


def test_pure_sector_state_stays_in_sector():
    side = 6
    electron = _electron(side)
    fermion = pair_basis(LatticeKind.PAIR_2D_FERMION, side)
    rng = np.random.default_rng(2)
    comp = rng.normal(size=fermion.dim) + 0j
    psi0 = fermion.embed(comp / np.linalg.norm(comp)).ravel()
    series = evolve(electron, psi0, np.linspace(0.0, 5.0, 6))
    boson = pair_basis(LatticeKind.PAIR_2D_BOSON, side)
    for state in series.states:
        assert np.linalg.norm(boson.restrict(state.reshape(side, side))) < 1e-9
