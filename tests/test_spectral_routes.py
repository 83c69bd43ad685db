"""The tridiagonal and Kronecker eigensolver routes against the dense
reference.

Chains take one Schur form without Schur vectors plus inverse iteration:
``dgees`` on the real gauge image of a chain with a real diagonal and only
real or imaginary bonds, which pairs its levels as exact conjugates and
stores one column per pair, the partner's ``g * conj(v)`` formed on
request; ``zgees`` on every chain with a complex bond product.  Pair lattices
take the sums and products of their chain's eigenpairs.  Both routes use
the transpose inverse ``V^-1 = D^-1 V^T`` and a power-iteration estimate
of kappa_2.  The reference (``tests/spectral_reference.py``) takes ``eig``,
LU and an SVD.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import starkladder.spectra as spectra
from starkladder.dynamics import evolve
from starkladder.lattices import (
    ChainMatrix,
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    PairMatrix,
    build_chain,
    build_pair_lattice,
    pair_basis,
)
from starkladder.pairmap import oracle_pair_hamiltonian, sector_decompose
from starkladder.spectra import (
    CONDITION_LIMIT,
    GRAM_TOL,
    ComplexSpectrum,
    RESIDUAL_TOL,
    _start_vectors,
    eigendecompose,
    leading_amplitude_index,
    localization_center,
    participation_ratio,
    scan_E0_vs_omega,
    select_reference_state,
    spectrum_multiset_distance,
)

from ladder_reference import reference_multiset_distance
from sector_reference import reference_kronecker_sum
from spectral_reference import (
    dense_condition,
    dense_eigenpairs,
    dense_schur_eigenvalues,
    lu_coefficients,
    reference_chain_eigenvectors,
    reference_level_order,
    reference_transpose_times,
    reference_tridiagonal_spectrum,
    reference_vectors_times,
)

CHAIN_KINDS = [LatticeKind.UNIFORM_1D, LatticeKind.DIMER_JJSTAR, LatticeKind.DIMER_1I]


@st.composite
def _chains(draw):
    kind = draw(st.sampled_from(CHAIN_KINDS))
    n = draw(st.integers(2, 200))
    omega = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    hopping = 1.0
    if kind is not LatticeKind.DIMER_1I:
        hopping = complex(draw(st.floats(0.2, 2.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi))))
    return LatticeSpec(kind=kind, n_sites=n, omega=omega, j_even=hopping)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_chains())
# exceptional points, certified only through the dense fallback (at n = 3 an EP3)
@example(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=3, omega=0.0))
@example(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=7, omega=0.0))
# an EP whose SVD kappa, 6e10, is below CONDITION_LIMIT: inf all the same
@example(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=51, omega=0.0))
@example(LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=200, omega=0.05, j_even=0.8 + 0.6j))
# purely imaginary bonds: the real gauge image off dimer_1i
@example(LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=60, omega=0.5, j_even=0.7j))
@example(LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=80, omega=0.5, j_even=0.5j))
def test_chain_spectrum_matches_dense_reference(spec):
    h = build_chain(spec)
    values, vectors, residuals = dense_eigenpairs(h.entries)
    if residuals.max() >= RESIDUAL_TOL:  # the dense route does not certify it either
        return
    spectrum = eigendecompose(h)  # certified wherever the dense route is
    scale = max(1.0, float(np.abs(values).max()))
    assert spectrum_multiset_distance(spectrum.eigenvalues, values) <= 1e-10 * scale

    kappa = dense_condition(vectors)
    # an eigenvector within GRAM_TOL of self-orthogonal (dimer_1i n = 3, 7 and
    # 51 at omega = 0, SVD kappa 4e10 to 6e10; dimer_jjstar n = 157, 8e9): an
    # exceptional point, which no transpose inverse expands in, although the
    # SVD reads kappa below the limit
    overlap = np.abs(np.einsum("ij,ij->j", vectors, vectors)).min()
    assert (spectrum.condition == np.inf) == (overlap < GRAM_TOL)
    if overlap < GRAM_TOL:
        return
    assert (spectrum.condition > CONDITION_LIMIT) == (kappa > CONDITION_LIMIT)
    if kappa > CONDITION_LIMIT:
        # the SVD's smallest singular value is only good to eps * kappa
        # relative: past the limit neither number is more than a verdict
        return
    assert spectrum.condition == pytest.approx(kappa, rel=0.05)
    rng = np.random.default_rng(spec.n_sites)
    psi = rng.normal(size=spec.n_sites) + 1j * rng.normal(size=spec.n_sites)
    reference = lu_coefficients(spectrum.right_eigenvectors, psi)
    error = np.linalg.norm(spectrum.coefficients(psi) - reference)
    assert error <= 1e-13 * max(1.0, kappa) * np.linalg.norm(reference)


# approaches an exceptional point: kappa_2 = 3.2e6, so the tridiagonal route
# rejects its own result and the dense route certifies the chain
NEAR_EP = LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=200, omega=0.05, j_even=0.8 + 0.6j)


@st.composite
def _dimer_chains(draw):
    kind = draw(st.sampled_from([LatticeKind.DIMER_1I, LatticeKind.DIMER_JJSTAR]))
    hopping = 1.0
    if kind is LatticeKind.DIMER_JJSTAR:
        hopping = complex(np.exp(1j * draw(st.floats(0.1, 1.5))))
    return LatticeSpec(
        kind=kind,
        n_sites=draw(st.integers(2, 300)),
        omega=draw(st.floats(0.01, 1.2)),
        j_even=hopping,
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_dimer_chains())
@example(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=2, omega=0.01))
@example(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=3, omega=1.2))
@example(LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=3, omega=0.3, j_even=0.8 + 0.6j))
@example(NEAR_EP)
def test_schur_eigenvalues_match_eig(spec):
    h = build_chain(spec)
    values = scipy.linalg.eig(h.entries, right=False)
    spectrum = eigendecompose(h)
    scale = max(1.0, float(np.abs(values).max()))
    assert spectrum_multiset_distance(spectrum.eigenvalues, values) <= 1e-10 * scale


def test_near_exceptional_point_takes_the_dense_route():
    assert eigendecompose(build_chain(NEAR_EP)).solver == "dense"


def _spied(monkeypatch, name: str, info=None) -> list:
    """Record the keyword arguments of each call of the LAPACK routine
    ``spectra.<name>``; overwrite the returned ``info`` unless it is None."""
    calls = []
    original = getattr(spectra, name)

    def spy(select, a, **kwargs):
        calls.append(kwargs)
        result = original(select, a, **kwargs)
        return result if info is None else (*result[:-1], info)

    monkeypatch.setattr(spectra, name, spy)
    return calls


# dimer_1i takes dgees on its real gauge image, a generic J/J* dimer zgees
DIMER_1I_60 = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.2)
JJSTAR_60 = LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=60, omega=0.2, j_even=0.8 + 0.6j)
# the long chains whose columns are exact zeros far from their centres
DIMER_1I_1000 = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=0.2)
JJSTAR_1000 = LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=1000, omega=0.2, j_even=0.5 + 0.5j)


def _assert_failed_schur_takes_the_dense_route(monkeypatch, name, spec):
    # info = 1: the QR iteration did not converge, whatever the values read
    calls = _spied(monkeypatch, name, info=1)
    h = build_chain(spec)
    spectrum = eigendecompose(h)
    assert len(calls) == 1
    assert spectrum.solver == "dense"
    np.testing.assert_array_equal(spectrum.eigenvalues, dense_eigenpairs(h.entries)[0])


def test_failed_schur_iteration_takes_the_dense_route(monkeypatch):
    _assert_failed_schur_takes_the_dense_route(monkeypatch, "dgees", DIMER_1I_60)


def test_failed_complex_schur_iteration_takes_the_dense_route(monkeypatch):
    _assert_failed_schur_takes_the_dense_route(monkeypatch, "zgees", JJSTAR_60)


def _assert_schur_workspace(monkeypatch, name, other, spec, kwargs):
    # from about 8n of workspace on, the Hessenberg reduction runs blocked in
    # O(n^3), and the n = 1000 chain's eigenvalues take 2.3 times as long
    calls, others = _spied(monkeypatch, name), _spied(monkeypatch, other)
    assert eigendecompose(build_chain(spec)).solver == "tridiagonal"
    assert calls == [kwargs]
    assert others == []


def test_schur_workspace_keeps_the_hessenberg_reduction_unblocked(monkeypatch):
    # the real gauge image is built in Fortran order for dgees to overwrite
    kwargs = {"compute_v": 0, "lwork": 180, "overwrite_a": 1}
    _assert_schur_workspace(monkeypatch, "dgees", "zgees", DIMER_1I_60, kwargs)


def test_complex_schur_workspace_keeps_the_hessenberg_reduction_unblocked(monkeypatch):
    # T is built from the chain's bands in Fortran order for zgees to overwrite
    kwargs = {"compute_v": 0, "lwork": 180, "overwrite_a": 1}
    _assert_schur_workspace(monkeypatch, "zgees", "dgees", JJSTAR_60, kwargs)


@pytest.mark.parametrize("omega", [0.05, 0.2])
def test_complex_schur_form_from_the_bands_equals_the_dense_matrix(omega):
    # T is built from the bands in Fortran order and overwritten in place,
    # where zgees took a copy of the dense matrix: the same input bit for bit,
    # so the same eigenvalues (at omega = 0.05, NEAR_EP, the route then
    # rejects its own result and the dense route runs)
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=200, omega=omega,
                                j_even=0.8 + 0.6j))
    values, plus = spectra._schur_eigenvalues(h.diag, h.off)
    assert plus.size == 0
    assert values.tobytes() == dense_schur_eigenvalues(h.entries).tobytes()


def test_corrupted_partner_columns_are_refused(monkeypatch):
    # every partner column g * conj(v) is certified against the complex T:
    # with the gauge signs dropped, conj(v) is no eigenvector of T, and the
    # tridiagonal route refuses its own result
    monkeypatch.setattr(spectra, "_bond_gauge", lambda off: np.ones(off.size + 1))
    h = build_chain(DIMER_1I_60)
    spectrum = eigendecompose(h)
    assert spectrum.solver == "dense"
    assert spectrum.residuals.max() < RESIDUAL_TOL


def test_partner_columns_are_gauge_conjugates():
    # on the real route each conjugate pair shares one Schur-form pair and
    # one inverse iteration: E- is exactly conj(E+), and v- is g * conj(v+)
    # up to the phase convention and its rounding
    h = build_chain(DIMER_1I_60)
    spectrum = eigendecompose(h)
    values, v = spectrum.eigenvalues, spectrum.right_eigenvectors
    minus = np.flatnonzero(values.imag < 0)
    plus = np.array([np.flatnonzero(values == np.conj(e))[0] for e in values[minus]])
    assert minus.size == 29  # and two real levels
    g = (-1.0) ** (np.arange(60) // 2)
    partner = g[:, None] * np.conj(v[:, plus])
    lead = partner[leading_amplitude_index(partner), np.arange(minus.size)]
    np.testing.assert_allclose(partner * (np.abs(lead) / lead), v[:, minus], rtol=0, atol=1e-15)


def _stored_columns(spectrum: ComplexSpectrum) -> int:
    return sum(block.shape[1] for _, block in spectrum.windows)


@pytest.mark.parametrize("n", [40, 60, 1000])
def test_partner_columns_equal_the_stored_route_value_for_value(n):
    # only the Im E >= 0 columns are stored; each partner, formed on request
    # as g[lead] * g * conj(v), is the column the route wrote when it stored
    # all n: g * conj(x) of the raw column, then the phase convention (exact
    # zeros may differ in sign)
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=n, omega=0.2))
    spectrum = eigendecompose(h)
    assert _stored_columns(spectrum) == n // 2 + 1  # two real levels
    assert np.array_equal(spectrum.right_eigenvectors, reference_chain_eigenvectors(h))


def test_zgees_columns_equal_the_whole_matrix_route_value_for_value():
    # a J/J* chain stores every column, in row windows: dropping the exact
    # zeros outside them loses no digit of the columns the route wrote into
    # one n x n array
    h = build_chain(JJSTAR_1000)
    spectrum = eigendecompose(h)
    assert spectrum.solver == "tridiagonal"
    assert _stored_columns(spectrum) == 1000
    assert np.array_equal(spectrum.right_eigenvectors, reference_chain_eigenvectors(h))


def _check_products(spectrum: ComplexSpectrum) -> None:
    """The products, the expansion and the per-column statistics of
    ``spectrum``'s windows against those of the assembled V."""
    n = spectrum.dim
    v = spectrum.right_eigenvectors
    whole = ComplexSpectrum(spectrum.eigenvalues, ((0, v),), spectrum.residuals,
                            spectrum.solver)
    rng = np.random.default_rng(n)
    for x in (rng.normal(size=n) + 1j * rng.normal(size=n),
              rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))):
        ulp = np.finfo(float).eps * np.linalg.norm(v) * np.linalg.norm(x)
        assert np.abs(spectrum.vectors_times(x) - v @ x).max() <= 4 * ulp
        assert np.abs(spectrum.transpose_times(x) - v.T @ x).max() <= 4 * ulp
        if spectrum.condition > CONDITION_LIMIT:
            for basis in (spectrum, whole):
                with pytest.raises(ValueError):
                    basis.coefficients(x)
            continue
        bound = 32 * np.finfo(float).eps * spectrum.condition * np.linalg.norm(x)
        assert np.abs(spectrum.coefficients(x) - whole.coefficients(x)).max() <= bound
    centers = spectrum.per_column(lambda _, block: localization_center(block))
    assert np.array_equal(centers, localization_center(v))
    # k rows per block join into a (k, dim) array, one pass for k statistics
    rows = spectrum.per_column(lambda _, block: np.stack(
        [localization_center(block), participation_ratio(block)]))
    assert rows.shape == (2, spectrum.dim)
    assert np.array_equal(rows[0], centers)
    assert np.array_equal(rows[1], participation_ratio(v))


@st.composite
def _partnered_chains(draw):
    kind = draw(st.sampled_from([LatticeKind.DIMER_1I, LatticeKind.DIMER_JJSTAR]))
    n = draw(st.integers(4, 80))
    hopping = 1.0
    if kind is LatticeKind.DIMER_JJSTAR:
        hopping = complex(np.exp(1j * draw(st.floats(0.1, 1.5))))
    return LatticeSpec(kind=kind, n_sites=n, omega=draw(st.floats(0.0, 1.5)),
                       j_even=hopping, origin_offset=draw(st.integers(0, n - 1)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_partnered_chains())
@example(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=61, omega=0.2, origin_offset=7))
def test_products_with_the_stored_columns_match_the_assembled_matrix(spec):
    # V @ X as S @ A + g * conj(S @ B) and V^T @ X likewise: the rounding of
    # one matrix product; the expansion inherits it, amplified by kappa_2
    _check_products(eigendecompose(build_chain(spec)))


@pytest.mark.parametrize("spec, most_bytes", [(DIMER_1I_1000, 4.5e6), (JJSTAR_1000, 7.5e6)],
                         ids=["dimer_1i", "jjstar"])
def test_trimmed_windows_match_the_assembled_matrix(spec, most_bytes):
    # at n = 1000 the columns are exact zeros beyond about 250 sites of
    # their centre, so most windows are shorter than the chain: the products
    # sum only their nonzero rows, and still agree to the rounding of one
    # product with the assembled V (n <= 80 above keeps every window whole)
    spectrum = eigendecompose(build_chain(spec))
    assert min(len(block) for _, block in spectrum.windows) < spectrum.dim
    assert sum(block.nbytes for _, block in spectrum.windows) < most_bytes
    _check_products(spectrum)


@pytest.mark.parametrize(
    "spec",
    [
        LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.2),
        LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=200, omega=0.9),
        LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=60, omega=0.2, j_even=0.8 + 0.6j),
        LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=80, omega=0.5),
    ],
    ids=lambda s: f"{s.kind.value}-{s.n_sites}-{s.omega}",
)
def test_routes_agree_column_by_column(spec):
    # well separated levels: both routes find the same eigenvectors, and the
    # phase convention puts them in the same phase
    h = build_chain(spec)
    spectrum = eigendecompose(h)
    values, vectors, _ = dense_eigenpairs(h.entries)
    assert spectrum.solver == "tridiagonal"
    # the Schur forms (dgees or zgees) and eig's zgeev are different kernels:
    # level by level in level order they agree to about 1.3e-14
    scale = np.maximum(1.0, np.abs(values))
    assert np.all(np.abs(spectrum.eigenvalues - values) <= 1e-13 * scale)
    gaps = np.linalg.norm(spectrum.right_eigenvectors - vectors, axis=0)
    assert gaps.max() <= 1e-10
    # V^T V is diagonal to rounding; the dense route's is only to ~1e-14
    v = spectrum.right_eigenvectors
    gram = v.T @ v
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 2e-15


def test_chain_eigenvectors_decay_without_a_floor():
    # where the dense route's amplitudes have decayed below 1e-100, inverse
    # iteration's have too: no floor of the start vector's other modes
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=300, omega=0.2))
    _, vectors, _ = dense_eigenpairs(h.entries)
    far = np.abs(vectors) < 1e-100
    assert far.sum() > 5000
    assert np.abs(eigendecompose(h).right_eigenvectors[far]).max() < 1e-60


def test_coefficients_expand_matrix_columns(dimer60):
    _, _, spectrum = dimer60
    rng = np.random.default_rng(7)
    psi = rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3))
    c = spectrum.coefficients(psi)
    for k in range(3):
        np.testing.assert_allclose(c[:, k], spectrum.coefficients(psi[:, k]), atol=1e-14)
    np.testing.assert_allclose(spectrum.right_eigenvectors @ c, psi, atol=1e-13)


def _counted_lu(monkeypatch) -> list:
    calls = []
    original = scipy.linalg.lu_factor

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", wrapper)
    return calls


def _basis(vectors: np.ndarray) -> ComplexSpectrum:
    n = vectors.shape[0]
    return ComplexSpectrum(np.arange(n, dtype=complex), ((0, vectors),), np.zeros(n))


def test_a_whole_matrix_window_multiplies_as_its_matrix():
    # the dense and Kronecker routes hold V as one window: its products are
    # V @ X and V^T @ X bit for bit, each -0.0 included, which a product
    # added into zeros would turn into +0.0
    v = np.array([[-1.0, -1.0], [1.0, -1.0]], dtype=complex)
    x = np.zeros((2, 3), dtype=complex)
    assert np.signbit((v @ x).real).all()
    spectrum = _basis(v)
    assert spectrum.vectors_times(x).tobytes() == (v @ x).tobytes()
    assert spectrum.transpose_times(x).tobytes() == (v.T @ x).tobytes()


def test_refinement_rescues_a_nearly_transpose_orthogonal_basis(monkeypatch):
    # V^T V - D ~ 1e-9: D^-1 V^T alone misses psi by ~1e-9, the refined
    # coefficients reconstruct it to rounding, so LU never runs
    calls = _counted_lu(monkeypatch)
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    v = q + 1e-9 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    spectrum = _basis(v / np.linalg.norm(v, axis=0))
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    c = spectrum.coefficients(psi)
    assert calls == []
    np.testing.assert_allclose(c, lu_coefficients(spectrum.right_eigenvectors, psi), atol=1e-14)


def test_ill_conditioned_basis_keeps_the_transpose_route(monkeypatch):
    # a complex orthogonal basis (V^T V = 1) with kappa ~ e^16: the transpose
    # route reconstructs psi only to ~2e-10, as LU does, but its backward
    # error against ||V|| ||c|| is at rounding, so no LU solve runs
    calls = _counted_lu(monkeypatch)
    a = 8.0
    v = np.array([[np.cosh(a), 1j * np.sinh(a)], [-1j * np.sinh(a), np.cosh(a)]])
    spectrum = _basis(v / np.linalg.norm(v, axis=0))
    assert 1e6 < spectrum.condition < CONDITION_LIMIT
    psi = np.array([1.0, 0.3j])
    c = spectrum.coefficients(psi)
    assert calls == []
    v = spectrum.right_eigenvectors
    assert np.linalg.norm(v @ c - psi) <= 1e-15 * np.linalg.norm(v, 2) * np.linalg.norm(c)
    reference = lu_coefficients(v, psi)
    assert np.linalg.norm(c - reference) <= 1e-15 * spectrum.condition * np.linalg.norm(reference)


def test_ill_conditioned_chain_keeps_the_transpose_route(monkeypatch):
    # kappa = 2.1e7: the dense route's V^T V is diagonal, and the refined
    # transpose route reconstructs psi better than LU does (7.5e-11 against
    # 8.4e-10 relative; backward error 4e-17), where a test against ||psi||
    # alone sent it to LU
    h = build_chain(
        LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=100, omega=0.02, j_even=0.8 + 0.6j)
    )
    spectrum = eigendecompose(h)
    assert spectrum.solver == "dense"
    assert 1e7 < spectrum.condition < CONDITION_LIMIT
    calls = _counted_lu(monkeypatch)
    v = spectrum.right_eigenvectors
    psi = _start_vectors(h.dim, 1)[:, 0]
    c = spectrum.coefficients(psi)
    assert calls == []
    reference = lu_coefficients(v, psi)
    miss = np.linalg.norm(v @ c - psi)
    assert miss <= np.linalg.norm(v @ reference - psi)
    assert miss <= 1e-9 * np.linalg.norm(psi)


def test_missed_reconstruction_is_refused():
    # V^T V = 1 + S with S symmetric, zero on the diagonal and blind to both
    # Gram probes: the probes find V^T V diagonal, but the refined transpose
    # route misses psi by ~||S||^2 ||psi||, and no second route takes over
    n = 6
    probes = _start_vectors(n, 2)
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    system = np.zeros((2 * n, len(above)), dtype=complex)
    for k, (i, j) in enumerate(above):
        system[i::n, k] = probes[j]
        system[j::n, k] = probes[i]
    entries = scipy.linalg.null_space(system)[:, 0]
    s = np.zeros((n, n), dtype=complex)
    for (i, j), entry in zip(above, entries):
        s[i, j] = s[j, i] = entry
    s *= 0.5 / np.linalg.norm(s, 2)
    spectrum = _basis(scipy.linalg.sqrtm(np.eye(n) + s))  # complex symmetric root
    assert spectrum._gram_diagonal is not None
    with pytest.raises(ValueError, match="backward error"):
        spectrum.coefficients(np.ones(n, dtype=complex))


def test_exceptional_point_falls_back_to_dense_route():
    spectrum = eigendecompose(
        build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=3, omega=0.0))
    )
    assert spectrum.solver == "dense"
    assert spectrum.residuals.max() < RESIDUAL_TOL


def _with_zero_bond(spec: LatticeSpec, bond: int) -> ChainMatrix:
    chain = build_chain(spec)
    off = chain.off.copy()
    off[bond] = 0.0
    return ChainMatrix(chain.diag, off, chain.basis_labels)


@pytest.mark.parametrize("chain", [
    _with_zero_bond(LatticeSpec(LatticeKind.DIMER_1I, 10, 0.2), 4),
    _with_zero_bond(LatticeSpec(LatticeKind.DIMER_JJSTAR, 8, 0.2, j_even=0.5 + 0.5j), 2),
    build_chain(LatticeSpec(LatticeKind.DIMER_JJSTAR, 10, 0.2, j_even=0.0)),
    build_chain(LatticeSpec(LatticeKind.UNIFORM_1D, 10, 0.2, j_even=0.0)),
], ids=["dimer_1i-bond4", "jjstar-bond2", "jjstar-J0", "uniform-J0"])
def test_chain_with_a_zero_bond_takes_the_tridiagonal_route(chain):
    # a chain's route follows from its type: the tridiagonal route certifies
    # a chain cut by a zero bond as it does any other
    spectrum = eigendecompose(chain)
    assert spectrum.solver == "tridiagonal"
    dense = spectra._dense_spectrum(chain.entries)
    np.testing.assert_allclose(spectrum.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12)


def test_zero_chain_rejects_the_tridiagonal_route():
    # every level is 0: inverse iteration meets a zero pivot, and the dense
    # route decomposes the zero matrix
    chain = build_chain(LatticeSpec(LatticeKind.UNIFORM_1D, 10, 0.0, j_even=0.0))
    assert spectra._tridiagonal_spectrum(chain) is None
    assert eigendecompose(chain).solver == "dense"


def test_long_chain_decomposition_stays_below_10_mb(traced_peak):
    # the Schur image is 8 MB at n = 1000, the one n x n array; inverse
    # iteration, the phase convention and the residuals go a block of
    # columns at a time, and the stored columns' row windows take 4.3 MB
    # (the stored columns whole took 8 MB, whole-matrix phases peaked at
    # 32 MB, the dense route at 48 MB)
    h = build_chain(DIMER_1I_1000)
    assert traced_peak(lambda: eigendecompose(h))[1] < 10e6


# the sizes of the long-chain benchmark and of the default runs, and a J/J*
# chain whose blocks each hold one complex pair among real levels
CERTIFIED_CHAINS = {
    "dimer_1i_40": LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=40, omega=0.2),
    "dimer_1i_60": LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.2),
    "dimer_1i_201": LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=201, omega=0.2),
    "dimer_1i_1000": DIMER_1I_1000,
    "jjstar_60": LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=60, omega=0.2,
                             j_even=0.8 + 0.6j),
    "jjstar_1000": JJSTAR_1000,
    "jjstar_i_71": LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=71, omega=0.9,
                               j_even=1j),
}


@pytest.mark.parametrize("spec", CERTIFIED_CHAINS.values(), ids=CERTIFIED_CHAINS.keys())
def test_block_certificate_equals_the_second_pass(spec):
    # each block's residuals are taken while it is alive, its partners'
    # from g[lead] * g * conj(v) formed in place of it; the second pass over
    # 64-column blocks assembled from the windows gave the same bits
    h = build_chain(spec)
    spectrum, reference = eigendecompose(h), reference_tridiagonal_spectrum(h)
    assert spectrum.solver == "tridiagonal"
    assert spectrum.residuals.tobytes() == reference.residuals.tobytes()
    assert spectrum.right_eigenvectors.tobytes() == reference.right_eigenvectors.tobytes()
    assert spectrum.condition == reference.condition


@pytest.mark.parametrize("spec", [DIMER_1I_1000, JJSTAR_1000], ids=["dimer_1i", "jjstar"])
def test_chain_decomposition_forms_no_column_twice(spec, monkeypatch):
    # the route certifies every column, partners included, from the block
    # inverse iteration wrote: no pass forms a column of V from the windows
    def refuse(*_):
        raise AssertionError("a column of V formed again from the windows")

    monkeypatch.setattr(ComplexSpectrum, "per_column", refuse)
    monkeypatch.setattr(ComplexSpectrum, "eigenvectors", refuse)
    spectrum = eigendecompose(build_chain(spec))
    assert spectrum.solver == "tridiagonal"
    assert spectrum.residuals.max() < RESIDUAL_TOL


@pytest.mark.parametrize("spec", [DIMER_1I_1000, JJSTAR_1000], ids=["dimer_1i", "jjstar"])
def test_window_products_equal_the_whole_height_products(spec):
    # V @ X with each window's operand rows formed for it, given as an array
    # or as rows(levels), and V^T @ Y into one array: bit for bit the
    # products from whole-height operands
    spectrum = eigendecompose(build_chain(spec))
    rng = np.random.default_rng(5)
    for shape in ((1000,), (1000, 7)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = reference_vectors_times(spectrum, x)
        assert spectrum.vectors_times(x).tobytes() == expected.tobytes()
        assert spectrum.vectors_times(lambda levels: x[levels]).tobytes() == expected.tobytes()
        assert (spectrum.transpose_times(x).tobytes()
                == reference_transpose_times(spectrum, x).tobytes())


def test_transpose_times_writes_each_window_into_one_array(dimer1000, traced_peak):
    # g * y conjugated in place and each window's S^T y written into one
    # array: the concatenated window products and a second n x T temporary
    # peaked at 3.12 MB for this n x 65 y
    y = np.random.default_rng(6).normal(size=(1000, 65)) + 0j
    product, peak = traced_peak(lambda: dimer1000.transpose_times(y))
    assert product.tobytes() == reference_transpose_times(dimer1000, y).tobytes()
    assert peak <= 2.8e6


def test_long_chain_statistics_form_no_square_temporary(dimer1000, traced_peak):
    # one n x 64 block at a time: whole-matrix formulas took 8 MB for the
    # centers of select_reference_state and 16 MB for participation ratios
    v = dimer1000.right_eigenvectors
    assert traced_peak(lambda: select_reference_state(dimer1000))[1] < 2e6
    assert traced_peak(lambda: participation_ratio(v))[1] < 2e6


def test_slope_scan_holds_one_eigenvector_matrix(traced_peak):
    # the reference state copies its column: a view of V kept one slope's
    # 16 MB V alive through the next decomposition, a peak of 34.4 MB
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=0.2)
    assert traced_peak(lambda: scan_E0_vs_omega(spec, [0.18, 0.2, 0.22]))[1] < 24e6


PAIR_KINDS = [LatticeKind.PAIR_2D_ELECTRON, LatticeKind.PAIR_2D_FERMION, LatticeKind.PAIR_2D_BOSON]


@pytest.mark.parametrize("side", [4, 5, 6, 7, 8, 9, 10, 11, 12, 24])
def test_pair_lattice_bases_are_c_orthogonal(side):
    # the Kronecker-sum lattices are exactly degenerate, e_i + e_j = e_k + e_l:
    # the product basis v_i x v_j is c-orthogonal inside every degeneracy, so
    # V^T V is diagonal, and kappa_2 stays near that of eig's basis (L = 24
    # guards against a basis that inflates it)
    for kind in PAIR_KINDS:
        h = build_pair_lattice(LatticeSpec(kind=kind, n_sites=side, omega=0.2))
        spectrum = eigendecompose(h)
        assert spectrum.solver == "kronecker"
        assert spectrum.residuals.max() < RESIDUAL_TOL
        assert spectrum._gram_diagonal is not None
        v = spectrum.right_eigenvectors
        gram = v.T @ v
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= GRAM_TOL
        _, vectors = scipy.linalg.eig(h.entries)
        kappa = dense_condition(vectors / np.linalg.norm(vectors, axis=0))
        assert spectrum.condition <= 1.5 * kappa


def _pair_lattices(side: int, omega: float, offset) -> list:
    """Every pair kind, each checked against the dense matrices that are
    the same lattice: the second-quantized oracle of its kind, and the
    electron lattice's swap sector of the boson and fermion kinds."""
    lattices = [
        build_pair_lattice(LatticeSpec(kind=kind, n_sites=side, omega=omega, origin_offset=offset))
        for kind in PAIR_KINDS
    ]
    oracles = [oracle_pair_hamiltonian(kind, side, omega, offset) for kind in PAIR_KINDS]
    h_sym, h_anti = sector_decompose(lattices[0])
    for h, same in [*zip(lattices, oracles), (lattices[2], h_sym), (lattices[1], h_anti)]:
        entries = h.entries
        assert np.abs(same.entries - entries).max() <= 1e-15 * max(1.0, np.abs(entries).max())
    return lattices


@pytest.mark.parametrize("side", [4, 5, 6, 7, 8, 9, 10, 11, 12, 24])
@pytest.mark.parametrize("omega, offset", [(0.0, None), (0.2, None), (1.2, None), (0.2, 1)])
def test_pair_lattices_take_the_kronecker_route(side, omega, offset):
    chain = eigendecompose(
        build_chain(LatticeSpec(LatticeKind.DIMER_1I, side, omega, origin_offset=offset))
    )
    for h in _pair_lattices(side, omega, offset):
        spectrum = eigendecompose(h)
        assert spectrum.solver == "kronecker"
        assert spectrum.residuals.max() < RESIDUAL_TOL
        if chain.condition == np.inf:
            # omega = 0, side 7 and 11: the chain is an exceptional point, and
            # so is its Kronecker sum; eigenvalues there are good only to
            # about eps^(1/2), on either route
            assert spectrum.condition == np.inf
            continue
        values = scipy.linalg.eigvals(h.entries)
        scale = max(1.0, float(np.abs(values).max()))
        assert reference_multiset_distance(spectrum.eigenvalues, values) <= 1e-10 * scale
        v = spectrum.right_eigenvectors
        gram = v.T @ v
        assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-14
        assert spectrum.condition < CONDITION_LIMIT


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_kronecker_sum_of_any_chain_takes_the_kronecker_route(kind):
    # the route takes H1 from the pair lattice: the Kronecker sum of a J/J*
    # chain is decomposed from that chain, not from a 1/i dimer fitted to
    # its diagonal (which sent it to eig, condition inf)
    h1 = build_chain(LatticeSpec(LatticeKind.DIMER_JJSTAR, 12, 0.2, j_even=0.8 + 0.6j))
    h = PairMatrix(h1, pair_basis(kind, 12))
    entries, labels = reference_kronecker_sum(h1.entries, kind)
    assert h.basis_labels == labels
    assert h.entries.tobytes() == entries.tobytes()
    spectrum = eigendecompose(h)
    assert spectrum.solver == "kronecker"
    assert np.isfinite(spectrum.condition)
    values = scipy.linalg.eigvals(h.entries)
    cost = np.abs(spectrum.eigenvalues[:, None] - values)
    rows, cols = linear_sum_assignment(cost)
    scale = np.maximum(1.0, np.abs(spectrum.eigenvalues[rows]))
    assert np.all(cost[rows, cols] <= 1e-13 * scale)


@pytest.mark.parametrize("kind", PAIR_KINDS)
@pytest.mark.parametrize("side", [6, 30, 40])
def test_pair_levels_are_the_sums_of_the_chain_levels(kind, side):
    # bit for bit the levels e_i + e_j of the chain that evolve2d evolves on,
    # in level order; a chain whose site energies were rebuilt from pair
    # sums moved fermion levels by up to 1.8e-14 at L = 40
    spec = LatticeSpec(kind, side, 0.2)
    e = eigendecompose(build_chain(spec.chain)).eigenvalues
    x, y = pair_basis(kind, side).layout[:2]
    sums = e[x] + e[y]
    sums = sums[reference_level_order(sums)]
    assert eigendecompose(build_pair_lattice(spec)).eigenvalues.tobytes() == sums.tobytes()


def test_criterion_9_lattice_expands_in_the_chain_product_basis():
    # the 1600-level electron lattice: kappa_2 of V x V is kappa_2(V)^2, the
    # number evolve2d reports, and evolve, evolve2d's engine, stays spectral
    spec = LatticeSpec(LatticeKind.PAIR_2D_ELECTRON, 40, 0.2)
    h = build_pair_lattice(spec)
    spectrum = eigendecompose(h)
    chain = eigendecompose(build_chain(LatticeSpec(LatticeKind.DIMER_1I, 40, 0.2)))
    assert spectrum.solver == "kronecker"
    assert spectrum.condition == pytest.approx(chain.condition**2, rel=0.01)
    psi0 = _start_vectors(h.dim, 1)[:, 0]
    assert evolve(h, psi0, [0.0, 1.0]).method == "spectral"


def test_perturbed_pair_lattice_falls_back_to_the_dense_route():
    # the bond (1, 1)-(1, 2) moved by 1e-6: no chain's Kronecker sum has it,
    # so it is a dense matrix on the pair labels, and the dense route
    # certifies it; the route follows from the type, not the labels
    h = build_pair_lattice(LatticeSpec(LatticeKind.PAIR_2D_ELECTRON, 6, 0.2))
    entries = h.entries.copy()
    entries[7, 8] += 1e-6
    entries[8, 7] += 1e-6
    spectrum = eigendecompose(OperatorMatrix(entries, h.basis_labels))
    assert spectrum.solver == "dense"
    assert spectrum.residuals.max() < RESIDUAL_TOL


def test_degenerate_matrix_off_both_routes_takes_the_integrator():
    # two copies of a chain, mixed by a real orthogonal Q (Q^T H Q stays
    # complex symmetric), on plain labels: every level is double, and eig's
    # basis of each pair is not c-orthogonal
    chain = build_chain(LatticeSpec(LatticeKind.DIMER_1I, 8, 0.2)).entries
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(16, 16)))
    entries = q.T @ np.kron(np.eye(2), chain) @ q
    entries = (entries + entries.T) / 2  # symmetric to the last bit
    h = OperatorMatrix(entries, tuple(range(16)))
    spectrum = eigendecompose(h)
    assert spectrum.solver == "dense"
    assert spectrum.condition == np.inf
    psi0 = _start_vectors(16, 1)[:, 0]
    series = evolve(h, psi0, [0.0, 1.0, 3.0], spectrum=spectrum)
    assert series.method.startswith("integrator")
    for t, state in zip(series.times, series.states):
        exact = scipy.linalg.expm(-1j * t * entries) @ psi0
        np.testing.assert_allclose(state, exact, rtol=0, atol=1e-8 * np.linalg.norm(exact))


def test_level_order_ties_real_parts_within_1e_9():
    # max|E| = 5, so real parts within 5e-9 are tied and go by imaginary part
    values = np.array([
        1.0 + 2.0j, 1.0 - 1.0j,  # equal real parts, imaginary part descending
        -2.0 - 0.5j, -2.0 + 0.5j,  # equal real parts, imaginary part ascending
        3.0 + 1.0j, 3.0 + 4e-9 - 1.0j,  # a step just below the tie: tied
        4.0 + 1.0j, 4.0 + 6e-9 - 1.0j,  # a step just above it: not tied
        -5.0 + 0.0j,
    ])
    expected = [8, 2, 3, 1, 0, 5, 4, 6, 7]
    np.testing.assert_array_equal(spectra._level_order(values), expected)
    np.testing.assert_array_equal(reference_level_order(values), expected)


def test_level_order_ignores_rounding_of_tied_real_parts():
    # the conjugate pairs of dimer_1i have equal real parts in exact
    # arithmetic; numpy's and SciPy's LAPACK builds move them by ~1e-13
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=200, omega=0.2))
    np.testing.assert_array_equal(
        reference_level_order(eigendecompose(h).eigenvalues), np.arange(200)
    )
    values = scipy.linalg.eigvals(h.entries)
    values = values[reference_level_order(values)]
    rng = np.random.default_rng(13)
    moved = values + 1e-13 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    # sorting by the raw real part reorders them; the tie rule does not
    assert not np.array_equal(np.lexsort((moved.imag, moved.real)), np.arange(200))
    np.testing.assert_array_equal(spectra._level_order(moved), np.arange(200))
