"""The tridiagonal eigensolver route against the dense reference.

Chains take one ``zgees`` without Schur vectors plus inverse iteration,
the transpose inverse ``V^-1 = D^-1 V^T`` and a power-iteration estimate
of kappa_2; the reference (``tests/spectral_reference.py``) takes ``eig``,
LU and an SVD.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starkladder.spectra as spectra
from starkladder.lattices import LatticeKind, LatticeSpec, build_chain
from starkladder.spectra import (
    CONDITION_LIMIT,
    ComplexSpectrum,
    RESIDUAL_TOL,
    _start_vectors,
    eigendecompose,
    spectrum_multiset_distance,
)

from spectral_reference import dense_condition, dense_eigenpairs, lu_coefficients

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
@example(LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=200, omega=0.05, j_even=0.8 + 0.6j))
def test_chain_spectrum_matches_dense_reference(spec):
    h = build_chain(spec)
    values, vectors, residuals = dense_eigenpairs(h.entries)
    if residuals.max() >= RESIDUAL_TOL:  # the dense route does not certify it either
        return
    spectrum = eigendecompose(h)  # certified wherever the dense route is
    scale = max(1.0, float(np.abs(values).max()))
    assert spectrum_multiset_distance(spectrum.eigenvalues, values) <= 1e-10 * scale

    kappa = dense_condition(vectors)
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


def _spied_zgees(monkeypatch, info=None) -> list:
    """Record the keyword arguments of each ``zgees`` call; overwrite the
    returned ``info`` unless it is None."""
    calls = []
    original = spectra.zgees

    def spy(select, a, **kwargs):
        calls.append(kwargs)
        result = original(select, a, **kwargs)
        return result if info is None else (*result[:-1], info)

    monkeypatch.setattr(spectra, "zgees", spy)
    return calls


def test_failed_schur_iteration_takes_the_dense_route(monkeypatch):
    # info = 1: the QR iteration did not converge, whatever the values read
    calls = _spied_zgees(monkeypatch, info=1)
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.2))
    spectrum = eigendecompose(h)
    assert len(calls) == 1
    assert spectrum.solver == "dense"
    np.testing.assert_array_equal(spectrum.eigenvalues, dense_eigenpairs(h.entries)[0])


def test_schur_workspace_keeps_the_hessenberg_reduction_unblocked(monkeypatch):
    # from about 8n of workspace on, zgehrd reduces blocked in O(n^3), and
    # the n = 1000 chain's eigenvalues take 2.3 times as long
    calls = _spied_zgees(monkeypatch)
    eigendecompose(build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.2)))
    assert calls == [{"compute_v": 0, "lwork": 180}]


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
    np.testing.assert_array_equal(spectrum.eigenvalues, values)
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
    return ComplexSpectrum(np.arange(n, dtype=complex), vectors, np.zeros(n))


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


def test_missed_reconstruction_falls_back_to_lu(monkeypatch):
    # V^T V = 1 + S with S symmetric, zero on the diagonal and blind to both
    # Gram probes: the probes find V^T V diagonal, but the refined transpose
    # route misses psi by ~||S||^2 ||psi||, so the LU solve takes over
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
    calls = _counted_lu(monkeypatch)
    psi = np.ones(n, dtype=complex)
    c = spectrum.coefficients(psi)
    assert len(calls) == 1
    np.testing.assert_array_equal(c, lu_coefficients(spectrum.right_eigenvectors, psi))


def test_exceptional_point_falls_back_to_dense_route():
    spectrum = eigendecompose(
        build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=3, omega=0.0))
    )
    assert spectrum.solver == "dense"
    assert spectrum.residuals.max() < RESIDUAL_TOL


def test_long_chain_decomposition_stays_below_40_mb():
    # the dense route peaks at 48 MB here: eig's workspace plus n x n residuals
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=0.2))
    tracemalloc.start()
    try:
        eigendecompose(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
