import collections

import numpy as np
import pytest
import scipy.linalg

from starkladder.dynamics import (
    TimeSeries,
    build_pair_product_state,
    dirac_probability,
    evolve,
    extract_projected_mu,
    family_projection,
    fidelity,
    gaussian_state,
    projection_time,
    site_state,
)
from starkladder.lattices import (
    ChainMatrix,
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    build_chain,
    build_pair_lattice,
    interior_slice,
)
from starkladder.pairmap import pair_basis
from starkladder.spectra import (
    detect_ladders,
    eigendecompose,
    select_reference_state,
)

from sector_reference import reference_projector
from spectral_reference import reference_vectors_times

OMEGA = 0.2
PERIOD = np.pi / OMEGA


@pytest.fixture(scope="module")
def dimer_reference(dimer60):
    _, h, spectrum = dimer60
    return h, spectrum, select_reference_state(spectrum, im_sign="+")


@pytest.fixture(scope="module")
def projected_series(dimer60):
    """Gaussian restricted to the growing ladder family, over two periods."""
    _, h, spectrum = dimer60
    report = detect_ladders(spectrum, expected_spacing=2 * OMEGA, tol=1e-6)
    fam = next(f for f in report.families if f.reference_energy.imag > 0)
    psi0 = family_projection(spectrum, fam.member_indices, gaussian_state(0.3, 30, 60))
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 2 * PERIOD, 65)
    return evolve(h, psi0, times, spectrum=spectrum)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_two_site_rabi_flip():
    h = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex), (0, 1))
    series = evolve(h, np.array([1.0, 0.0]), [0.0, np.pi / 2])
    np.testing.assert_allclose(series.states[1], [0.0, -1j], atol=1e-12)


def test_diagonal_hamiltonian_rotates_phases_only():
    diag = 0.3 * np.arange(5)
    h = OperatorMatrix(np.diag(diag).astype(complex), tuple(range(5)))
    series = evolve(h, site_state(2, 5), [0.0, 1.7, 4.1])
    np.testing.assert_allclose(
        np.abs(series.states), np.broadcast_to(np.abs(series.states[0]), (3, 5)),
        atol=1e-12,
    )


def test_evolve_matches_matrix_exponential(dimer60):
    # independent oracle: dense expm propagation
    _, h, spectrum = dimer60
    psi0 = gaussian_state(0.3, 30, 60)
    t = 7.3
    series = evolve(h, psi0, [0.0, t], spectrum=spectrum)
    oracle = scipy.linalg.expm(-1j * h.entries * t) @ psi0
    assert np.linalg.norm(series.states[1] - oracle) / np.linalg.norm(oracle) < 1e-10


def test_norm_grows_at_reference_rate(dimer_reference):
    h, spectrum, ref = dimer_reference
    psi0 = gaussian_state(0.3, 30, 60)
    series = evolve(h, psi0, [0.0, PERIOD, 2 * PERIOD], spectrum=spectrum)
    growth = np.linalg.norm(series.states[2]) / np.linalg.norm(series.states[1])
    assert growth == pytest.approx(np.exp(ref.energy.imag * PERIOD), rel=1e-6)


def test_propagator_consistency(dimer60):
    _, h, spectrum = dimer60
    psi0 = gaussian_state(0.3, 30, 60)
    t1, t2 = 3.7, 9.2
    direct = evolve(h, psi0, [0.0, t2], spectrum=spectrum).states[1]
    first = evolve(h, psi0, [0.0, t1], spectrum=spectrum).states[1]
    chained = evolve(h, first, [0.0, t2 - t1], spectrum=spectrum).states[1]
    assert np.linalg.norm(direct - chained) / np.linalg.norm(direct) < 1e-8


# complex symmetric and nilpotent (H^2 = 0): an exceptional point, whose one
# eigenvector (1, i) is self-orthogonal
DEFECTIVE = OperatorMatrix(np.array([[1, 1j], [1j, -1]]), (0, 1))


def test_integrator_fallback_on_defective_matrix():
    series = evolve(DEFECTIVE, np.array([0.0, 1.0]), [0.0, 0.5, 1.0])
    assert series.method.startswith("integrator")
    # exact: exp(-iHt) = I - iHt for a nilpotent H
    np.testing.assert_allclose(series.states[2], [1.0, 1.0 + 1j], atol=1e-8)


def test_defective_basis_refuses_expansion():
    spectrum = eigendecompose(DEFECTIVE)
    assert spectrum.condition == np.inf
    with pytest.raises(ValueError, match="condition number"):
        family_projection(spectrum, [0], np.array([0.0, 1.0]))


@pytest.mark.parametrize(
    "other, match",
    [
        (LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=40, omega=OMEGA), "dimension 40"),
        (LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.3), "another matrix"),
    ],
    ids=["size", "slope"],
)
def test_spectrum_of_another_matrix_is_refused(dimer60, other, match):
    # a spectrum of another chain is never expanded in silently: a size
    # mismatch, or eigenpairs this matrix misses on a seeded probe
    _, h, _ = dimer60
    foreign = eigendecompose(build_chain(other))
    with pytest.raises(ValueError, match=match):
        evolve(h, gaussian_state(0.3, 30, 60), [0.0, 1.0], spectrum=foreign)


@pytest.mark.parametrize("change", [0.5, 1e-3])
def test_spectrum_of_a_chain_with_one_other_bond_is_refused(dimer60, change):
    # level 0 sits at one end of the tilted chain, which a middle bond does
    # not reach; the probe weighs every level, so one changed bond is refused
    _, h, spectrum = dimer60
    off = h.off.copy()
    off[30] += change
    foreign = eigendecompose(ChainMatrix(h.diag, off, h.basis_labels))
    psi0 = gaussian_state(0.3, 30, 60)
    with pytest.raises(ValueError, match="another matrix"):
        evolve(h, psi0, [0.0, 1.0], spectrum=foreign)
    evolve(h, psi0, [0.0, 1.0], spectrum=spectrum)


def _count_kernels(monkeypatch) -> collections.Counter:
    """Count the dense kernels the spectral basis could call."""
    calls = collections.Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(scipy.linalg, "eig")
    counted(scipy.linalg, "lu_factor")
    counted(np.linalg, "cond")
    counted(np.linalg, "eigvals")
    return calls


def _expand_three_times(h, spectrum):
    psi0 = gaussian_state(0.3, h.dim // 2, h.dim)
    evolve(h, psi0, [0.0, 1.0], spectrum=spectrum)
    evolve(h, psi0, [0.0, 2.0], spectrum=spectrum)
    family_projection(spectrum, [0, 1], psi0)


def test_chain_basis_needs_no_dense_kernel(monkeypatch):
    calls = _count_kernels(monkeypatch)
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=OMEGA))
    spectrum = eigendecompose(h)
    _expand_three_times(h, spectrum)
    assert spectrum.solver == "tridiagonal"
    assert calls == {}  # no eig, no eigvals, no cond, no lu_factor


def test_non_symmetric_matrix_is_refused(monkeypatch):
    # V^T V is full for a matrix that is not complex symmetric: no transpose
    # inverse exists, so no eigensolver runs
    calls = _count_kernels(monkeypatch)
    rng = np.random.default_rng(3)
    entries = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    with pytest.raises(ValueError, match="not complex symmetric"):
        eigendecompose(OperatorMatrix(entries, tuple(range(8))))
    assert calls == {}


def test_times_and_state_validation(dimer60):
    _, h, _ = dimer60
    psi0 = gaussian_state(0.3, 30, 60)
    with pytest.raises(ValueError):
        evolve(h, psi0, [1.0, 2.0])
    with pytest.raises(ValueError):
        evolve(h, psi0, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        evolve(h, psi0[:10], [0.0, 1.0])
    bad = psi0.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        evolve(h, bad, [0.0, 1.0])


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------


def test_gaussian_state_profile():
    psi = gaussian_state(0.3, 10, 21)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.argmax(np.abs(psi)) == 10
    ratio = psi[11] / psi[10]
    assert ratio == pytest.approx(np.exp(-0.09), rel=1e-12)


def test_site_state_is_delta():
    psi = site_state(3, 6)
    np.testing.assert_array_equal(psi, np.eye(6, dtype=complex)[3])


def test_wide_gaussian_approaches_site_state():
    psi = gaussian_state(4.0, 8, 17)
    overlap = np.abs(np.vdot(site_state(8, 17), psi))
    assert overlap > 1 - 1e-10


def test_initial_state_validation():
    with pytest.raises(ValueError):
        gaussian_state(-0.1, 5, 10)
    with pytest.raises(ValueError):
        gaussian_state(0.3, 10, 10)
    with pytest.raises(ValueError):
        site_state(-1, 10)


# ---------------------------------------------------------------------------
# rescaled probability
# ---------------------------------------------------------------------------


def test_matched_rate_gives_periodic_probability(projected_series, dimer_reference):
    _, _, ref = dimer_reference
    probs = dirac_probability(projected_series, ref.energy.imag)
    times = projected_series.times
    win = interior_slice(60)
    worst = 0.0
    for k, t in enumerate(times):
        kk = int(np.argmin(np.abs(times - (t + PERIOD))))
        if abs(times[kk] - (t + PERIOD)) < 1e-9:
            worst = max(worst, np.abs(probs[kk, win] - probs[k, win]).max())
    assert worst < 1e-3


def test_overdamped_rate_decays_per_period(projected_series):
    probs = dirac_probability(projected_series, 0.787)
    times = projected_series.times
    peaks = [
        probs[int(np.argmin(np.abs(times - k * PERIOD)))].max() for k in range(3)
    ]
    assert peaks[0] > peaks[1] > peaks[2]


def test_hermitian_probability_is_conserved(uniform80):
    _, h, spectrum = uniform80
    times = np.linspace(0.0, 2 * 2 * np.pi / 0.5, 41)
    series = evolve(h, gaussian_state(0.3, 40, 80), times, spectrum=spectrum)
    probs = dirac_probability(series, 0.0)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-10


def test_uniform_chain_blochs_with_standard_period(uniform80):
    _, h, spectrum = uniform80
    t_bloch = 2 * np.pi / 0.5
    series = evolve(h, gaussian_state(0.3, 40, 80), [0.0, t_bloch], spectrum=spectrum)
    probs = dirac_probability(series, 0.0)
    assert np.abs(probs[1] - probs[0]).max() < 1e-10


# ---------------------------------------------------------------------------
# projected profile extraction
# ---------------------------------------------------------------------------


def test_extracted_profile_lives_in_growing_sector(dimer_reference):
    h, spectrum, ref = dimer_reference
    t_late = projection_time(ref.energy, OMEGA)
    series = evolve(h, gaussian_state(0.3, 30, 60), [0.0, t_late], spectrum=spectrum)
    mu = extract_projected_mu(series, ref.energy, t_late)
    assert np.linalg.norm(mu) == pytest.approx(1.0)
    minus = np.flatnonzero(spectrum.eigenvalues.imag < -1e-9)
    leak = np.linalg.norm(family_projection(spectrum, minus, mu))
    assert leak < 1e-4


def test_extraction_from_site_state(dimer_reference):
    h, spectrum, ref = dimer_reference
    t_late = 3 * PERIOD
    series = evolve(h, site_state(30, 60), [0.0, t_late], spectrum=spectrum)
    mu = extract_projected_mu(series, ref.energy, t_late)
    assert np.count_nonzero(np.abs(mu) > 1e-3) > 5  # spread, not a delta


def test_extraction_requires_growth(uniform80):
    _, h, spectrum = uniform80
    ref = select_reference_state(spectrum)
    series = evolve(h, gaussian_state(0.3, 40, 80), [0.0, 50.0], spectrum=spectrum)
    with pytest.raises(ValueError, match="Hermitian"):
        extract_projected_mu(series, ref.energy, 50.0)


def test_extraction_rejects_short_times(dimer_reference):
    h, spectrum, ref = dimer_reference
    series = evolve(h, gaussian_state(0.3, 30, 60), [0.0, 0.5], spectrum=spectrum)
    with pytest.raises(ValueError, match="evolve longer"):
        extract_projected_mu(series, ref.energy, 0.5)


# ---------------------------------------------------------------------------
# pair product states
# ---------------------------------------------------------------------------


def test_delta_profile_occupies_single_pair_label():
    basis = pair_basis(LatticeKind.PAIR_2D_ELECTRON, 6)
    mu = site_state(2, 6)
    phi = build_pair_product_state(mu, basis)
    idx = {lab: i for i, lab in enumerate(basis.labels)}
    assert np.abs(phi[idx[(2, 2)]]) == pytest.approx(1.0)
    assert np.abs(np.delete(phi, idx[(2, 2)])).max() == 0.0


def test_fermion_antisymmetrization_rule():
    side = 6
    basis = pair_basis(LatticeKind.PAIR_2D_FERMION, side)
    rng = np.random.default_rng(3)
    mu = rng.normal(size=side)
    mu = mu / np.linalg.norm(mu)  # real profile
    phi = build_pair_product_state(mu.astype(complex), basis)
    sign = lambda j: (-1.0) ** (j // 2)  # noqa: E731
    raw = np.array(
        [sign(y) * mu[x] * mu[y] - sign(x) * mu[y] * mu[x] for x, y in basis.labels]
    )
    raw = raw / np.linalg.norm(raw)
    phase = phi[np.argmax(np.abs(raw))] / raw[np.argmax(np.abs(raw))]
    np.testing.assert_allclose(phi, raw * phase, atol=1e-12)


def test_fermion_single_site_profile_vanishes():
    basis = pair_basis(LatticeKind.PAIR_2D_FERMION, 6)
    with pytest.raises(ValueError, match="zero norm"):
        build_pair_product_state(site_state(2, 6), basis)


def test_boson_state_matches_symmetric_projection():
    side = 6
    rng = np.random.default_rng(5)
    mu = rng.normal(size=side) + 1j * rng.normal(size=side)
    mu /= np.linalg.norm(mu)
    electron = build_pair_product_state(mu, pair_basis(LatticeKind.PAIR_2D_ELECTRON, side))
    boson_basis = pair_basis(LatticeKind.PAIR_2D_BOSON, side)
    boson = build_pair_product_state(mu, boson_basis)
    projected = reference_projector(boson_basis) @ electron
    projected /= np.linalg.norm(projected)
    np.testing.assert_allclose(boson, projected, atol=1e-12)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_starts_at_one_and_stays_bounded(dimer60):
    _, h, spectrum = dimer60
    psi0 = gaussian_state(0.3, 30, 60)
    series = evolve(h, psi0, np.linspace(0.0, 3 * PERIOD, 61), spectrum=spectrum)
    f = fidelity(series)
    assert f[0] == pytest.approx(1.0)
    assert np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-12)


def test_fidelity_does_not_depend_on_memory_layout():
    # same values in C and in column-major order: the curves must be equal
    # bit for bit, or table bytes would hinge on how an engine laid out states
    rng = np.random.default_rng(3)
    states = rng.normal(size=(76, 820)) + 1j * rng.normal(size=(76, 820))
    labels = tuple(range(820))
    c_order = TimeSeries(np.arange(76.0), np.ascontiguousarray(states), labels)
    f_order = TimeSeries(np.arange(76.0), np.asfortranarray(states), labels)
    assert np.array_equal(fidelity(c_order), fidelity(f_order))


def test_fidelity_norms_eight_rows_at_a_time(traced_peak):
    # the whole-table norm formed two (times x dim) complex temporaries, 1.9 MB
    # each at this size, the L = 40 electron evolve2d's; each row still
    # reduces over its own contiguous axis, so the curve is the same bit for bit
    rng = np.random.default_rng(4)
    states = rng.normal(size=(76, 1600)) + 1j * rng.normal(size=(76, 1600))
    series = TimeSeries(np.arange(76.0), states, tuple(range(1600)))
    whole = np.abs(states @ np.conj(states[0])) ** 2 / (
        np.linalg.norm(states, axis=1) ** 2 * np.linalg.norm(states[0]) ** 2
    )
    curve, peak = traced_peak(lambda: fidelity(series))
    assert np.array_equal(curve, whole)
    assert peak < 1e6


def test_chain_synthesis_forms_no_temporary_wider_than_the_product(dimer1000, traced_peak):
    # V @ X as S @ A + g * conj(S @ B), a window at a time: the n x T
    # product, one window's product (up to 630 rows here) and the phase rows
    # of its own columns, with no n x T phase matrix, no gathered copy of S
    # (4.3 MB in its row windows) nor an assembled V (16 MB).  The product is
    # 0.32 MB at n = 1000, T = 20, and the peak 1.75 times that (3.77 with
    # the phase matrix and two windows' products alive at once)
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=OMEGA))
    psi0 = gaussian_state(0.3, 500, 1000)
    times = np.linspace(0.0, PERIOD, 20)
    dimer1000.coefficients(psi0)  # the condition number and D, cached
    series, peak = traced_peak(lambda: evolve(h, psi0, times, spectrum=dimer1000))
    assert series.method == "spectral"
    assert peak < 2 * 1000 * times.size * 16


@pytest.mark.parametrize("kind", ["dimer_1i", "jjstar"])
def test_chain_synthesis_by_windows_equals_the_phase_matrix(kind, dimer1000):
    # each window forms the phase rows exp(-i E t) c of its own columns: the
    # states are those of the whole n x T phase matrix, bit for bit
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=OMEGA)
    if kind == "jjstar":
        spec = LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=1000, omega=OMEGA,
                           j_even=0.5 + 0.5j)
    h = build_chain(spec)
    spectrum = dimer1000 if kind == "dimer_1i" else eigendecompose(h)
    psi0 = gaussian_state(0.3, 500, 1000)
    times = np.linspace(0.0, PERIOD, 65)
    phases = np.exp(-1j * np.outer(spectrum.eigenvalues, times))
    phases *= spectrum.coefficients(psi0)[:, None]
    expected = reference_vectors_times(spectrum, phases).T
    expected[0] = psi0
    assert evolve(h, psi0, times, spectrum=spectrum).states.tobytes() == expected.tobytes()


def test_dirac_probability_squares_and_damps_in_place(traced_peak):
    # one (times x dim) real array: |phi|^2 then the damping, in place; the
    # values are those of exp(-2 lam t) |phi|^2 formed from new arrays, which
    # peaked at 2.1 times the table
    rng = np.random.default_rng(8)
    states = rng.normal(size=(65, 1000)) + 1j * rng.normal(size=(65, 1000))
    series = TimeSeries(np.linspace(0.0, PERIOD, 65), states, tuple(range(1000)))
    probs, peak = traced_peak(lambda: dirac_probability(series, 0.3))
    expected = np.exp(-2.0 * 0.3 * series.times)[:, None] * np.abs(states) ** 2
    assert probs.tobytes() == expected.tobytes()
    assert peak < 1.2 * probs.nbytes


def test_random_pair_state_has_no_revival():
    # mixed growing/decaying sectors: no full return within three periods
    side = 16
    h = build_pair_lattice(
        LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=side, omega=OMEGA)
    )
    rng = np.random.default_rng(11)
    psi = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    psi /= np.linalg.norm(psi)
    times = np.linspace(0.0, 3 * PERIOD, 181)
    f = fidelity(evolve(h, psi, times))
    assert f[times > 1e-9].max() < 0.9


# ---------------------------------------------------------------------------
# pair ladder reality
# ---------------------------------------------------------------------------


def test_matched_pair_energies_are_real_with_4omega_spacing(dimer60):
    _, _, spectrum = dimer60
    report = detect_ladders(spectrum, expected_spacing=2 * OMEGA, tol=1e-6)
    plus = next(f for f in report.families if f.reference_energy.imag > 0)
    minus = next(f for f in report.families if f.reference_energy.imag < 0)
    pair = (
        spectrum.eigenvalues[list(plus.member_indices)]
        + spectrum.eigenvalues[list(minus.member_indices)]
    )
    assert np.abs(pair.imag).max() < 1e-8
    np.testing.assert_allclose(np.diff(pair.real), 4 * OMEGA, atol=1e-6)
