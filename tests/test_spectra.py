import numpy as np
import pytest

import starkladder.spectra as spectra

from starkladder.lattices import (
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    apply_symmetry,
    build_chain,
    compose,
    time_reversal_op,
    translation_op,
    gauge_op,
)
from starkladder.spectra import (
    EigendecompositionError,
    ReferenceSelectionError,
    conjugation_closure_deviation,
    detect_ladders,
    eigendecompose,
    leading_amplitude_index,
    localization_center,
    matrix_residuals,
    participation_ratio,
    scan_E0_vs_omega,
    select_reference_state,
    spectrum_multiset_distance,
    verify_ladder_operator,
)

from ladder_reference import synthetic_spectrum
from spectral_reference import (
    reference_fix_phases,
    reference_localization_center,
    reference_participation_ratio,
)


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------


def test_two_site_real_bond():
    h = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex), (0, 1))
    spectrum = eigendecompose(h)
    np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_two_site_imaginary_bond():
    h = OperatorMatrix(np.array([[0, 1j], [1j, 0]], dtype=complex), (0, 1))
    spectrum = eigendecompose(h)
    # real parts are degenerate up to noise; compare as a multiset
    assert spectrum_multiset_distance(spectrum.eigenvalues, np.array([1j, -1j])) < 1e-14


def test_residuals_certified_and_sorted(dimer60):
    _, _, spectrum = dimer60
    assert spectrum.residuals.max() < 1e-9
    re = spectrum.eigenvalues.real
    assert np.all(np.diff(re) > -1e-12)


def test_decomposition_is_deterministic(dimer60):
    _, h, spectrum = dimer60
    again = eigendecompose(h)
    np.testing.assert_array_equal(spectrum.eigenvalues, again.eigenvalues)
    np.testing.assert_array_equal(spectrum.right_eigenvectors, again.right_eigenvectors)


def test_phase_convention_leading_amplitude_real(dimer60):
    _, _, spectrum = dimer60
    lead = leading_amplitude_index(spectrum.right_eigenvectors)
    vals = spectrum.right_eigenvectors[lead, np.arange(spectrum.dim)]
    assert np.all(np.abs(vals.imag) < 1e-12) and np.all(vals.real > 0)


def test_leading_amplitude_ties_go_to_first_index():
    # magnitudes equal up to rounding: the first index wins, not the rounding
    vectors = np.array([[0.6, 0.1], [0.6 * (1 + 1e-13), 0.2], [0.1, 0.2 * (1 - 2e-9)]])
    np.testing.assert_array_equal(leading_amplitude_index(vectors), [0, 1])


def test_reference_energy_growth_rate(dimer60):
    # the growth rate of the reported reference rung at slope 0.2
    _, _, spectrum = dimer60
    ref = select_reference_state(spectrum, im_sign="+")
    assert ref.energy.imag == pytest.approx(0.764, abs=0.01)


def test_eigendecompose_rejects_tiny_matrix():
    h = OperatorMatrix(np.array([[1.0]], dtype=complex), (0,))
    with pytest.raises(ValueError):
        eigendecompose(h)


def test_residual_certificate_trips():
    # backward error scales with ||H||: a huge norm pushes residuals past tol
    h = OperatorMatrix(np.array([[1e8, 1], [1, 0]], dtype=complex), (0, 1))
    with pytest.raises(EigendecompositionError, match="residual"):
        eigendecompose(h)


@pytest.mark.parametrize("columns", [1, 64, 150, 200])
def test_matrix_residuals_match_the_whole_matrix_product(columns):
    # one block of 64 columns, part of one, and runs that end inside a block
    rng = np.random.default_rng(2)
    entries = rng.normal(size=(150, 150)) + 1j * rng.normal(size=(150, 150))
    vectors = rng.normal(size=(150, columns)) + 1j * rng.normal(size=(150, columns))
    values = rng.normal(size=columns) + 1j * rng.normal(size=columns)
    whole = np.linalg.norm(entries @ vectors - vectors * values, axis=0)
    np.testing.assert_allclose(matrix_residuals(entries, values, vectors), whole, rtol=1e-13)


# ---------------------------------------------------------------------------
# ladder detection
# ---------------------------------------------------------------------------


def test_uniform_chain_single_exact_ladder(uniform80):
    spec, _, spectrum = uniform80
    report = detect_ladders(spectrum, expected_spacing=0.5, tol=1e-8)
    assert len(report.families) == 1
    fam = report.families[0]
    assert fam.max_spacing_deviation < 1e-8
    assert fam.rung_count >= 40
    # independent oracle: bulk levels sit on the n * omega grid
    members = spectrum.eigenvalues[list(fam.member_indices)]
    grid = np.round(members.real / spec.omega) * spec.omega
    assert np.abs(members.real - grid).max() < 1e-8
    assert np.abs(members.imag).max() < 1e-10


def test_dimer_chain_two_conjugate_families(dimer60):
    _, _, spectrum = dimer60
    report = detect_ladders(spectrum, expected_spacing=0.4, tol=1e-6)
    assert len(report.families) == 2
    signs = sorted(np.sign(f.reference_energy.imag) for f in report.families)
    assert signs == [-1.0, 1.0]
    for fam in report.families:
        assert fam.rung_count >= 10
        assert fam.max_spacing_deviation < 1e-6
        assert fam.max_imag_spread < 1e-6
    assert report.conjugate_pairing
    assert report.max_pairing_deviation < 1e-6


def test_jjstar_interleaved_families(jjstar60):
    # alternating-conjugate ladder: two spacing-2w families offset by w
    spec, _, spectrum = jjstar60
    report = detect_ladders(spectrum, expected_spacing=2 * spec.omega, tol=1e-5)
    plus = [f for f in report.families if f.reference_energy.imag > 0]
    minus = [f for f in report.families if f.reference_energy.imag < 0]
    assert plus and minus
    offset = abs(plus[0].reference_energy.real - minus[0].reference_energy.real)
    assert offset % (2 * spec.omega) == pytest.approx(spec.omega, abs=1e-4)


def test_no_ladder_without_tilt():
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.0))
    report = detect_ladders(eigendecompose(h), expected_spacing=0.4, tol=1e-6)
    assert len(report.families) == 0
    assert len(report.unassigned) == 60


def test_detect_ladders_validates_inputs(dimer60):
    _, _, spectrum = dimer60
    with pytest.raises(ValueError):
        detect_ladders(spectrum, expected_spacing=0.0)
    with pytest.raises(ValueError):
        detect_ladders(spectrum, expected_spacing=0.4, tol=-1.0)


def test_spacing_is_real_within_families(dimer60):
    _, _, spectrum = dimer60
    report = detect_ladders(spectrum, expected_spacing=0.4, tol=1e-6)
    for fam in report.families:
        members = spectrum.eigenvalues[list(fam.member_indices)]
        assert np.abs(np.diff(members.imag)).max() < 1e-6


def test_conjugation_closure_pseudo_hermitian(dimer60):
    _, _, spectrum = dimer60
    assert conjugation_closure_deviation(spectrum.eigenvalues) < 1e-8


def test_near_degenerate_cluster_is_excluded_with_diagnostic():
    values = [0.0, 0.4, 0.4 + 1e-9j, 0.8, 1.2]
    report = detect_ladders(synthetic_spectrum(values), 0.4, tol=1e-6)
    assert any("degenerate" in d for d in report.diagnostics)
    assert len(report.families) == 0  # the cluster breaks the only chain


def test_ambiguous_rung_terminates_chain_with_diagnostic():
    # two candidates inside the target window but not degenerate together
    values = [0.0, 0.4 - 9e-7, 0.4 + 9e-7, 0.8, 1.2, 1.6]
    report = detect_ladders(synthetic_spectrum(values), 0.4, tol=1e-6)
    assert any("ambiguous" in d for d in report.diagnostics)


def test_multiset_distance_rejects_size_mismatch():
    with pytest.raises(ValueError):
        spectrum_multiset_distance(np.ones(3), np.ones(4))


def test_ladder_closure_under_translation(dimer60):
    _, _, spectrum = dimer60
    report = detect_ladders(spectrum, expected_spacing=0.4, tol=1e-6)
    fam = report.families[0]
    mid = fam.rung_count // 2
    shift = translation_op(spectrum.dim, 2)
    for k in range(mid - 2, mid + 2):
        # the shifted rung, re-expanded in the (non-orthogonal) eigenbasis,
        # lands on the next rung
        v = spectrum.right_eigenvectors[:, fam.member_indices[k]]
        weights = np.abs(spectrum.coefficients(apply_symmetry(shift, v))) ** 2
        assert weights[fam.member_indices[k + 1]] / weights.sum() >= 0.99


# ---------------------------------------------------------------------------
# reference selection
# ---------------------------------------------------------------------------


def test_reference_is_midmost_and_normalized(dimer60):
    _, _, spectrum = dimer60
    ref = select_reference_state(spectrum, im_sign="+")
    assert np.linalg.norm(ref.amplitudes) == pytest.approx(1.0)
    assert abs(ref.localization_center - 29.5) < 2.0
    assert ref.energy.imag > 0
    minus = select_reference_state(spectrum, im_sign="-")
    assert minus.energy == pytest.approx(np.conj(ref.energy), abs=1e-8)


def test_small_slope_state_is_wider():
    widths = {}
    for omega in (0.2, 1.2):
        h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=omega))
        ref = select_reference_state(eigendecompose(h), im_sign="+")
        widths[omega] = ref.participation_ratio
    assert widths[0.2] > 2 * widths[1.2]


def test_hermitian_reference_ignores_im_sign(uniform80):
    _, _, spectrum = uniform80
    ref = select_reference_state(spectrum, im_sign="+")
    other = select_reference_state(spectrum, im_sign="-")
    assert ref.index == other.index
    assert abs(ref.localization_center - 39.5) < 1.0


@pytest.mark.parametrize(
    "spec, expected",
    [
        # centers 1.0000000000000213 (index 41) and ...284 (index 39) from the
        # midpoint differ only by rounding: the lower index wins
        (LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=81, omega=0.35,
                     j_even=0.8 + 0.6j), 39),
        # an exact tie
        (LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=40, omega=0.8), 19),
    ],
)
def test_reference_ties_go_to_lowest_index(spec, expected):
    ref = select_reference_state(eigendecompose(build_chain(spec)), im_sign="+")
    assert ref.index == expected


def test_selection_fails_outside_window():
    # every level has Im E < 0, so none inside the interior window is a + level
    spectrum = eigendecompose(OperatorMatrix(np.diag(np.arange(8.0) - 1j), tuple(range(8))))
    with pytest.raises(ReferenceSelectionError, match="Im sign '\\+'"):
        select_reference_state(spectrum, im_sign="+")


def test_localization_helpers():
    amps = np.array([0.0, 1.0, 0.0, 0.0])
    assert localization_center(amps) == 1.0
    assert participation_ratio(amps) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        localization_center(np.zeros(3))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", [40, 300])
@pytest.mark.parametrize("columns", [1, 63, 64, 65, 130])
def test_column_blocks_match_the_whole_matrix_bit_for_bit(columns, rows, order):
    # every block edge: one block, one short of and exactly one block, one
    # column over, two over; 300 rows also take OpenBLAS's threaded gemv
    rng = np.random.default_rng(columns)
    amps = rng.standard_normal((rows, columns)) + 1j * rng.standard_normal((rows, columns))
    amps *= np.exp(-np.abs(np.arange(rows) - rows / 2) / 3)[:, None]
    amps = np.asarray(amps, order=order)
    assert np.array_equal(localization_center(amps), reference_localization_center(amps))
    assert np.array_equal(participation_ratio(amps), reference_participation_ratio(amps))
    fixed = amps.copy(order="K")
    leads = spectra._fix_phases(fixed)
    assert np.array_equal(fixed, reference_fix_phases(amps))
    assert np.array_equal(leads, leading_amplitude_index(fixed))


# ---------------------------------------------------------------------------
# ladder operator certificates
# ---------------------------------------------------------------------------


def test_translation_ladder_certificate(dimer60):
    spec, h, spectrum = dimer60
    ref = select_reference_state(spectrum, im_sign="+")
    resid = verify_ladder_operator(
        h, translation_op(h.dim, 2), ref, expected_shift=2 * spec.omega
    )
    assert resid < 1e-6


def test_gauge_time_reversal_certificate(dimer60):
    _, h, spectrum = dimer60
    ref = select_reference_state(spectrum, im_sign="+")
    op = compose(time_reversal_op(), gauge_op(h.dim))
    resid = verify_ladder_operator(h, op, ref, expected_shift=0.0)
    assert resid < 1e-6
    # the generated state must carry conj(E0): check it is an eigenvector
    w = apply_symmetry(op, ref.amplitudes)
    ratio = (h.entries @ w)[25:35] / w[25:35]
    np.testing.assert_allclose(ratio, np.conj(ref.energy), atol=1e-8)


def test_jjstar_composite_certificate(jjstar60):
    spec, h, spectrum = jjstar60
    ref = select_reference_state(spectrum, im_sign="+")
    op = compose(time_reversal_op(), translation_op(h.dim, 1))
    assert verify_ladder_operator(h, op, ref, expected_shift=spec.omega) < 1e-6


def test_certificate_rejects_edge_bound_shift(dimer60):
    spec, h, spectrum = dimer60
    ref = select_reference_state(spectrum, im_sign="+")
    with pytest.raises(ReferenceSelectionError):
        verify_ladder_operator(
            h, translation_op(h.dim, 26), ref, expected_shift=26 * spec.omega
        )


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_linearity_dimer():
    template = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.2)
    scan = scan_E0_vs_omega(template, np.round(np.arange(0.2, 1.2001, 0.1), 10))
    assert not scan.failures
    assert scan.max_fit_residual < 1e-2
    assert scan.slope is not None


def test_scan_uniform_energies_on_grid():
    template = LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=60, omega=0.5)
    scan = scan_E0_vs_omega(template, [0.4, 0.5, 0.6])
    for omega, energy in zip(scan.omegas, scan.energies):
        steps = energy.real / omega
        assert abs(steps - round(steps)) < 1e-8
        assert abs(energy.imag) < 1e-10


def test_scan_records_a_failed_point_and_fits_the_rest(monkeypatch):
    # selection fails at the second slope only: that point is NaN and named
    # in failures, and the fit runs over the other three
    template = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=40, omega=0.2)
    grid = [0.3, 0.4, 0.5, 0.6]
    calls = []
    original = spectra.select_reference_state

    def failing_once(spectrum, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ReferenceSelectionError("no state in the window")
        return original(spectrum, **kwargs)

    monkeypatch.setattr(spectra, "select_reference_state", failing_once)
    scan = scan_E0_vs_omega(template, grid)
    assert scan.failures == ((0.4, "no state in the window"),)
    assert np.isnan(scan.energies[1].real) and np.isnan(scan.centers[1])
    monkeypatch.undo()
    rest = scan_E0_vs_omega(template, [0.3, 0.5, 0.6])
    assert not rest.failures
    np.testing.assert_array_equal(scan.energies[[0, 2, 3]], rest.energies)
    assert (scan.slope, scan.intercept, scan.max_fit_residual) == (
        rest.slope, rest.intercept, rest.max_fit_residual
    )


def test_scan_single_point_fit_flagged():
    template = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=40, omega=0.2)
    scan = scan_E0_vs_omega(template, [0.5])
    assert scan.slope is None and scan.max_fit_residual is None
    assert scan.energies.shape == (1,)


def test_scan_validates_grid():
    template = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=40, omega=0.2)
    with pytest.raises(ValueError):
        scan_E0_vs_omega(template, [])
    with pytest.raises(ValueError):
        scan_E0_vs_omega(template, [0.4, 0.3])
    with pytest.raises(ValueError):
        scan_E0_vs_omega(template, [-0.1, 0.2])
