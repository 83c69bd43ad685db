"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Timed criteria build their own matrices inside the timer.
"""

import math
import time

import numpy as np

from starkladder.dynamics import (
    build_pair_product_state,
    dirac_probability,
    evolve,
    extract_projected_mu,
    family_projection,
    fidelity,
    gaussian_state,
    projection_time,
)
from starkladder.lattices import (
    LatticeKind,
    LatticeSpec,
    build_chain,
    build_pair_lattice,
    compose,
    gauge_conjugation_deviation,
    gauge_op,
    interior_slice,
    pt_commutator_deviation,
    ramped_translation_deviation,
    time_reversal_op,
    translation_op,
)
from starkladder.pairmap import (
    oracle_pair_hamiltonian,
    pair_basis,
    sector_decompose,
)
from starkladder.spectra import (
    detect_ladders,
    eigendecompose,
    scan_E0_vs_omega,
    select_reference_state,
    spectrum_multiset_distance,
    verify_ladder_operator,
)

OMEGA = 0.2
PERIOD = math.pi / OMEGA


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_ladder_structure():
    """Two conjugate families, real spacing 0.4 +- 1e-6, pairing < 1e-6, < 5 s."""
    t0 = time.perf_counter()
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=OMEGA))
    spectrum = eigendecompose(h)
    report = detect_ladders(spectrum, expected_spacing=2 * OMEGA, tol=1e-6)
    elapsed = time.perf_counter() - t0

    n_fam = len(report.families)
    spacing_dev = max((f.max_spacing_deviation for f in report.families), default=np.inf)
    pairing_dev = report.max_pairing_deviation
    ok = (
        n_fam >= 2
        and spacing_dev < 1e-6
        and bool(report.conjugate_pairing)
        and pairing_dev < 1e-6
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"{n_fam} families, spacing dev {spacing_dev:.2e}, "
        f"pairing dev {pairing_dev:.2e}, {elapsed:.2f} s",
    )
    assert n_fam >= 2
    assert spacing_dev < 1e-6
    assert report.conjugate_pairing and pairing_dev < 1e-6
    assert elapsed < 5.0


def test_criterion_02_reference_energy(dimer60):
    """Im E0 at slope 0.2 equals 0.764 within +-0.01."""
    _, _, spectrum = dimer60
    ref = select_reference_state(spectrum, im_sign="+")
    ok = abs(ref.energy.imag - 0.764) < 0.01
    _report(2, ok, f"Im E0 = {ref.energy.imag:.4f} (target 0.764 +- 0.01)")
    assert ok


def test_criterion_03_linearity_of_reference_energy():
    """Re E0 vs slope over 0.2..1.2: max fit residual < 1e-2 (slope reported)."""
    template = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=OMEGA)
    grid = np.round(np.arange(0.2, 1.2 + 1e-9, 0.1), 10)
    scan = scan_E0_vs_omega(template, grid)
    ok = not scan.failures and scan.max_fit_residual < 1e-2
    _report(
        3,
        ok,
        f"max residual {scan.max_fit_residual:.2e}, slope {scan.slope:.4f} "
        "(reported, not asserted)",
    )
    assert not scan.failures
    assert scan.max_fit_residual < 1e-2


def test_criterion_04_single_particle_periodicity(dimer60):
    """Matched rate: interior periodicity < 1e-3; rate 0.787: strict decay."""
    _, h, spectrum = dimer60
    ref = select_reference_state(spectrum, im_sign="+")
    report = detect_ladders(spectrum, expected_spacing=2 * OMEGA, tol=1e-6)
    fam = next(f for f in report.families if f.reference_energy.imag > 0)
    psi0 = family_projection(spectrum, fam.member_indices, gaussian_state(0.3, 30, 60))
    psi0 /= np.linalg.norm(psi0)

    times = np.linspace(0.0, 3 * PERIOD, 49)
    series = evolve(h, psi0, times, spectrum=spectrum)
    win = interior_slice(60)

    probs = dirac_probability(series, ref.energy.imag)
    periodic_dev = 0.0
    for k, t in enumerate(times):
        kk = int(np.argmin(np.abs(times - (t + PERIOD))))
        if abs(times[kk] - (t + PERIOD)) < 1e-9 and t <= PERIOD + 1e-9:
            periodic_dev = max(periodic_dev, np.abs(probs[kk, win] - probs[k, win]).max())

    damped = dirac_probability(series, 0.787)
    window_devs = []
    for start in (0.0, PERIOD):
        dev = 0.0
        for k, t in enumerate(times):
            if not (start - 1e-9 <= t < start + PERIOD - 1e-9):
                continue
            kk = int(np.argmin(np.abs(times - (t + PERIOD))))
            if abs(times[kk] - (t + PERIOD)) < 1e-9:
                dev = max(dev, np.abs(damped[kk, win] - damped[k, win]).max())
        window_devs.append(dev)
    peaks = [damped[int(np.argmin(np.abs(times - k * PERIOD)))].max() for k in range(3)]
    strictly_decaying = window_devs[1] < window_devs[0] and peaks[0] > peaks[1] > peaks[2]

    ok = periodic_dev < 1e-3 and strictly_decaying
    _report(
        4,
        ok,
        f"matched-rate deviation {periodic_dev:.2e}; overdamped period-to-period "
        f"deviation {window_devs[0]:.2e} -> {window_devs[1]:.2e}, "
        f"peaks {peaks[0]:.3f} > {peaks[1]:.3f} > {peaks[2]:.3f}",
    )
    assert periodic_dev < 1e-3
    assert strictly_decaying


def test_criterion_05_symmetry_certificates():
    """T2, gauge, and PT identities < 1e-12, each certificate < 1 s."""
    t0 = time.perf_counter()
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=OMEGA))
    t2_dev = ramped_translation_deviation(h, OMEGA, n0=2)
    t2_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    gauge_dev = gauge_conjugation_deviation(h)
    gauge_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    electron = build_pair_lattice(
        LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=20, omega=OMEGA)
    )
    pt_dev = pt_commutator_deviation(electron)
    pt_time = time.perf_counter() - t0

    ok = (
        t2_dev < 1e-12
        and gauge_dev < 1e-12
        and pt_dev < 1e-12
        and max(t2_time, gauge_time, pt_time) < 1.0
    )
    _report(
        5,
        ok,
        f"T2 {t2_dev:.2e} ({t2_time * 1e3:.0f} ms), gauge {gauge_dev:.2e} "
        f"({gauge_time * 1e3:.0f} ms), PT {pt_dev:.2e} ({pt_time * 1e3:.0f} ms)",
    )
    assert t2_dev < 1e-12 and t2_time < 1.0
    assert gauge_dev < 1e-12 and gauge_time < 1.0
    assert pt_dev < 1e-12 and pt_time < 1.0


def test_criterion_06_ladder_operator_certificates(dimer60, jjstar60):
    """Translation, gauge-conjugation, and composite residuals < 1e-6."""
    spec, h, spectrum = dimer60
    ref = select_reference_state(spectrum, im_sign="+")
    r_t2 = verify_ladder_operator(
        h, translation_op(60, 2), ref, expected_shift=2 * spec.omega
    )
    r_tg = verify_ladder_operator(
        h, compose(time_reversal_op(), gauge_op(60)), ref, expected_shift=0.0
    )
    spec_j, h_j, spectrum_j = jjstar60
    ref_j = select_reference_state(spectrum_j, im_sign="+")
    r_tt1 = verify_ladder_operator(
        h_j,
        compose(time_reversal_op(), translation_op(60, 1)),
        ref_j,
        expected_shift=spec_j.omega,
    )
    ok = max(r_t2, r_tg, r_tt1) < 1e-6
    _report(
        6,
        ok,
        f"T2 shift 2w: {r_t2:.2e}; Tg conj: {r_tg:.2e}; TT1 conj shift w: {r_tt1:.2e}",
    )
    assert r_t2 < 1e-6
    assert r_tg < 1e-6
    assert r_tt1 < 1e-6


def test_criterion_07_oracle_equivalence():
    """Hand-built pair lattices equal the operator-algebra oracle, < 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    sqrt2_counts = {}
    for side in (4, 6, 8):
        for kind in (
            LatticeKind.PAIR_2D_ELECTRON,
            LatticeKind.PAIR_2D_FERMION,
            LatticeKind.PAIR_2D_BOSON,
        ):
            built = build_pair_lattice(LatticeSpec(kind=kind, n_sites=side, omega=OMEGA))
            oracle = oracle_pair_hamiltonian(kind, side, OMEGA)
            worst = max(worst, float(np.abs(built.entries - oracle.entries).max()))
            if kind is LatticeKind.PAIR_2D_BOSON:
                mags = np.abs(built.entries - np.diag(np.diag(built.entries)))
                n_sqrt2 = int(np.sum(np.abs(mags - math.sqrt(2.0)) < 1e-12))
                sqrt2_counts[side] = n_sqrt2
    elapsed = time.perf_counter() - t0
    counts_ok = all(sqrt2_counts[s] == 4 * (s - 1) for s in (4, 6, 8))
    ok = worst < 1e-12 and counts_ok and elapsed < 10.0
    _report(
        7,
        ok,
        f"max entrywise deviation {worst:.2e}; sqrt(2) couplings per side "
        f"{sqrt2_counts} (expect 4(L-1)); {elapsed:.2f} s",
    )
    assert worst < 1e-12
    assert counts_ok
    assert elapsed < 10.0


def test_criterion_08_sector_decomposition():
    """Sectors equal the hand-built counterparts; spectra merge as multisets."""
    worst_entry = 0.0
    worst_merge = 0.0
    for side in (4, 6, 8):
        electron = build_pair_lattice(
            LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=side, omega=OMEGA)
        )
        h_sym, h_anti = sector_decompose(electron)
        boson = build_pair_lattice(
            LatticeSpec(kind=LatticeKind.PAIR_2D_BOSON, n_sites=side, omega=OMEGA)
        )
        fermion = build_pair_lattice(
            LatticeSpec(kind=LatticeKind.PAIR_2D_FERMION, n_sites=side, omega=OMEGA)
        )
        worst_entry = max(
            worst_entry,
            float(np.abs(h_sym.entries - boson.entries).max()),
            float(np.abs(h_anti.entries - fermion.entries).max()),
        )
        merged = np.concatenate(
            [np.linalg.eigvals(h_sym.entries), np.linalg.eigvals(h_anti.entries)]
        )
        worst_merge = max(
            worst_merge,
            spectrum_multiset_distance(np.linalg.eigvals(electron.entries), merged),
        )
    ok = worst_entry < 1e-12 and worst_merge < 1e-9
    _report(
        8,
        ok,
        f"sector entrywise deviation {worst_entry:.2e}; "
        f"spectra merge deviation {worst_merge:.2e}",
    )
    assert worst_entry < 1e-12
    assert worst_merge < 1e-9


def test_criterion_09_pair_bloch_oscillation():
    """Fidelity revival >= 0.99 at the empirically matched pair period, < 2 min."""
    t0 = time.perf_counter()
    side = 40

    chain = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=side, omega=OMEGA))
    spectrum_1d = eigendecompose(chain)
    ref = select_reference_state(spectrum_1d, im_sign="+")
    t_late = projection_time(ref.energy, OMEGA)
    seed = evolve(
        chain, gaussian_state(0.3, side // 2, side), [0.0, t_late], spectrum=spectrum_1d
    )
    mu = extract_projected_mu(seed, ref.energy, t_late)

    phi0 = build_pair_product_state(mu, pair_basis(LatticeKind.PAIR_2D_ELECTRON, side))
    electron = build_pair_lattice(
        LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=side, omega=OMEGA)
    )
    candidates = {"pi/(2w)": PERIOD / 2, "pi/w": PERIOD}
    times = np.array([0.0, candidates["pi/(2w)"], candidates["pi/w"]])
    series = evolve(electron, phi0, times)
    f_curve = fidelity(series)
    fid = {name: float(f_curve[k + 1]) for k, name in enumerate(candidates)}
    matched = next((name for name in candidates if fid[name] >= 0.99), None)
    elapsed = time.perf_counter() - t0

    ok = matched is not None and elapsed < 120.0
    _report(
        9,
        ok,
        f"matched candidate: {matched} (F = {fid.get(matched, float('nan')):.5f}; "
        f"F at pi/(2w) = {fid['pi/(2w)']:.2e}, at pi/w = {fid['pi/w']:.5f}); "
        f"{elapsed:.1f} s",
    )
    assert matched is not None, f"no revival at either candidate: {fid}"
    assert fid[matched] >= 0.99
    assert elapsed < 120.0


def test_criterion_10_hermitian_regression(uniform80):
    """Uniform chain: exact 0.5-spaced ladder and unit total probability."""
    spec, h, spectrum = uniform80
    report = detect_ladders(spectrum, expected_spacing=0.5, tol=1e-8)
    fam = report.families[0]
    # independent oracle: bulk levels sit on the n * omega grid
    members = spectrum.eigenvalues[list(fam.member_indices)]
    grid_dev = float(
        np.abs(members.real - np.round(members.real / 0.5) * 0.5).max()
    )

    times = np.linspace(0.0, 2 * 2 * math.pi / spec.omega, 33)
    series = evolve(h, gaussian_state(0.3, 40, 80), times, spectrum=spectrum)
    probs = dirac_probability(series, 0.0)
    drift = float(np.abs(probs.sum(axis=1) - 1.0).max())

    ok = (
        len(report.families) == 1
        and fam.max_spacing_deviation < 1e-8
        and grid_dev < 1e-8
        and drift < 1e-10
    )
    _report(
        10,
        ok,
        f"1 family of {fam.rung_count} rungs, spacing dev "
        f"{fam.max_spacing_deviation:.2e}, grid dev {grid_dev:.2e}, "
        f"probability drift {drift:.2e}",
    )
    assert len(report.families) == 1
    assert fam.max_spacing_deviation < 1e-8
    assert grid_dev < 1e-8
    assert drift < 1e-10
