"""Sorted-window ladder detection against the full-scan reference detector."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starkladder.experiments as experiments
import starkladder.spectra as spectra
from starkladder.experiments import load_config, run
from starkladder.lattices import LatticeKind, LatticeSpec, build_chain, build_pair_lattice
from starkladder.spectra import (
    ComplexSpectrum,
    _conjugate_pairing,
    _degenerate_indices,
    _within,
    conjugation_closure_deviation,
    detect_ladders,
    eigendecompose,
    spectrum_multiset_distance,
)

from ladder_reference import (
    reference_conjugate_pairing,
    reference_degenerate_indices,
    reference_detect_ladders,
    reference_multiset_distance,
    synthetic_spectrum,
)


_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _spectra(draw):
    """Levels built from blocks that exercise every branch of the detector."""
    tol = draw(st.sampled_from([1e-6, 1e-3]))
    spacing = draw(st.sampled_from([0.25, 0.4, 1.0]))
    values = []
    for _ in range(draw(st.integers(1, 6))):
        start = complex(draw(st.floats(-4.0, 4.0)), draw(st.sampled_from([0.0, 0.3, -0.7])))
        block = draw(st.sampled_from(
            ["progression", "cluster", "ambiguous", "edge", "tie", "level"]
        ))
        if block == "progression":  # jittered well inside the tolerance
            jitter = draw(st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=8))
            values += [start + r * spacing + tol / 4 * complex(a, b)
                       for r, (a, b) in enumerate(jitter)]
        elif block == "cluster":  # near-degenerate pair at tol/2
            phase = draw(st.floats(0.0, 2 * np.pi))
            values += [start, start + tol / 2 * cmath.exp(1j * phase), start + spacing]
        elif block == "ambiguous":  # two candidates in one rung window
            values += [start, start + spacing - 0.8 * tol, start + spacing + 0.8 * tol,
                       start + 2 * spacing]
        elif block == "edge":  # a rung at the very edge of the tolerance
            target = start + spacing
            scale = draw(st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12]))
            edge = tol * max(1.0, abs(target)) * scale
            sign = draw(st.sampled_from([1.0, -1.0]))
            values += [start, target + sign * edge, target + spacing + sign * edge]
        elif block == "tie":  # equal real parts
            shift = draw(st.sampled_from([0.9 * tol, 0.5, -0.5]))
            values += [start, start + 1j * shift, start + spacing]
        else:
            values.append(start)
    if draw(st.booleans()):  # conjugate pairs
        values += [v.conjugate() for v in values]
    order = draw(st.permutations(range(len(values))))
    return synthetic_spectrum([values[k] for k in order]), spacing, tol


@settings(max_examples=300, deadline=None)
@given(_spectra())
def test_detector_equals_reference(case):
    spectrum, spacing, tol = case
    assert (
        detect_ladders(spectrum, spacing, tol).to_dict()
        == reference_detect_ladders(spectrum, spacing, tol).to_dict()
    )
    degenerate = _degenerate_indices(spectrum.eigenvalues, tol)
    assert degenerate == reference_degenerate_indices(spectrum.eigenvalues, tol)


def test_rung_beyond_the_rounded_window_edge_is_found():
    # near zero the real difference rounds: this rung lies one ulp above
    # fl(target + tol), yet its rounded distance to the target is tol
    start = -0.400001129011288
    target = start + 0.4
    rung = np.nextafter(target + 1e-6, np.inf)
    assert abs(complex(rung) - target) <= 1e-6
    spectrum = synthetic_spectrum([start, rung, rung + 0.4])
    report = detect_ladders(spectrum, 0.4, 1e-6)
    assert [f.member_indices for f in report.families] == [(0, 1, 2)]
    assert report.to_dict() == reference_detect_ladders(spectrum, 0.4, 1e-6).to_dict()


_QUARTERS = st.integers(-12, 12).map(lambda k: k / 4)


@st.composite
def _window_queries(draw):
    """Levels and targets, many on a quarter grid (tied real parts, exact
    distances), radii of a few grid steps or none, either comparison."""
    point = st.one_of(
        st.builds(complex, _QUARTERS, _QUARTERS),
        st.complex_numbers(max_magnitude=3.0),
    )
    values = np.array(draw(st.lists(point, min_size=1, max_size=30)), dtype=complex)
    targets = np.array(draw(st.lists(point, max_size=10)), dtype=complex)
    radius = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 3.0))
    radii = np.array(draw(st.lists(radius, min_size=targets.size, max_size=targets.size)))
    return values, targets, radii, draw(st.booleans())


_EDGE_START = -0.400001129011288
_EDGE_TARGET = _EDGE_START + 0.4


@settings(max_examples=300, deadline=None)
@given(_window_queries())
# the level one ulp beyond fl(target + radius), at distance radius after rounding
@example((np.array([np.nextafter(_EDGE_TARGET + 1e-6, np.inf)], dtype=complex),
          np.array([_EDGE_TARGET], dtype=complex), np.array([1e-6]), False))
def test_window_query_equals_brute_force(case):
    values, targets, radii, strict = case
    t, j = _within(values, np.argsort(values.real, kind="stable"), targets, radii, strict)
    dist = np.abs(values[None, :] - targets[:, None])
    near = dist < radii[:, None] if strict else dist <= radii[:, None]
    assert sorted(zip(t.tolist(), j.tolist())) == list(zip(*np.nonzero(near)))
    assert np.all(np.diff(t) >= 0)


def test_detection_makes_as_many_window_queries_at_every_size(monkeypatch, dimer60, chain1000):
    # no per-rung lookup: the window queries do not grow with the spectrum
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _within(*args, **kwargs)

    monkeypatch.setattr(spectra, "_within", counted)
    counts = []
    for spectrum in (dimer60[2], chain1000):
        calls.clear()
        detect_ladders(spectrum, 0.4)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_detection_allocates_no_square_array(traced_peak):
    # two interleaved 5000-rung ladders, where an n x n float matrix would
    # take 800 MB; real levels, so the conjugate pairing has nothing to match
    n = 10_000
    rungs = np.arange(n // 2) * 0.4
    values = np.concatenate([rungs, rungs + 0.2]).astype(complex)
    # only the levels are read; an identity eigenbasis would itself be n x n
    spectrum = ComplexSpectrum(values, ((0, np.empty((n, 0))),), np.zeros(n))
    report, peak = traced_peak(lambda: detect_ladders(spectrum, 0.4, 1e-6))
    assert [f.rung_count for f in report.families] == [n // 2, n // 2]
    assert peak < 50e6


@st.composite
def _conjugate_levels(draw):
    """Conjugate pairs, some broken by noise, plus unpaired, repeated and
    real-part-tied levels, shuffled."""
    upper = draw(st.lists(
        st.complex_numbers(max_magnitude=5.0).filter(lambda z: z.imag > 1e-3),
        min_size=1, max_size=25,
    ))
    if draw(st.booleans()):  # levels on a coarse grid: ties in real part and distance
        upper = [complex(round(z.real, 1), round(z.imag, 1) or 0.1) for z in upper]
    noise = draw(st.sampled_from([0.0, 1e-14, 1e-3, 0.5]))
    lower = [z.conjugate() + noise * complex(draw(_UNIT), draw(_UNIT)) for z in upper]
    extra = draw(st.lists(st.complex_numbers(max_magnitude=5.0), max_size=4))
    values = upper + lower[:draw(st.integers(0, len(lower)))] + extra
    order = draw(st.permutations(range(len(values))))
    return np.array([values[k] for k in order], dtype=complex)


# print_blob: a falsifying example prints its @reproduce_failure line
@settings(max_examples=300, deadline=None, print_blob=True)
@given(_conjugate_levels())
# one Im>0 level exactly halfway between two conj(Im<0) levels: the nearest
# neighbour is a tie, which the assignment breaks by index
@example(np.array([1 + 1j, 1.5 - 1j, 0.5 - 1j]))
def test_conjugate_pairing_equals_assignment(values):
    # pairs, their order and their deviations, bit for bit
    assert _conjugate_pairing(values, 1e-6) == reference_conjugate_pairing(values, 1e-6)


def test_conjugate_pairing_allocates_no_square_array(traced_peak):
    # two conjugate 3000-rung ladders: the dense cost matrix peaked at 217 MB
    n = 6000
    rungs = np.arange(n // 2) * 0.4 + 0.764j
    values = np.concatenate([rungs, np.conj(rungs)])
    spectrum = ComplexSpectrum(values, ((0, np.empty((n, 0))),), np.zeros(n))
    report, peak = traced_peak(lambda: detect_ladders(spectrum, 0.4, 1e-6))
    assert report.conjugate_pairing == tuple((k, k + n // 2, 0.0) for k in range(n // 2))
    assert peak < 10e6


@settings(max_examples=300, deadline=None)
@given(st.one_of(_conjugate_levels(), _spectra().map(lambda case: case[0].eigenvalues)))
@example(np.array([1 + 1j, 1.5 - 1j, 0.5 - 1j]))
def test_multiset_distance_equals_assignment(values):
    # the examples take both the matching and the dense fallback (6 in 10)
    assert conjugation_closure_deviation(values) == reference_multiset_distance(
        values, np.conj(values)
    )
    shuffled = np.random.default_rng(values.size).permutation(values) + 1e-9
    assert spectrum_multiset_distance(values, shuffled) == reference_multiset_distance(
        values, shuffled
    )


def test_multiset_distance_allocates_no_square_array(traced_peak):
    # a conjugate ladder of 3000 levels: the dense cost matrix peaked at 216 MB
    rungs = np.arange(1500) * 0.4 + 0.764j
    values = np.concatenate([rungs, np.conj(rungs)])
    deviation, peak = traced_peak(lambda: conjugation_closure_deviation(values))
    assert deviation == 0.0
    assert peak < 10e6


def test_oversized_dense_assignment_is_refused(traced_peak):
    # 10^5 levels whose conjugate partners are equidistant: the exact ties
    # leave the mutual nearest neighbours short of a cover, and the dense
    # cost matrix would be 5e4 x 5e4, 37 GiB; the guard raises first
    k = np.arange(50_000)
    values = np.concatenate([0.4 * k + 0.764j, 0.4 * k + 0.2 - 0.764j])
    def refused():
        with pytest.raises(ValueError, match="50000 to 50000 levels"):
            _conjugate_pairing(values, 1e-6)

    _, peak = traced_peak(refused)
    assert 50_000**2 > spectra.ASSIGNMENT_LIMIT
    assert peak < 20e6


def test_excluded_clusters_name_their_cause():
    # the pair lattice's degeneracies have a c-orthogonal basis; the dimer_1i
    # chain at omega = 0, n = 3 is an exceptional point (its three levels lie
    # within 1e-5 of 0)
    pair = LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=6, omega=0.2)
    report = detect_ladders(eigendecompose(build_pair_lattice(pair)), 0.4)
    assert any("c-orthogonal eigenbasis" in d for d in report.diagnostics)
    chain = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=3, omega=0.0)
    report = detect_ladders(eigendecompose(build_chain(chain)), 0.4, tol=1e-4)
    assert any("self-orthogonal direction" in d for d in report.diagnostics)
    assert not any("c-orthogonal" in d for d in report.diagnostics)


@pytest.fixture(scope="module")
def chain1000():
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=0.2)
    return eigendecompose(build_chain(spec))


def _ladder_scan(tmp_path, monkeypatch, spectrum, name):
    monkeypatch.setattr(experiments, "eigendecompose", lambda h: spectrum)
    cfg = load_config(overrides={
        "experiment": "ladder_scan",
        "model": {"kind": "dimer_1i", "n_sites": spectrum.dim, "omega": 0.2},
        "output": {"directory": str(tmp_path / name)},
    })
    return run(cfg)["checks"]


def _no_assignment(cost):
    raise AssertionError("the chain's conjugate pairs are unambiguous")


def _assert_tables_equal_reference(tmp_path, monkeypatch, spectrum):
    # the sorted-window detector and the nearest-neighbour pairing, with no
    # assignment, write the reference detector's tables byte for byte
    monkeypatch.setattr(spectra, "linear_sum_assignment", _no_assignment)
    checks = _ladder_scan(tmp_path, monkeypatch, spectrum, "fast")
    monkeypatch.undo()
    monkeypatch.setattr(experiments, "detect_ladders", reference_detect_ladders)
    reference = _ladder_scan(tmp_path, monkeypatch, spectrum, "reference")
    for name in ("rungs.csv", "ladder.json", "checks.json"):
        assert (tmp_path / "fast" / name).read_bytes() == (
            tmp_path / "reference" / name
        ).read_bytes()
    assert checks == reference


def test_long_chain_tables_equal_reference(tmp_path, monkeypatch, chain1000):
    _assert_tables_equal_reference(tmp_path, monkeypatch, chain1000)


def test_short_chain_tables_equal_reference(tmp_path, monkeypatch, dimer60):
    _assert_tables_equal_reference(tmp_path, monkeypatch, dimer60[2])


def test_bulk_rungs_keep_the_spacing(tmp_path, monkeypatch, chain1000):
    checks = _ladder_scan(tmp_path, monkeypatch, chain1000, "scan")
    # the rungs centred near the chain ends deviate by 7.7e-6; the bulk ones
    # follow the ladder to rounding
    assert checks["max_spacing_deviation"] > 1e-6
    assert checks["max_bulk_spacing_deviation"] < 1e-10
