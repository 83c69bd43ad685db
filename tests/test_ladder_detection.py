"""Sorted-window ladder detection against the full-scan reference detector."""

import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkladder.experiments as experiments
from starkladder.experiments import load_config, run
from starkladder.lattices import LatticeKind, LatticeSpec, build_chain
from starkladder.spectra import (
    ComplexSpectrum,
    _degenerate_indices,
    detect_ladders,
    eigendecompose,
)

from ladder_reference import (
    reference_degenerate_indices,
    reference_detect_ladders,
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
    assert _degenerate_indices(spectrum.eigenvalues, tol) == reference_degenerate_indices(
        spectrum.eigenvalues, tol
    )


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


def test_detection_allocates_no_square_array():
    # two interleaved 5000-rung ladders, where an n x n float matrix would
    # take 800 MB; real levels, so the conjugate pairing has nothing to match
    n = 10_000
    rungs = np.arange(n // 2) * 0.4
    values = np.concatenate([rungs, rungs + 0.2]).astype(complex)
    # only the levels are read; an identity eigenbasis would itself be n x n
    spectrum = ComplexSpectrum(values, np.empty((n, 0)), np.zeros(n), ())
    tracemalloc.start()
    try:
        report = detect_ladders(spectrum, 0.4, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [f.rung_count for f in report.families] == [n // 2, n // 2]
    assert peak < 50e6


@pytest.fixture(scope="module")
def chain1000():
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=0.2)
    return eigendecompose(build_chain(spec))


def _ladder_scan(tmp_path, monkeypatch, spectrum, name):
    monkeypatch.setattr(experiments, "eigendecompose", lambda h: spectrum)
    cfg = load_config(overrides={
        "experiment": "ladder_scan",
        "model": {"kind": "dimer_1i", "n_sites": 1000, "omega": 0.2},
        "output": {"directory": str(tmp_path / name)},
    })
    return run(cfg)["checks"]


def test_long_chain_tables_equal_reference(tmp_path, monkeypatch, chain1000):
    checks = _ladder_scan(tmp_path, monkeypatch, chain1000, "fast")
    monkeypatch.setattr(experiments, "detect_ladders", reference_detect_ladders)
    reference = _ladder_scan(tmp_path, monkeypatch, chain1000, "reference")
    for name in ("rungs.csv", "ladder.json", "checks.json"):
        assert (tmp_path / "fast" / name).read_bytes() == (
            tmp_path / "reference" / name
        ).read_bytes()
    assert checks == reference


def test_bulk_rungs_keep_the_spacing(tmp_path, monkeypatch, chain1000):
    checks = _ladder_scan(tmp_path, monkeypatch, chain1000, "scan")
    # the rungs centred near the chain ends deviate by 7.7e-6; the bulk ones
    # follow the ladder to rounding
    assert checks["max_spacing_deviation"] > 1e-6
    assert checks["max_bulk_spacing_deviation"] < 1e-10
