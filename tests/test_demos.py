"""Demo scripts run end to end as standalone programs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _value(stdout: str, prefix: str) -> float:
    match = re.search(rf"^{re.escape(prefix)}\s+(\S+)$", stdout, re.MULTILINE)
    assert match, f"no line starting {prefix!r}"
    return float(match.group(1))


def _finds_the_two_conjugate_ladders(stdout: str) -> None:
    assert "detected 2 ladder families" in stdout
    assert "without tilt: 0 families" in stdout


def _fits_a_straight_line(stdout: str) -> None:
    match = re.search(r"^linear fit of Re E0: .* max residual (\S+)$", stdout,
                      re.MULTILINE)
    assert match, "no linear fit line"
    assert float(match.group(1)) < 1e-2


def _matched_rate_is_periodic(stdout: str) -> None:
    pattern = r"\(matched\):\n\s+max interior \|P\(t \+ T\) - P\(t\)\| = (\S+)"
    match = re.search(pattern, stdout)
    assert match, "no matched-rate periodicity line"
    assert float(match.group(1)) < 1e-6


def _sectors_are_the_statistics_lattices(stdout: str) -> None:
    assert _value(stdout, "symmetric sector vs boson lattice:") < 1e-12
    assert _value(stdout, "antisymmetric sector vs fermion lattice:") < 1e-12
    assert _value(stdout, "electron spectrum vs merged sector spectra:") < 1e-9
    assert "dimensions: 64 = 36 + 28" in stdout


def _finds_the_pair_period(stdout: str) -> None:
    assert "empirical pair period: pi/w" in stdout


_DEMOS = [
    ("01_ladder_detection.py", _finds_the_two_conjugate_ladders),
    ("02_reference_energy_scan.py", _fits_a_straight_line),
    ("03_bloch_oscillation_1d.py", _matched_rate_is_periodic),
    ("04_pair_lattice_oracle.py", _sectors_are_the_statistics_lattices),
    ("05_pair_bloch_oscillation_2d.py", _finds_the_pair_period),
]


@pytest.mark.parametrize(
    "script, check", _DEMOS, ids=[script.removesuffix(".py") for script, _ in _DEMOS]
)
def test_demo_runs(tmp_path, script, check):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    check(result.stdout)


def test_cli_workflow_runs(tmp_path):
    # the shell demo calls every experiment and the evolve1d -> evolve2d
    # chain through the `starkladder` command, here a shim onto src/
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "starkladder"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m starkladder.cli "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
    result = subprocess.run(
        ["bash", str(ROOT / "demos" / "06_cli_workflow.sh")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    runs = sorted(p for p in (tmp_path / "runs").iterdir() if p.is_dir())
    assert [p.name for p in runs] == ["e0_scan", "equivalence", "ladder", "overdamped",
                                      "pair_2d", "seed_1d", "spectrum"]
    for directory in runs:
        assert (directory / "checks.json").is_file()
