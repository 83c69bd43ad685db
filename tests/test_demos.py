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


def _sectors_are_the_statistics_lattices(stdout: str) -> None:
    assert _value(stdout, "symmetric sector vs boson lattice:") < 1e-12
    assert _value(stdout, "antisymmetric sector vs fermion lattice:") < 1e-12
    assert _value(stdout, "electron spectrum vs merged sector spectra:") < 1e-9
    assert "dimensions: 64 = 36 + 28" in stdout


def _finds_the_pair_period(stdout: str) -> None:
    assert "empirical pair period: pi/w" in stdout


@pytest.mark.parametrize(
    "script, check",
    [
        ("04_pair_lattice_oracle.py", _sectors_are_the_statistics_lattices),
        ("05_pair_bloch_oscillation_2d.py", _finds_the_pair_period),
    ],
    ids=["04_pair_lattice_oracle", "05_pair_bloch_oscillation_2d"],
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
