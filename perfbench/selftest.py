"""Self-test of the benchmark itself:  python3 perfbench/selftest.py

Checks that
- BENCHMARK.json declares the same metrics, with the same units, as run.py;
- a one-pass run of ``cli_small`` emits every declared metric with its unit,
  traced and untraced, and prints ``fail_frac``;
- a forced gate miss is counted: ``failed`` 1 of 7 commands, ``fail_frac``
  1/7, ``correct`` false;
- in a directory that holds only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.

Takes about a minute; exits non-zero on the first failed check.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(argv: list) -> tuple:
    """run.main in this process; returns (exit code, stdout lines, result)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def check_declared() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == table, f"BENCHMARK.json {key} differs from run.py"
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def check_emitted(trace: int) -> None:
    code, lines, result = _run(
        ["--workload", "cli_small", "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    assert code == 0 and result["correct"] and result["failed"] == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table), sorted(result["metrics"])
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name], (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
    for name in [*table, "fail_frac"]:
        assert any(line.split()[:1] == [name] for line in lines), f"{name} not printed"


def check_forced_miss() -> None:
    real = run.WORKLOADS["cli_small"]

    def forced(passdir, seed):
        invocations = real(passdir, seed)
        invocations[1] = run.Invocation(invocations[1].tag, invocations[1].args,
                                        lambda out, stdout: ["forced miss"])
        return invocations

    run.WORKLOADS["cli_small"] = forced
    try:
        code, lines, result = _run(
            ["--workload", "cli_small", "--seed", "7", "--seconds", "1", "--trace", "0"])
    finally:
        run.WORKLOADS["cli_small"] = real
    assert code != 0 and not result["correct"], result
    assert (result["failed"], result["attempted"]) == (1, 7), result
    row = next(line.split() for line in lines if line.startswith("fail_frac"))
    assert abs(float(row[3]) - 1 / 7) < 1e-4, row


def check_bare_directory() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "cli_small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    checks = [("declared metrics", check_declared),
              ("untraced metrics", lambda: check_emitted(0)),
              ("traced metrics", lambda: check_emitted(1)),
              ("forced gate miss", check_forced_miss),
              ("bare directory", check_bare_directory)]
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
