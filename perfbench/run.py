"""End-to-end benchmark of the ``starkladder`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs one workload's commands one after another, each in a fresh
process started from this single parent process, with the BLAS thread count
pinned to the number of usable cores.  Every command is gated on the physics
verdicts it writes to ``checks.json``; a non-zero exit or a missed gate
counts as a failed invocation.  Passes repeat for about ``--seconds``
seconds, and each metric is the median over the run's passes.

With ``--trace 0`` the metrics are end to end, from untraced passes.  With
``--trace 1`` each round runs an untraced reference pass, a traced pass
whose commands record spans around every layer call (``spans.py``), and one
``python -X importtime`` start; the metrics are per layer.  Human-readable
lines come first; the last line of stdout is the JSON result.  The full
record of the run is written to ``.bench_out/``.  See ``NOTES.md`` for why
the workloads are what they are.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
OVERDAMPED = HERE / "overdamped.json"

OMEGA = "0.2"
SPACING = 0.4  # ladder step of the dimer chains: unit cell 2 times omega
INVOCATION_TIMEOUT_S = 150
NPROC = len(os.sched_getaffinity(0))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_optimize_s": "s",
    "import.scipy_integrate_s": "s",
    "lattices.build_s": "s",
    "lattices.build_calls": "count",
    "lattices.matrix_mb": "MB",
    "spectra.eigendecompose_s": "s",
    "spectra.eigendecompose_self_s": "s",
    "spectra.eigendecompose_calls": "count",
    "spectra.detect_ladders_s": "s",
    "spectra.select_reference_s": "s",
    "spectra.scan_s": "s",
    "spectra.max_spacing_deviation": "energy",
    "dynamics.evolve_s": "s",
    "dynamics.evolve_self_s": "s",
    "dynamics.evolve_calls": "count",
    "dynamics.family_projection_s": "s",
    "dynamics.fidelity_s": "s",
    "dynamics.integrator_fallbacks": "count",
    "pairmap.oracle_s": "s",
    "pairmap.sector_decompose_s": "s",
    "pairmap.lift_1d_evolution_s": "s",
    "pairmap.sector_reassembled_s": "s",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.bytes_written": "bytes",
    "kernel.eig_calls": "count",
    "kernel.eig_s": "s",
    "kernel.eig_n3_g": "Gn3",
    "kernel.eig_repeat": "count",
    "kernel.eigvals_s": "s",
    "kernel.cond_calls": "count",
    "kernel.cond_s": "s",
    "kernel.cond_per_eig": "ratio",
    "kernel.solve_calls": "count",
    "kernel.solve_s": "s",
    "kernel.lsa_s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# correctness gates: each returns the list of missed conditions
# ---------------------------------------------------------------------------


def _checks(out: Path) -> dict:
    return json.loads((out / "checks.json").read_text())


def _misses(*conditions) -> list:
    return [message for ok, message in conditions if not ok]


def gate_validate(out: Path, stdout: str) -> list:
    return _misses((stdout.strip() == "ok", f"validate printed {stdout.strip()!r}"))


def gate_spectrum(out: Path, stdout: str) -> list:
    c = _checks(out)
    return _misses((c["residual_certified"] is True,
                    f"residual certificate failed: {c['max_residual']}"))


def gate_ladder(out: Path, stdout: str) -> list:
    """Criterion 1: two conjugate families, spacing and pairing < 1e-6."""
    c = _checks(out)
    pairs = json.loads((out / "ladder.json").read_text())["conjugate_pairing"]
    return _misses(
        (c["n_families"] >= 2, f"{c['n_families']} families"),
        (c["max_spacing_deviation"] < 1e-6,
         f"spacing deviation {c['max_spacing_deviation']}"),
        (bool(pairs) and c["max_pairing_deviation"] < 1e-6,
         f"pairing deviation {c['max_pairing_deviation']} over {len(pairs)} pairs"),
    )


def gate_ladder_long(out: Path, stdout: str) -> list:
    """Two paired families; each family's spacing within the relative
    tolerance detect_ladders applies, 1e-6 * max(1, |E|).  The flat 1e-6 of
    criterion 1 is set at n = 60 and is not met at n = 1000 (see NOTES.md)."""
    c = _checks(out)
    pairs = json.loads((out / "ladder.json").read_text())["conjugate_pairing"]
    families = defaultdict(list)
    with (out / "rungs.csv").open() as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            families[row["family"]].append(complex(float(row["re"]), float(row["im"])))
    wide = []
    for fam, energies in families.items():
        dev = max(abs(b.real - a.real - SPACING) for a, b in zip(energies, energies[1:]))
        tol = 1e-6 * max(1.0, max(abs(e) for e in energies))
        if dev > tol:
            wide.append(f"family {fam}: spacing deviation {dev:.3e} > {tol:.3e}")
    return wide + _misses(
        (c["n_families"] >= 2, f"{c['n_families']} families"),
        (bool(pairs) and c["max_pairing_deviation"] < 1e-6,
         f"pairing deviation {c['max_pairing_deviation']} over {len(pairs)} pairs"),
    )


def gate_e0_scan(out: Path, stdout: str) -> list:
    """Criterion 3: linear Re E0 over the slope grid, no failed points."""
    c = _checks(out)
    return _misses(
        (not c["failures"], f"failed grid points {c['failures']}"),
        (c["max_fit_residual"] is not None and c["max_fit_residual"] < 1e-2,
         f"fit residual {c['max_fit_residual']}"),
    )


def gate_evolve1d(out: Path, stdout: str) -> list:
    """Criterion 2 (Im E0 = 0.764 +- 0.01), spectral path, profile written."""
    c = _checks(out)
    return _misses(
        (abs(c["e0"][1] - 0.764) < 0.01, f"Im E0 = {c['e0'][1]}"),
        (c["method"] == "spectral", f"method {c['method']!r}"),
        (c["mu_extracted"] is True, "no projected profile"),
    )


def gate_pair_equivalence(out: Path, stdout: str) -> list:
    """Criteria 7 and 8: oracle and sector entries < 1e-12, merge < 1e-9."""
    c = _checks(out)
    return _misses(
        (c["max_oracle_deviation"] < 1e-12, f"oracle {c['max_oracle_deviation']}"),
        (c["max_sector_deviation"] < 1e-12, f"sector {c['max_sector_deviation']}"),
        (c["max_spectra_merge_deviation"] < 1e-9,
         f"spectra merge {c['max_spectra_merge_deviation']}"),
    )


def gate_evolve2d(out: Path, stdout: str) -> list:
    """Criterion 9: the product state revives at pi/omega, fidelity >= 0.99."""
    c = _checks(out)
    return _misses(
        (c["matched_candidate"] == "pi_over_omega",
         f"matched {c['matched_candidate']!r}"),
        (c["revival_fidelity"] is not None and c["revival_fidelity"] >= 0.99,
         f"revival fidelity {c['revival_fidelity']}"),
    )


# ---------------------------------------------------------------------------
# workloads: the commands of one pass, written into the pass directory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    tag: str  # also the name of its output directory inside the pass
    args: tuple
    gate: object


def _chain(n: int) -> tuple:
    return ("--model", "dimer_1i", "--sites", str(n), "--omega", OMEGA)


def cli_small(passdir: Path, seed: int) -> list:
    pair_cfg = passdir / "pair_equivalence.json"
    pair_cfg.write_text(json.dumps({
        "experiment": "pair_equivalence",
        "model": {"omega": float(OMEGA)},
        "run": {"seed": seed},
    }))
    return [
        Invocation("validate", ("validate", "--config", str(OVERDAMPED)), gate_validate),
        Invocation("spectrum", ("spectrum", *_chain(60)), gate_spectrum),
        Invocation("ladder-scan", ("ladder-scan", *_chain(60)), gate_ladder),
        Invocation("e0-vs-omega", ("e0-vs-omega", *_chain(60)), gate_e0_scan),
        Invocation("evolve1d", ("evolve1d", *_chain(40)), gate_evolve1d),
        Invocation("evolve1d-overdamped", ("evolve1d", "--config", str(OVERDAMPED)),
                   gate_evolve1d),
        Invocation("pair-equivalence", ("pair-equivalence", "--config", str(pair_cfg)),
                   gate_pair_equivalence),
    ]


def long_chain(passdir: Path, seed: int) -> list:
    return [
        Invocation("ladder-scan", ("ladder-scan", *_chain(1000)), gate_ladder_long),
        Invocation("evolve1d", ("evolve1d", *_chain(1000)), gate_evolve1d),
    ]


def pair_revival(passdir: Path, seed: int) -> list:
    seed_run = passdir / "seed"
    return [
        Invocation("seed", ("evolve1d", *_chain(40)), gate_evolve1d),
        *(
            Invocation(f"evolve2d-{kind}",
                       ("evolve2d", "--model", f"pair_2d_{kind}", "--sites", "40",
                        "--omega", OMEGA, "--from-run", str(seed_run)),
                       gate_evolve2d)
            for kind in ("electron", "fermion", "boson")
        ),
    ]


WORKLOADS = {"cli_small": cli_small, "long_chain": long_chain,
             "pair_revival": pair_revival}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(NPROC)
    return env


@dataclass
class Pass:
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    bytes_written: int = 0
    verdicts: list = field(default_factory=list)  # (tag, [missed conditions])
    spans: list = field(default_factory=list)  # one span list per invocation

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(1 for _, misses in self.verdicts if misses)


def _spawn(argv: list, stdout: Path, stderr: Path, env: dict):
    """Start one child, wait for it; return (exit code, rusage, start, end)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = now()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    return os.waitstatus_to_exitcode(status), usage, start, now()


def run_pass(invocations: list, passdir: Path, trace: bool, env: dict) -> Pass:
    result = Pass()
    for inv in invocations:
        out = passdir / inv.tag
        marks = passdir / f"{inv.tag}.marks.json"
        stdout = passdir / f"{inv.tag}.stdout"
        argv = [sys.executable, str(HERE / "launch.py"), str(marks),
                "1" if trace else "0", inv.tag, *inv.args, "--out", str(out)]
        code, usage, start, end = _spawn(argv, stdout, passdir / f"{inv.tag}.stderr", env)
        result.wall_s += end - start
        result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss * 1024 / 1e6)
        result.cpu_s += usage.ru_utime + usage.ru_stime
        misses = [] if code == 0 else [f"exit code {code}"]
        try:
            mark = json.loads(marks.read_text())
        except (OSError, ValueError):
            misses.append("no import mark: the command died before importing")
        else:
            result.setup_s += mark["imported"] - start
            result.spans.append(mark.get("spans", []))
        if code == 0:
            try:
                misses += inv.gate(out, stdout.read_text())
            except (OSError, KeyError, TypeError, ValueError) as exc:
                misses.append(f"gate could not read the outputs: {exc!r}")
        if out.is_dir():
            result.bytes_written += sum(
                f.stat().st_size for f in out.rglob("*") if f.is_file())
        result.verdicts.append((inv.tag, misses))
    return result


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(traced: Pass) -> dict:
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    n3 = matrix_mb = max_dev = 0.0
    repeats = fallbacks = 0
    seen = set()
    for spans in traced.spans:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _inv, _attrs in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _inv, attrs) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
            if name == "kernel.eig" and "sha" in attrs:
                n3 += attrs["n"] ** 3 / 1e9
                repeats += attrs["sha"] in seen
                seen.add(attrs["sha"])
            matrix_mb += 16 * attrs.get("dim", 0) ** 2 / 1e6
            max_dev = max(max_dev, attrs.get("max_spacing_deviation", 0.0))
            fallbacks += bool(attrs.get("fallback"))
    builds = ("lattices.build_chain", "lattices.build_pair_lattice")
    return {
        "lattices.build_s": sum(total[n] for n in builds),
        "lattices.build_calls": sum(calls[n] for n in builds),
        "lattices.matrix_mb": matrix_mb,
        "spectra.eigendecompose_s": total["spectra.eigendecompose"],
        "spectra.eigendecompose_self_s": own["spectra.eigendecompose"],
        "spectra.eigendecompose_calls": calls["spectra.eigendecompose"],
        "spectra.detect_ladders_s": total["spectra.detect_ladders"],
        "spectra.select_reference_s": total["spectra.select_reference_state"],
        "spectra.scan_s": total["spectra.scan_E0_vs_omega"],
        "spectra.max_spacing_deviation": max_dev,
        "dynamics.evolve_s": total["dynamics.evolve"],
        "dynamics.evolve_self_s": own["dynamics.evolve"],
        "dynamics.evolve_calls": calls["dynamics.evolve"],
        "dynamics.family_projection_s": total["dynamics.family_projection"],
        "dynamics.fidelity_s": total["dynamics.fidelity"],
        "dynamics.integrator_fallbacks": fallbacks,
        "pairmap.oracle_s": total["pairmap.oracle_pair_hamiltonian"],
        "pairmap.sector_decompose_s": total["pairmap.sector_decompose"],
        "pairmap.lift_1d_evolution_s": total["pairmap.lift_1d_evolution"],
        "pairmap.sector_reassembled_s": total["pairmap.sector_reassembled_distance"],
        "experiments.run_s": total["experiments.run"],
        "experiments.self_s": own["experiments.run"],
        "experiments.bytes_written": traced.bytes_written,
        "kernel.eig_calls": calls["kernel.eig"],
        "kernel.eig_s": total["kernel.eig"],
        "kernel.eig_n3_g": n3,
        "kernel.eig_repeat": repeats,
        "kernel.eigvals_s": total["kernel.eigvals"],
        "kernel.cond_calls": calls["kernel.cond"],
        "kernel.cond_s": total["kernel.cond"],
        "kernel.cond_per_eig": calls["kernel.cond"] / max(1, calls["kernel.eig"]),
        "kernel.solve_calls": calls["kernel.solve"],
        "kernel.solve_s": total["kernel.solve"],
        "kernel.lsa_s": total["kernel.linear_sum_assignment"],
    }


def import_profile(env: dict) -> dict:
    """Cumulative import times from one ``python -X importtime`` start."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import starkladder.cli"],
        env=env, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
        check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {
        "import.total_s": cumulative["starkladder.cli"],
        "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
    }


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(env: dict, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "record.py")], env=env,
                          capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import starkladder from {SRC}:\n{proc.stderr}")
    return {**json.loads(proc.stdout), "git_commit": git_commit(),
            "src_sha256": source_digest(), "seed": seed,
            "seeded": "run.seed of pair-equivalence (cli_small); every other "
                      "command is deterministic"}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _pass(workload: str, seed: int, passdir: Path, trace: bool, env: dict) -> Pass:
    passdir.mkdir(parents=True)
    try:
        return run_pass(WORKLOADS[workload](passdir, seed), passdir, trace, env)
    finally:
        shutil.rmtree(passdir)


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict,
            workdir: Path) -> tuple:
    """Run rounds until the next is predicted to overrun ``seconds``.

    A round is one untraced pass or, when tracing, an untraced and a traced
    pass, run in alternating order, plus one import profile.  Returns
    (untraced passes, traced passes, per-layer samples).
    """
    plain, traced, layers = [], [], []
    started = now()
    while True:
        rnd = len(plain)
        order = (False, True) if rnd % 2 == 0 else (True, False)
        for tracing in order if trace else (False,):
            done = _pass(workload, seed, workdir / f"{rnd}-{int(tracing)}", tracing, env)
            (traced if tracing else plain).append(done)
        if trace:
            layers.append({
                **import_profile(env),
                **layer_metrics(traced[-1]),
                "proc.cpu_s": plain[-1].cpu_s,
                "trace.overhead_frac": traced[-1].wall_s / plain[-1].wall_s - 1.0,
            })
        elapsed = now() - started
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced, layers


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "starkladder" / "cli.py").is_file():
        print(f"error: no starkladder sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        record = run_record(env, args.seed)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plain, traced, layers = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace), env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    samples = {name: [getattr(p, name) for p in plain] for name in END_TO_END}
    # fail_frac is printed but left out of the JSON metrics, where a metric
    # must never be 0; the JSON carries it as "failed" out of "attempted".
    samples["fail_frac"] = [p.failed / p.attempted for p in plain]
    units = {**END_TO_END, "fail_frac": "ratio"}
    if args.trace:
        samples.update({name: [s[name] for s in layers] for name in PER_LAYER})
        units.update(PER_LAYER)
    stats = {name: {**summarize(v), "unit": units[name]} for name, v in samples.items()}

    print(f"starkladder benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in record.items():
        print(f"  {key}: {value}")
    print(f"gates ({len(plain)} untraced and {len(traced)} traced passes):")
    for i, (tag, _) in enumerate(passes[0].verdicts):
        misses = [m for p in passes for m in p.verdicts[i][1]]
        ok = sum(1 for p in passes if not p.verdicts[i][1])
        print(f"  {tag:22s} {ok}/{len(passes)} ok" + (f"  {misses}" if misses else ""))
    print(f"{'metric':32s} {'unit':7s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    for name, s in stats.items():
        print(f"{name:32s} {s['unit']:7s} {s['n']:3d} {s['median']:12.6g} "
              f"{s['q1']:12.6g} {s['q3']:12.6g}")
    if traced:
        setup = statistics.median(t.setup_s for t in traced)
        ran = stats["experiments.run_s"]["median"]
        wall = statistics.median(t.wall_s for t in traced)
        print(f"traced split: set-up {setup:.3f} s + experiments.run {ran:.3f} s + "
              f"rest {wall - setup - ran:.3f} s = {wall:.3f} s traced, against "
              f"{stats['wall_s']['median']:.3f} s untraced wall_s "
              f"(overhead {stats['trace.overhead_frac']['median']:+.3f})")

    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": names[name]}
                    for name in names},
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "record": record, "stats": stats, "samples": samples,
        "verdicts": [p.verdicts for p in passes], **result,
    }, indent=2))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
