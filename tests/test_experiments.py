import collections
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import starkladder
import starkladder.experiments as experiments
import starkladder.pairmap as pairmap
import starkladder.spectra as spectra
from starkladder.cli import main
from starkladder.dynamics import (
    build_pair_product_state,
    evolve,
    extract_projected_mu,
    family_projection,
    fidelity,
    gaussian_state,
    projection_time,
)
from starkladder.experiments import (
    EXPERIMENTS,
    ConfigError,
    list_experiments,
    load_config,
    run,
    validate,
)
from starkladder.lattices import (
    ChainMatrix,
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    PairMatrix,
    build_chain,
    build_pair_lattice,
    interior_slice,
)
from starkladder.spectra import (
    RESIDUAL_TOL,
    ComplexSpectrum,
    detect_ladders,
    eigendecompose,
    select_reference_state,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_part(experiment, model):
    """The keys of ``model`` that ``experiment`` reads."""
    return {k: v for k, v in model.items() if k in EXPERIMENTS[experiment].model_keys}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_defaults_fill_every_field():
    cfg = load_config(overrides={"experiment": "evolve1d"})
    assert cfg.model.kind.value == "dimer_1i"
    assert cfg.model.n_sites == 60
    assert cfg.model.omega == 0.2
    assert cfg.run.alpha == 0.3
    assert cfg.output.format == "csv"


def test_flags_override_file_values(tmp_path):
    path = _write(
        tmp_path,
        "cfg.json",
        {"experiment": "spectrum", "model": {"n_sites": 30, "omega": 0.4}},
    )
    cfg = load_config(path, {"model": {"omega": 0.7}})
    assert cfg.model.n_sites == 30
    assert cfg.model.omega == 0.7


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "spectrum", "model": {"sites": 10}},  # typo key
        {"experiment": "spectrum", "run": {"lambdaa": 0.1}},
        {"experiment": "spectrum", "outputs": {}},
        {"experiment": "sprectum"},
        {"experiment": "spectrum", "model": {"n_sites": -2}},
        {"experiment": "spectrum", "model": {"kind": "triangle"}},
        {"experiment": "spectrum", "output": {"format": "yaml"}},
        {"experiment": "evolve1d", "run": {"im_sign": "?"}},
        {"experiment": "evolve1d", "run": {"initial_state": "plane"}},
        {"experiment": "evolve1d", "run": {"times": [1.0, 2.0]}},
        {"experiment": "spectrum", "model": {"j_even": {"re": 1}}},
        {"experiment": "evolve1d", "model": {"kind": "pair_2d_electron"}},
        {"experiment": "evolve2d", "model": {"kind": "dimer_1i"}},
        # each of these passed validation and then failed the run
        {"experiment": "e0_vs_omega", "run": {"omega_grid": [0.4, 0.2]}},
        {"experiment": "pair_equivalence", "run": {"sides": [3]}},
        {"experiment": "evolve1d", "model": {"n_sites": 40}, "run": {"j0": 99}},
        {"experiment": "ladder_scan", "run": {"expected_spacing": -1}},
        {"experiment": "evolve2d", "model": {"kind": "pair_2d_electron"}},
        {"experiment": "evolve1d", "run": {"t_max": -1}},
        {"experiment": "evolve1d", "run": {"t_late": -5}},
        {"experiment": "evolve1d", "run": {"n_steps": 2.5}},
    ],
)
def test_bad_configs_rejected(tmp_path, payload):
    path = _write(tmp_path, "bad.json", payload)
    with pytest.raises(ConfigError):
        load_config(path)
    assert validate(path)  # non-empty error list


# (experiment, run key, JSON text of a value of the wrong type or not finite);
# each loaded before run keys were checked for type and finiteness
_BAD_RUN_VALUES = [
    ("evolve1d", "times", "[0, 1e400]"),
    ("evolve1d", "t_max", "1e400"),
    ("evolve1d", "n_steps", "true"),
    ("evolve1d", "lambda", '"x"'),
    ("evolve1d", "alpha", "1e400"),
    ("evolve1d", "j0", "2.5"),
    ("evolve1d", "project", '"no"'),
    ("evolve1d", "t_late", "Infinity"),
    ("evolve1d", "seed", "1.5"),
    ("evolve1d", "tol", "1e400"),
    ("ladder_scan", "expected_spacing", "1e400"),
    ("e0_vs_omega", "omega_grid", "[0.2, 1e400]"),
    ("pair_equivalence", "sides", "[4, 1e400]"),
    ("evolve2d", "from_run", "5"),
]


@pytest.mark.parametrize(
    "experiment, key, text", _BAD_RUN_VALUES, ids=[k for _, k, _ in _BAD_RUN_VALUES]
)
def test_run_key_type_and_finiteness(tmp_path, capsys, experiment, key, text):
    kind = min(EXPERIMENTS[experiment].kinds).value
    path = tmp_path / "cfg.json"
    model = json.dumps(_read_part(experiment, {"kind": kind, "n_sites": 8}))
    path.write_text(
        f'{{"experiment": "{experiment}", "model": {model}, "run": {{"{key}": {text}}}}}'
    )
    errors = validate(path)
    assert len(errors) == 1 and f"run.{key}" in errors[0]
    command = experiment.replace("_", "-")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: run.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (model key, JSON text of a value of the wrong type, not finite or not
# integral); each was a traceback, a "numerical failure" or a run at another
# value (true as 1, 2.7 as 2) before model keys were checked like run keys
_BAD_MODEL_VALUES = [
    ("j_even", '["a", 1]'),
    ("j_even", "[1, null]"),
    ("j_even", "[true, 0]"),
    ("j_even", '"inf+1j"'),
    ("j_even", "1e400"),
    ("j_even", "true"),
    ("j_odd", "[1, 1e400]"),
    ("omega", "true"),
    ("origin_offset", "true"),
    ("origin_offset", "2.7"),
    ("origin_offset", "1e400"),
    ("origin_offset", '"3"'),
    ("n_sites", "1e400"),
]


@pytest.mark.parametrize("key, text", _BAD_MODEL_VALUES,
                         ids=[f"{k}={t}" for k, t in _BAD_MODEL_VALUES])
def test_model_key_type_and_finiteness(tmp_path, capsys, key, text):
    path = tmp_path / "cfg.json"
    path.write_text(
        f'{{"experiment": "spectrum", "model": {{"kind": "uniform_1d", "n_sites": 8, '
        f'"{key}": {text}}}}}'
    )
    errors = validate(path)
    assert len(errors) == 1 and errors[0].startswith("model") and key in errors[0]
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: model" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_complex_hopping_spellings(tmp_path):
    for spelling in (1, [0.8, 0.6], "0.8+0.6j"):
        path = _write(
            tmp_path,
            "c.json",
            {
                "experiment": "spectrum",
                "model": {"kind": "dimer_jjstar", "j_even": spelling},
            },
        )
        cfg = load_config(path)
        assert cfg.model.j_odd == np.conj(cfg.model.j_even)


def test_validate_reports_missing_file():
    assert validate("/nonexistent/конфиг.json")


_UNDECLARED = [
    (name, key)
    for name in EXPERIMENTS
    for key in sorted({k for e in EXPERIMENTS.values() for k in e.run_keys})
    if key not in EXPERIMENTS[name].run_keys
]


@pytest.mark.parametrize("experiment, key", _UNDECLARED)
def test_experiment_refuses_keys_it_does_not_read(tmp_path, experiment, key):
    kind = min(EXPERIMENTS[experiment].kinds).value
    model = _read_part(experiment, {"kind": kind})
    payload = {"experiment": experiment, "model": model, "run": {key: 1}}
    path = _write(tmp_path, "cfg.json", payload)
    readers = ", ".join(name for name, e in EXPERIMENTS.items() if key in e.run_keys)
    with pytest.raises(ConfigError, match=rf"not '{key}' \(read by {readers}\)"):
        load_config(path)
    assert validate(path)


# (experiment, model key it does not read, a value the model would accept)
_UNREAD_MODEL_KEYS = [
    (name, key, value)
    for name in EXPERIMENTS
    for key, value in [("kind", "dimer_1i"), ("n_sites", 8), ("omega", 0.3),
                       ("j_even", 1), ("j_odd", [0, 1]), ("origin_offset", 2)]
    if key not in EXPERIMENTS[name].model_keys
]


@pytest.mark.parametrize("experiment, key, value", _UNREAD_MODEL_KEYS)
def test_experiment_refuses_model_keys_it_does_not_read(tmp_path, experiment, key, value):
    path = _write(tmp_path, "cfg.json", {"experiment": experiment, "model": {key: value}})
    with pytest.raises(ConfigError, match=rf"model: {experiment} reads .*not \['{key}'\]"):
        load_config(path)
    assert validate(path)


def test_cli_pair_equivalence_refuses_unread_model_flags(tmp_path, capsys):
    flags = ["--model", "pair_2d_boson", "--sites", "99"]
    out = tmp_path / "out"
    assert main(["pair-equivalence", *flags, "--out", str(out)]) == 2
    assert "not ['kind', 'n_sites']" in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", "--experiment", "pair_equivalence", *flags]) == 2


def test_pair_equivalence_manifest_records_omega_only(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"experiment": "pair_equivalence",
                                        "model": {"omega": 0.3}, "run": {"sides": [4]}})
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["pair-equivalence", "--config", cfg, "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["model"] == {"omega": 0.3}
    assert main(["pair-equivalence", "--config", str(first / "manifest.json"),
                 "--out", str(again)]) == 0
    for name in ("equivalence.json", "checks.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_catalog_lists_every_experiment():
    catalog = list_experiments()
    assert len(catalog) >= 6
    names = {entry["name"] for entry in catalog}
    assert names == {
        "spectrum",
        "ladder_scan",
        "e0_vs_omega",
        "evolve1d",
        "evolve2d",
        "pair_equivalence",
    }
    assert all(entry["demonstrates"] for entry in catalog)
    params = {entry["name"]: entry["parameters"] for entry in catalog}
    assert params["spectrum"] == []
    assert params["pair_equivalence"] == ["sides", "seed"]
    kinds = {entry["name"]: entry["kinds"] for entry in catalog}
    assert kinds["pair_equivalence"] == ["pair_2d_electron", "pair_2d_fermion",
                                         "pair_2d_boson"]
    assert kinds["spectrum"] == [k.value for k in LatticeKind]


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def _spectrum_cfg(tmp_path, **model):
    model = {"kind": "dimer_1i", "n_sites": 20, "omega": 0.3, **model}
    return load_config(
        overrides={
            "experiment": "spectrum",
            "model": model,
            "output": {"directory": str(tmp_path / "out")},
        }
    )


def test_spectrum_run_writes_artifacts(tmp_path):
    result = run(_spectrum_cfg(tmp_path))
    outdir = tmp_path / "out"
    assert (outdir / "eigenvalues.csv").exists()
    assert (outdir / "checks.json").exists()
    assert (outdir / "manifest.json").exists()
    assert result["checks"]["residual_certified"] is True
    header = (outdir / "eigenvalues.csv").read_text().splitlines()
    assert header[0].startswith("# model=")


def test_residual_certificate_is_recomputed_from_the_matrix(tmp_path, monkeypatch):
    # a spectrum of the chain at another slope passes its own certificate,
    # not the matrix the run built
    other = eigendecompose(build_chain(LatticeSpec(LatticeKind.DIMER_1I, 20, 0.2)))
    monkeypatch.setattr(experiments, "eigendecompose", lambda h: other)
    checks = run(_spectrum_cfg(tmp_path))["checks"]
    assert checks["max_residual"] < RESIDUAL_TOL
    assert checks["residual_certified"] is False


def _changed(h):
    """``h`` with one nonzero changed: one bond of a chain or of a pair
    lattice's chain, or one entry of a dense matrix, off the diagonal in its
    middle row."""
    if isinstance(h, PairMatrix):
        return PairMatrix(_changed(h.chain), h.basis)
    if isinstance(h, ChainMatrix):
        off = h.off.copy()
        off[h.dim // 2] += 1e-3
        return ChainMatrix(h.diag, off, h.basis_labels)
    entries, row = h.entries.copy(), h.dim // 2
    col = next(c for c in np.flatnonzero(entries[row]) if c != row)
    entries[row, col] += 1e-3
    return OperatorMatrix(entries, h.basis_labels)


# (model, how the run's matrix is made from the built one, route)
_ROUTES = [
    ({"kind": "dimer_1i", "n_sites": 20}, lambda h: h, "tridiagonal"),
    ({"kind": "pair_2d_electron", "n_sites": 6}, lambda h: h, "kronecker"),
    # the same lattice as a dense matrix
    ({"kind": "pair_2d_electron", "n_sites": 6},
     lambda h: OperatorMatrix(h.entries, tuple(range(h.dim))), "dense"),
]


@pytest.mark.parametrize("model, relabel, route", _ROUTES, ids=[r[2] for r in _ROUTES])
def test_residual_certificate_reads_one_changed_nonzero(tmp_path, monkeypatch, model,
                                                        relabel, route):
    # decompose the matrix, then change one nonzero: residual_certified is the
    # product against the matrix the run holds, never the route's own formula
    cfg = _spectrum_cfg(tmp_path, **model)
    h = relabel(experiments._build_operator(cfg.model))
    spectrum = eigendecompose(h)
    assert spectrum.solver == route
    monkeypatch.setattr(experiments, "eigendecompose", lambda _: spectrum)
    for matrix, certified in ((h, True), (_changed(h), False)):
        monkeypatch.setattr(experiments, "_build_operator", lambda _, m=matrix: m)
        checks = run(cfg)["checks"]
        assert checks["max_residual"] < RESIDUAL_TOL
        assert checks["residual_certified"] is certified


def test_chain_runs_never_assemble_the_dense_chain(tmp_path, monkeypatch):
    # a chain is its two bands: the eigensolver, the residual certificate
    # and the evolution all take them, and only ChainMatrix.entries
    # assembles the n x n matrix (the Schur stage builds its own LAPACK
    # image); the property is patched on the class, so no name bound at
    # import time can bypass the count
    assembled = []
    original = ChainMatrix.entries.fget
    monkeypatch.setattr(ChainMatrix, "entries",
                        property(lambda h: assembled.append(h.dim) or original(h)))
    for experiment in ("spectrum", "ladder_scan", "evolve1d", "e0_vs_omega"):
        run(load_config(overrides={
            "experiment": experiment,
            "model": {"kind": "dimer_1i", "n_sites": 60, "omega": 0.2},
            "output": {"directory": str(tmp_path / experiment)},
        }))
    assert assembled == []
    build_chain(LatticeSpec(LatticeKind.DIMER_1I, 8, 0.2)).entries
    assert assembled == [8]  # the count sees an assembly


# the paper's two chains: dimer_1i stores one column per conjugate pair,
# the J/J* dimer (zgees) every column
_GUARDED_CHAINS = [{"kind": "dimer_1i", "n_sites": 60, "omega": 0.2},
                   {"kind": "dimer_jjstar", "n_sites": 60, "omega": 0.2, "j_even": [0.5, 0.5]}]


@pytest.mark.parametrize("model", _GUARDED_CHAINS, ids=lambda m: m["kind"])
def test_chain_runs_never_assemble_a_whole_eigenvector_matrix(tmp_path, monkeypatch, model):
    # every pass over V goes through the stored columns: products, column
    # blocks and per-level statistics; only right_eigenvectors assembles V
    assembled = []
    original = ComplexSpectrum.right_eigenvectors.fget
    monkeypatch.setattr(ComplexSpectrum, "right_eigenvectors",
                        property(lambda s: assembled.append(s.dim) or original(s)))
    for experiment, settings in (("spectrum", {}), ("ladder_scan", {}), ("evolve1d", {}),
                                 ("evolve1d", {"project": True}), ("e0_vs_omega", {})):
        checks = run(load_config(overrides={
            "experiment": experiment,
            "model": model,
            "run": settings,
            "output": {"directory": str(tmp_path / f"{experiment}{len(settings)}")},
        }))["checks"]
        assert checks.get("eigensolver", "tridiagonal") == "tridiagonal"
    assert assembled == []
    hopping = complex(*model.get("j_even", (1.0, 0.0)))
    eigendecompose(build_chain(LatticeSpec(model["kind"], 8, 0.2, hopping))).right_eigenvectors
    assert assembled == [8]  # the count sees an assembly


def test_pair_runs_never_assemble_the_dense_pair_lattice(tmp_path, monkeypatch):
    # a pair lattice is its chain and its basis: the eigensolver, the
    # residual certificate and the evolution all take them, and only
    # pair-equivalence, which compares dense matrices, reads PairMatrix.entries
    assembled = []
    original = PairMatrix.entries.fget
    monkeypatch.setattr(PairMatrix, "entries",
                        property(lambda h: assembled.append(h.basis.kind) or original(h)))
    seed = tmp_path / "seed"
    _seed_run(seed, {"n_sites": 12, "omega": 0.2})
    for kind in ("pair_2d_electron", "pair_2d_fermion", "pair_2d_boson"):
        for experiment in ("spectrum", "ladder_scan"):
            run(load_config(overrides={
                "experiment": experiment,
                "model": {"kind": kind, "n_sites": 12, "omega": 0.2},
                "output": {"directory": str(tmp_path / kind / experiment)},
            }))
        _pair_run(seed, tmp_path / kind / "evolve2d", kind=kind, n_sites=12)
    assert assembled == []
    run(load_config(overrides={"experiment": "pair_equivalence",
                               "run": {"sides": [4]},
                               "output": {"directory": str(tmp_path / "equivalence")}}))
    # each lattice once: its swap sectors and its PT commutator take the
    # electron matrix the comparisons hold
    assert collections.Counter(assembled) == {LatticeKind.PAIR_2D_ELECTRON: 1,
                                              LatticeKind.PAIR_2D_FERMION: 1,
                                              LatticeKind.PAIR_2D_BOSON: 1}


@pytest.mark.parametrize("experiment", ["ladder_scan", "evolve1d"])
def test_long_chain_runs_stay_below_10_mb(tmp_path, experiment, traced_peak):
    # the one n x n array is the 8 MB Schur image; the stored columns' row
    # windows are 4.3 MB at n = 1000, the rest a block of columns or an
    # n x T product at a time.  With the stored columns whole (8.0 MB) these
    # runs peaked at 9.4 MB (ladder_scan) and 12.0 MB (evolve1d), with the
    # whole 16 MB V at 18.5 and 19.8 MB, and with the chain held as a dense
    # 16 MB matrix as well at 34.5 and 35.8 MB
    cfg = load_config(overrides={
        "experiment": experiment,
        "model": {"kind": "dimer_1i", "n_sites": 1000, "omega": 0.2},
        "output": {"directory": str(tmp_path)},
    })
    assert traced_peak(lambda: run(cfg))[1] < 10e6


def test_csv_output_is_bit_identical(tmp_path):
    run(_spectrum_cfg(tmp_path / "a"))
    run(_spectrum_cfg(tmp_path / "b"))
    a = (tmp_path / "a" / "out" / "eigenvalues.csv").read_bytes()
    b = (tmp_path / "b" / "out" / "eigenvalues.csv").read_bytes()
    assert a == b


# dimer_1i (dgees, one stored column per conjugate pair) and the J/J* dimer
# (zgees, every column stored), each at the long-chain benchmark's length and
# at one whose last column block is ragged at every width tried
_LAYOUT_CHAINS = {
    "dimer_1i_300": {"kind": "dimer_1i", "n_sites": 300, "omega": 1.0},
    "dimer_1i_1000": {"kind": "dimer_1i", "n_sites": 1000, "omega": 0.2},
    "jjstar_413": {"kind": "dimer_jjstar", "n_sites": 413, "omega": 0.2, "j_even": [0.5, 0.5]},
    "jjstar_1000": {"kind": "dimer_jjstar", "n_sites": 1000, "omega": 0.2,
                    "j_even": [0.5, 0.5]},
}
_PER_COLUMN_TABLES = ("spectrum/eigenvalues.csv", "ladder-scan/rungs.csv",
                      "ladder-scan/ladder.json")


def _chain_tables(out: Path) -> dict:
    """The per-column tables of the ``spectrum`` and ``ladder-scan`` runs
    written under ``out``, by name."""
    return {name: (out / name).read_bytes() for name in _PER_COLUMN_TABLES}


@pytest.mark.parametrize("model", _LAYOUT_CHAINS.values(), ids=_LAYOUT_CHAINS.keys())
def test_per_column_tables_do_not_depend_on_the_block_width(tmp_path, monkeypatch, model):
    # each column's residual, centre and participation ratio rounds by its
    # own values, not by the columns that share its block
    tables = {}
    for block in (16, 64, 256):
        monkeypatch.setattr(spectra, "_BLOCK", block)
        for experiment in ("spectrum", "ladder_scan"):
            out = tmp_path / str(block) / experiment.replace("_", "-")
            run(load_config(overrides={
                "experiment": experiment, "model": model, "output": {"directory": str(out)},
            }))
        tables[block] = _chain_tables(tmp_path / str(block))
    moved = [(block, name) for block in (16, 256) for name in _PER_COLUMN_TABLES
             if tables[block][name] != tables[64][name]]
    assert moved == []


_TWO_RUNS = """
import sys
from starkladder.cli import main
for command in ("spectrum", "ladder-scan"):
    assert main([command, "--config", sys.argv[1], "--out", f"{sys.argv[2]}/{command}"]) == 0
"""


def test_per_column_tables_do_not_depend_on_the_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when it loads, so each count runs in a
    # fresh interpreter
    config = tmp_path / "chain.json"
    config.write_text(json.dumps({"model": _LAYOUT_CHAINS["jjstar_413"]}))
    src = str(Path(starkladder.__file__).resolve().parents[1])
    tables = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", _TWO_RUNS, str(config), str(tmp_path / threads)],
                       capture_output=True, env=env, check=True)
        tables[threads] = _chain_tables(tmp_path / threads)
    moved = [name for name in _PER_COLUMN_TABLES if tables["1"][name] != tables["2"][name]]
    assert moved == []


def test_manifest_reruns_identically(tmp_path):
    first = run(_spectrum_cfg(tmp_path))
    manifest = tmp_path / "out" / "manifest.json"
    assert json.loads(manifest.read_text())["libraries"] == {
        "numpy": np.__version__, "scipy": scipy.__version__
    }
    cfg = load_config(manifest, {"output": {"directory": str(tmp_path / "again")}})
    second = run(cfg)
    assert first["checks"] == second["checks"]
    a = (tmp_path / "out" / "eigenvalues.csv").read_text()
    b = (tmp_path / "again" / "eigenvalues.csv").read_text()
    assert a == b


def test_json_format_tables(tmp_path):
    cfg = load_config(
        overrides={
            "experiment": "spectrum",
            "model": {"n_sites": 12},
            "output": {"directory": str(tmp_path), "format": "json"},
        }
    )
    run(cfg)
    payload = json.loads((tmp_path / "eigenvalues.json").read_text())
    assert payload["columns"][0] == "index"
    assert len(payload["rows"]) == 12


def _row_writer_table(path, meta, columns, rows, fmt):
    """The row-at-a-time table writer that the column writer replaced."""
    def cell(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    if fmt == "json":
        rows = [[v if isinstance(v, str) else v.item() for v in row] for row in rows]
        payload = {"meta": meta, "columns": list(columns), "rows": rows}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    with path.open("w", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else cell(v) for v in row])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_matches_row_writer(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(experiments, "_ROWS_PER_WRITE", 3)  # 7 rows in three blocks
    columns = {
        "k": np.arange(7),
        "x": np.array([0.1 + 0.2, -0.0, np.nan, np.inf, 1e-300, 5e-324, -1.5]),
        "label, quoted": ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", "", " pad "],
    }
    meta = {"model": "dimer_1i", "omega": 0.2, "from_run": "runs/a,b"}
    path = experiments._write_table(tmp_path, "table", meta, columns, fmt)
    reference = tmp_path / f"reference.{fmt}"
    _row_writer_table(reference, meta, list(columns), list(zip(*columns.values())), fmt)
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_reads_a_grid_in_row_order(tmp_path, monkeypatch, fmt):
    # a times x sites table given as (T, n) arrays, t and site as broadcast
    # views that hold one row or one column: each write block reads its rows
    # in row order, as the repeated and tiled columns gave them
    monkeypatch.setattr(experiments, "_ROWS_PER_WRITE", 4)  # 15 rows, blocks across rows of t
    times, probs = np.array([0.0, 0.5, 1.25]), np.arange(15.0).reshape(3, 5) / 7
    grid = {
        "t": np.broadcast_to(times[:, None], probs.shape),
        "site": np.broadcast_to(np.arange(5), probs.shape),
        "value": probs,
    }
    flat = {"t": np.repeat(times, 5), "site": np.tile(np.arange(5), 3), "value": probs.ravel()}
    meta = {"model": "dimer_1i"}
    a = experiments._write_table(tmp_path / "grid", "table", meta, grid, fmt).read_bytes()
    b = experiments._write_table(tmp_path / "flat", "table", meta, flat, fmt).read_bytes()
    assert a == b


def test_ladder_scan_checks(tmp_path):
    cfg = load_config(
        overrides={
            "experiment": "ladder_scan",
            "model": {"n_sites": 60, "omega": 0.2},
            "output": {"directory": str(tmp_path)},
        }
    )
    checks = run(cfg)["checks"]
    assert checks["n_families"] == 2
    assert checks["max_spacing_deviation"] < 1e-6
    assert 0 < checks["max_bulk_spacing_deviation"] <= checks["max_spacing_deviation"]
    assert checks["max_pairing_deviation"] < 1e-6
    ladder = json.loads((tmp_path / "ladder.json").read_text())
    assert len(ladder["families"]) == 2


def test_ladder_scan_has_no_bulk_on_pair_lattices(tmp_path):
    # a pair lattice has no chain interior to centre an eigenvector in
    cfg = load_config(
        overrides={
            "experiment": "ladder_scan",
            "model": {"kind": "pair_2d_boson", "n_sites": 6},
            "output": {"directory": str(tmp_path)},
        }
    )
    assert run(cfg)["checks"]["max_bulk_spacing_deviation"] is None


def test_bulk_spacing_deviation_forms_no_square_temporary(dimer1000, traced_peak):
    # the centres of all columns a block at a time, indexed by family: the
    # copy V[:, members] and its centres peaked at 11.8 MB at n = 1000
    families = detect_ladders(dimer1000, 0.4).families
    deviation, peak = traced_peak(
        lambda: experiments._bulk_spacing_deviation(dimer1000, families, 0.4))
    assert 0 < deviation < 1e-6
    assert peak < 2e6


def test_e0_scan_run(tmp_path):
    cfg = load_config(
        overrides={
            "experiment": "e0_vs_omega",
            "model": {"n_sites": 40, "omega": 0.2},
            "run": {"omega_grid": [0.2, 0.4, 0.6, 0.8]},
            "output": {"directory": str(tmp_path)},
        }
    )
    checks = run(cfg)["checks"]
    assert checks["fit_defined"] and checks["linear_within_1e-2"]
    assert not checks["failures"]


def test_evolve1d_then_evolve2d_chain(tmp_path):
    run1 = tmp_path / "seed"
    cfg1 = load_config(
        overrides={
            "experiment": "evolve1d",
            "model": {"n_sites": 16, "omega": 0.2},
            "run": {"n_steps": 16},
            "output": {"directory": str(run1)},
        }
    )
    checks1 = run(cfg1)["checks"]
    assert checks1["mu_extracted"] is True
    assert (run1 / "mu.json").exists()
    assert (run1 / "probability.csv").exists()

    cfg2 = load_config(
        overrides={
            "experiment": "evolve2d",
            "model": {"kind": "pair_2d_electron", "n_sites": 16, "omega": 0.2},
            "run": {"from_run": str(run1), "n_steps": 24},
            "output": {"directory": str(tmp_path / "pair")},
        }
    )
    checks2 = run(cfg2)["checks"]
    assert set(checks2["fidelity_at_candidates"]) == {
        "pi_over_2omega",
        "pi_over_omega",
    }
    # the chain's basis, and the pair basis V x V built on it
    assert checks1["eigensolver"] == checks2["eigensolver"] == "tridiagonal"
    assert 1.0 <= checks1["eigenvector_condition"] < 1e3
    assert checks2["eigenvector_condition"] == pytest.approx(
        checks1["eigenvector_condition"] ** 2, rel=1e-12
    )
    assert (tmp_path / "pair" / "fidelity.csv").exists()
    assert (tmp_path / "pair" / "snapshots.csv").exists()
    manifest = json.loads((tmp_path / "pair" / "manifest.json").read_text())
    assert manifest["run"] == {
        "from_run": str(run1), "times": None, "t_max": None, "n_steps": 24
    }


def test_evolve2d_requires_seed_run(tmp_path):
    with pytest.raises(ConfigError, match="from_run"):
        load_config(
            overrides={
                "experiment": "evolve2d",
                "model": {"kind": "pair_2d_electron", "n_sites": 8},
                "output": {"directory": str(tmp_path)},
            }
        )


def test_evolve2d_refuses_mismatched_parameters(tmp_path):
    seed = tmp_path / "seed"
    seed.mkdir()
    (seed / "mu.json").write_text(
        json.dumps(
            {
                "kind": "dimer_1i",
                "n_sites": 8,
                "omega": 0.5,
                "e0": [0.0, 0.7],
                "t_late": 40.0,
                "mu": [[1.0, 0.0]] * 8,
            }
        )
    )
    base = {
        "experiment": "evolve2d",
        "run": {"from_run": str(seed)},
        "output": {"directory": str(tmp_path / "out")},
    }
    wrong_omega = load_config(
        overrides={**base, "model": {"kind": "pair_2d_electron", "n_sites": 8, "omega": 0.2}}
    )
    with pytest.raises(ConfigError, match="omega"):
        run(wrong_omega)
    wrong_side = load_config(
        overrides={**base, "model": {"kind": "pair_2d_electron", "n_sites": 12, "omega": 0.5}}
    )
    with pytest.raises(ConfigError, match="profile n_sites 8 does not match 12"):
        run(wrong_side)


def _seed_run(path, model: dict) -> None:
    run(
        load_config(
            overrides={
                "experiment": "evolve1d",
                "model": model,
                "run": {"n_steps": 4},
                "output": {"directory": str(path)},
            }
        )
    )


def _pair_run(seed, out, **model) -> dict:
    return run(
        load_config(
            overrides={
                "experiment": "evolve2d",
                "model": {"kind": "pair_2d_electron", "n_sites": 16, "omega": 0.2,
                          **model},
                "run": {"from_run": str(seed), "n_steps": 8},
                "output": {"directory": str(out)},
            }
        )
    )


def test_evolve2d_refuses_seed_from_another_chain_kind(tmp_path):
    seed = tmp_path / "seed"
    _seed_run(seed, {"kind": "dimer_jjstar", "n_sites": 16, "omega": 0.2,
                     "j_even": [0.8, 0.6]})
    assert json.loads((seed / "mu.json").read_text())["kind"] == "dimer_jjstar"
    with pytest.raises(ConfigError, match="dimer_jjstar"):
        _pair_run(seed, tmp_path / "pair")


@pytest.mark.parametrize("move", [lambda re, im: [re, -im], lambda re, im: [re + 1e-6, im]],
                         ids=["conjugate", "shifted"])
def test_evolve2d_refuses_a_seed_of_another_reference_level(tmp_path, capsys, move):
    # e0 must be the + reference level of the pair lattice's chain: its
    # conjugate, the - level, or a level 1e-6 away is another run's seed
    seed = tmp_path / "seed"
    _seed_run(seed, {"n_sites": 16, "omega": 0.2})
    path = seed / "mu.json"
    data = json.loads(path.read_text())
    data["e0"] = move(*data["e0"])
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = main(["evolve2d", "--model", "pair_2d_electron", "--sites", "16",
                 "--omega", "0.2", "--from-run", str(seed), "--out", str(out)])
    assert code == 2
    assert f"config error: {path}: e0 " in capsys.readouterr().err
    assert not out.exists()


# (mu.json key, value): each key is present but its value is malformed.
# Unchecked, these raise a TypeError (omega None or "0.2"), slip past the
# slope or size comparison (NaN, 8.0 == 8) and run, as any e0 did, or fail
# numerically (NaN or inf in mu)
_BAD_MU_VALUES = [
    ("omega", None),
    ("omega", "0.2"),
    ("omega", float("nan")),
    ("omega", True),
    ("n_sites", 8.0),
    ("n_sites", "8"),
    ("origin_offset", 4.0),
    ("origin_offset", "4"),
    ("kind", None),
    ("kind", ["dimer_1i"]),
    ("mu", [float("nan"), 0.0]),
    ("mu", [True, 0.0]),
    ("mu", [0.5, float("inf")]),
    ("e0", None),
    ("e0", "x"),
    ("e0", [float("nan"), 0.0]),
]


@pytest.mark.parametrize("key, value", _BAD_MU_VALUES,
                         ids=[f"{k}={v!r}" for k, v in _BAD_MU_VALUES])
def test_evolve2d_refuses_malformed_seed_values(tmp_path, capsys, key, value):
    seed = {**_SEED, "origin_offset": 4}
    if key == "mu":
        seed["mu"] = [value, *_SEED["mu"][1:]]
    else:
        seed[key] = value
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(seed))
    code = main(["evolve2d", "--model", "pair_2d_electron", "--sites", "8",
                 "--omega", "0.2", "--from-run", str(path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {path}: {key} must be" in err


def test_evolve2d_refuses_seed_with_another_origin_offset(tmp_path):
    seed = tmp_path / "seed"
    _seed_run(seed, {"n_sites": 16, "omega": 0.2, "origin_offset": 5})
    assert json.loads((seed / "mu.json").read_text())["origin_offset"] == 5
    with pytest.raises(ConfigError, match="origin_offset"):
        _pair_run(seed, tmp_path / "default_offset")
    checks = _pair_run(seed, tmp_path / "same_offset", origin_offset=5)["checks"]
    assert checks["method"] == "spectral"


def test_evolve2d_revives_at_pi_over_omega_on_every_statistics(tmp_path):
    # at L = 40 each statistics revives at pi / omega (F ~ 0.9999), so the
    # matched branch runs; the basis is the chain's V x V, kappa(V)^2
    seed = tmp_path / "seed"
    _seed_run(seed, {"n_sites": 40, "omega": 0.2})
    chain = json.loads((seed / "checks.json").read_text())
    for kind in ("pair_2d_electron", "pair_2d_fermion", "pair_2d_boson"):
        checks = _pair_run(seed, tmp_path / kind, kind=kind, n_sites=40)["checks"]
        assert checks["matched_candidate"] == "pi_over_omega"
        assert checks["pair_period"] == np.pi / 0.2
        assert checks["revival_fidelity"] >= 0.99
        assert checks["eigensolver"] == chain["eigensolver"] == "tridiagonal"
        assert checks["eigenvector_condition"] == chain["eigenvector_condition"] ** 2


def test_evolve2d_revival_is_the_revival_evolve_computes(tmp_path):
    # evolve2d and a plain evolve on the electron lattice (criterion 9's
    # call) run one engine, so they read one fidelity at pi / omega
    seed = tmp_path / "seed"
    _seed_run(seed, {"n_sites": 40, "omega": 0.2})
    checks = _pair_run(seed, tmp_path / "pair", n_sites=40)["checks"]
    mu = np.array([complex(*a) for a in json.loads((seed / "mu.json").read_text())["mu"]])
    h = build_pair_lattice(LatticeSpec(LatticeKind.PAIR_2D_ELECTRON, 40, 0.2))
    times = [0.0, np.pi / (2 * 0.2), np.pi / 0.2]
    revival = fidelity(evolve(h, build_pair_product_state(mu, h.basis), times))[2]
    assert abs(checks["fidelity_at_candidates"]["pi_over_omega"] - revival) <= 1e-15


def test_pair_equivalence_run(tmp_path):
    cfg = load_config(
        overrides={
            "experiment": "pair_equivalence",
            "model": {"omega": 0.2},
            "run": {"sides": [4, 6]},
            "output": {"directory": str(tmp_path)},
        }
    )
    checks = run(cfg)["checks"]
    assert checks["max_oracle_deviation"] < 1e-12
    assert checks["max_sector_deviation"] < 1e-12
    assert checks["max_spectra_merge_deviation"] < 1e-9
    assert checks["max_evolution_distance"] < 1e-8
    assert checks["max_sector_reassembled_distance"] < 1e-8
    assert checks["max_pt_commutator"] < 1e-12


def test_pair_equivalence_evolves_and_splits_each_lattice_once(tmp_path, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "eig", counted("eig", scipy.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    split = counted("sector_decompose", pairmap.sector_decompose)
    for module in (experiments, pairmap):
        monkeypatch.setattr(module, "sector_decompose", split)
    cfg = load_config(overrides={"experiment": "pair_equivalence",
                                 "run": {"sides": [4, 6, 8]},
                                 "output": {"directory": str(tmp_path)}})
    run(cfg)
    # per side three spectra merged; the pair evolution and the expm
    # certificates run no eig
    assert calls == collections.Counter(eig=0, eigvals=9, sector_decompose=3)


@pytest.mark.parametrize("omega", [0.0, 1.2])
def test_evolve1d_extracts_profile_at_slope_extremes(tmp_path, omega):
    # large slopes shrink the default span; the suppression floor must keep
    # extraction valid, and the untilted chain must not divide by zero
    cfg = load_config(
        overrides={
            "experiment": "evolve1d",
            "model": {"n_sites": 60, "omega": omega},
            "run": {"n_steps": 8},
            "output": {"directory": str(tmp_path)},
        }
    )
    checks = run(cfg)["checks"]
    assert checks["mu_extracted"] is True


def test_evolve1d_default_t_late_is_the_projection_time(tmp_path):
    # at n = 40, omega = 1.2 three Bloch periods (7.85) fall short of the
    # suppression floor (8.65): extraction refuses them, accepts
    # projection_time, and the run writes that as its t_late
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=40, omega=1.2)
    h = build_chain(spec)
    spectrum = eigendecompose(h)
    ref = select_reference_state(spectrum, im_sign="+")
    t_late = projection_time(ref.energy, spec.omega)
    late = evolve(h, gaussian_state(0.3, 20, 40), [0.0, t_late], spectrum=spectrum)
    with pytest.raises(ValueError, match="evolve longer"):
        extract_projected_mu(late, ref.energy, 3 * np.pi / spec.omega)
    mu = extract_projected_mu(late, ref.energy, t_late)
    assert np.linalg.norm(mu) == pytest.approx(1.0)
    run(load_config(overrides={
        "experiment": "evolve1d",
        "model": {"n_sites": 40, "omega": 1.2},
        "run": {"n_steps": 8},
        "output": {"directory": str(tmp_path)},
    }))
    assert json.loads((tmp_path / "checks.json").read_text())["t_late"] == t_late


def test_evolve1d_random_state_follows_seed(tmp_path):
    def table(seed, name):
        run(load_config(overrides={
            "experiment": "evolve1d",
            "model": {"n_sites": 12},
            "run": {"initial_state": "random", "seed": seed, "n_steps": 4},
            "output": {"directory": str(tmp_path / name)},
        }))
        return (tmp_path / name / "probability.csv").read_bytes()

    assert table(7, "a") == table(7, "b") != table(8, "c")


@pytest.mark.parametrize("lam, bound", [(0.0, 1e-10), (0.1, None)])
def test_evolve1d_total_probability_drift(tmp_path, lam, bound):
    # written only where lambda = 0: on the Hermitian chain the total
    # probability is conserved; any other rate rescales it on purpose
    run(load_config(overrides={
        "experiment": "evolve1d",
        "model": {"kind": "uniform_1d", "n_sites": 40, "omega": 0.5},
        "run": {"lambda": lam, "n_steps": 16},
        "output": {"directory": str(tmp_path)},
    }))
    drift = json.loads((tmp_path / "checks.json").read_text())["total_probability_drift"]
    if bound is None:
        assert drift is None
    else:
        assert drift < bound


def test_evolve1d_projected_periodicity(tmp_path):
    cfg = load_config(
        overrides={
            "experiment": "evolve1d",
            "model": {"n_sites": 60, "omega": 0.2},
            "run": {"project": True, "n_steps": 32},
            "output": {"directory": str(tmp_path)},
        }
    )
    checks = run(cfg)["checks"]
    assert checks["periodicity_interior_deviation"] < 1e-3
    # the written table, matched sample by sample as a per-sample scan does
    with open(tmp_path / "probability.csv") as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    times, probs = table[::60, 0], table[:, 2].reshape(-1, 60)
    period, win = np.pi / 0.2, interior_slice(60)
    deviations = [
        np.abs(probs[kk, win] - probs[k, win]).max()
        for k, t in enumerate(times)
        for kk in [np.argmin(np.abs(times - (t + period)))]
        if abs(times[kk] - (t + period)) < 1e-9
    ]
    assert deviations and checks["periodicity_interior_deviation"] == max(deviations)


def test_evolve1d_uniform_chain_is_periodic_at_its_bloch_period(tmp_path):
    # the uniform chain's ladder step is omega, so its Bloch period is
    # 2 pi / omega; the dimers' step 2 omega gives pi / omega
    checks = run(load_config(overrides={
        "experiment": "evolve1d",
        "model": {"kind": "uniform_1d", "n_sites": 80, "omega": 0.5},
        "output": {"directory": str(tmp_path)},
    }))["checks"]
    assert checks["periodicity_interior_deviation"] < 1e-10
    with open(tmp_path / "probability.csv") as fh:
        last = fh.readlines()[-1]
    assert float(last.split(",")[0]) == 2 * (2 * np.pi / 0.5)  # two periods


def test_evolve1d_projects_onto_the_family_of_the_reference_level(tmp_path):
    # on the Hermitian J/J* chain with J = 1 the reference level, which sets
    # e0 and lambda's default, is not in the first detected family; the
    # projection keeps the family that holds it, as the t = 0 row shows
    model = {"kind": "dimer_jjstar", "n_sites": 60, "omega": 0.2, "j_even": [1, 0]}
    run(load_config(overrides={"experiment": "evolve1d", "model": model,
                               "run": {"project": True, "n_steps": 8},
                               "output": {"directory": str(tmp_path)}}))
    spectrum = eigendecompose(build_chain(LatticeSpec(LatticeKind.DIMER_JJSTAR, 60, 0.2, 1)))
    ref = select_reference_state(spectrum)
    families = detect_ladders(spectrum, 0.4).families
    assert ref.index not in families[0].member_indices
    family = next(f for f in families if ref.index in f.member_indices)
    psi0 = family_projection(spectrum, family.member_indices, gaussian_state(0.3, 30, 60))
    with open(tmp_path / "probability.csv") as fh:
        rows = [line for line in fh if not line.startswith("#")][1:61]
    first = np.array([float(row.split(",")[2]) for row in rows])
    assert np.abs(first - np.abs(psi0 / np.linalg.norm(psi0)) ** 2).max() < 1e-12


def test_evolve1d_refuses_a_projection_with_no_family_of_the_reference_level(tmp_path):
    # 8 sites hold no ladder of three rungs
    cfg = load_config(overrides={"experiment": "evolve1d", "model": {"n_sites": 8},
                                 "run": {"project": True},
                                 "output": {"directory": str(tmp_path / "out")}})
    with pytest.raises(spectra.ReferenceSelectionError, match="no ladder family holds"):
        run(cfg)
    assert not (tmp_path / "out").exists()

def test_evolve1d_finishes_at_the_exceptional_point(tmp_path):
    # J = i: V is defective, so the run evolves by the integrator and skips
    # the projected profile, whose t_late would be about 7e8
    checks = run(load_config(overrides={
        "experiment": "evolve1d",
        "model": {"kind": "dimer_jjstar", "n_sites": 60, "omega": 0.2, "j_even": [0, 1]},
        "output": {"directory": str(tmp_path)},
    }))["checks"]
    assert checks["method"].startswith("integrator")
    assert checks["e0"][1] > 0 and checks["mu_extracted"] is False
    assert checks["mu_skipped"] == "eigenvector condition inf exceeds 1e+12: an exceptional point"
    assert not (tmp_path / "mu.json").exists()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_list_and_validate(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pair_equivalence" in out
    assert main(["validate", "--experiment", "spectrum", "--sites", "12"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_config_error_exit_code(capsys):
    assert main(["spectrum", "--sites", "1"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["validate", "--experiment", "spectrum", "--sites", "1"]) == 2
    assert main(["spectrum", "--sites", "12", "--lambda", "5"]) == 2
    assert "'lambda' (read by evolve1d)" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # a single-site profile has no fermionic pair component: numerical error;
    # e0 is the chain's reference level, which evolve2d checks first
    seed = tmp_path / "seed"
    seed.mkdir()
    mu = [[0.0, 0.0]] * 8
    mu[2] = [1.0, 0.0]
    e0 = select_reference_state(eigendecompose(build_chain(
        LatticeSpec(LatticeKind.DIMER_1I, 8, 0.2)))).energy
    (seed / "mu.json").write_text(
        json.dumps(
            {
                "kind": "dimer_1i",
                "n_sites": 8,
                "omega": 0.2,
                "e0": [e0.real, e0.imag],
                "t_late": 40.0,
                "mu": mu,
            }
        )
    )
    code = main(
        [
            "evolve2d",
            "--model",
            "pair_2d_fermion",
            "--sites",
            "8",
            "--omega",
            "0.2",
            "--from-run",
            str(seed),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


_SEED = {
    "kind": "dimer_1i",
    "n_sites": 8,
    "omega": 0.2,
    "e0": [0.0, 0.7],
    "t_late": 40.0,
    "mu": [[0.5, 0.0]] * 8,
}


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"kind": "dimer_1i", "mu": [', "invalid JSON"),
        (json.dumps({**_SEED, "mu": [[0.5, 0.0]] * 7}), "mu has 7 amplitudes"),
    ],
    ids=["malformed", "short_mu"],
)
def test_cli_bad_seed_file_is_config_error(tmp_path, capsys, text, message):
    seed = tmp_path / "seed"
    seed.mkdir()
    (seed / "mu.json").write_text(text)
    code = main(
        ["evolve2d", "--model", "pair_2d_boson", "--sites", "8", "--omega", "0.2",
         "--from-run", str(seed), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("omega", ["0", "-0.2"])
def test_cli_evolve2d_refuses_nonpositive_omega(tmp_path, capsys, omega):
    seed = tmp_path / "seed"
    seed.mkdir()
    (seed / "mu.json").write_text(json.dumps({**_SEED, "omega": float(omega)}))
    flags = ["--model", "pair_2d_electron", "--sites", "8", "--omega", omega,
             "--from-run", str(seed)]
    assert main(["validate", "--experiment", "evolve2d", *flags]) == 2
    assert "model.omega" in capsys.readouterr().err
    assert main(["evolve2d", *flags, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "model.omega" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("omega", ["0", "-0.2"])
def test_cli_evolve1d_refuses_projection_without_a_ladder_step(tmp_path, capsys, monkeypatch,
                                                                omega):
    # a ladder family needs a positive step 2 omega: refused at load, as
    # ladder-scan refuses the slope, before any eigensolve
    monkeypatch.setattr(experiments, "eigendecompose", None)
    config = _write(tmp_path, "project.json", {"experiment": "evolve1d",
                                               "run": {"project": True}})
    assert main(["validate", "--config", config, "--omega", omega]) == 2
    assert "config error: run.project " in capsys.readouterr().err
    assert main(["evolve1d", "--config", config, "--omega", omega,
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error: run.project " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["validate", "--config", config, "--omega", "0.2"]) == 0


def test_cli_runs_spectrum(tmp_path, capsys):
    code = main(
        ["spectrum", "--sites", "12", "--omega", "0.3", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "eigenvalues.csv").exists()


# refused after the config loads, in the runner: evolve2d reads a profile
# whose omega is a string (exit 2); evolve1d finds no reference state on 3
# sites (exit 3)
_REFUSED_RUNS = {
    2: ["evolve2d", "--model", "pair_2d_electron", "--sites", "8", "--omega", "0.2",
        "--from-run", "{mu}"],
    3: ["evolve1d", "--sites", "3"],
}


@pytest.mark.parametrize("code", sorted(_REFUSED_RUNS))
def test_refused_runs_leave_the_output_directory_as_it_was(tmp_path, code):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({**_SEED, "omega": "0.2"}))
    command = [arg.format(mu=mu) for arg in _REFUSED_RUNS[code]]
    fresh = tmp_path / "fresh"
    assert main([*command, "--out", str(fresh)]) == code
    assert not fresh.exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "eigenvalues.csv").write_text("earlier\n")
    assert main([*command, "--out", str(kept)]) == code
    assert [p.name for p in kept.iterdir()] == ["eigenvalues.csv"]
    assert (kept / "eigenvalues.csv").read_text() == "earlier\n"


@pytest.mark.parametrize("experiment", ["evolve1d", "e0_vs_omega"])
def test_chain_without_interior_is_refused_at_load(tmp_path, capsys, experiment):
    # the reference state is selected inside interior_slice's window, which
    # 2 sites do not have; refused before the eigensolve, not after it
    errors = validate(overrides={"experiment": experiment, "model": {"n_sites": 2}})
    assert len(errors) == 1 and errors[0].startswith("model.n_sites: ")
    assert "no interior for n = 2" in errors[0]
    out = tmp_path / "out"
    assert main([experiment.replace("_", "-"), "--sites", "2", "--out", str(out)]) == 2
    assert "config error: model.n_sites: " in capsys.readouterr().err
    assert not out.exists()
    assert validate(overrides={"experiment": experiment, "model": {"n_sites": 3}}) == []
