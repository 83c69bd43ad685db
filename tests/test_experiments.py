import collections
import csv
import json

import numpy as np
import pytest
import scipy.linalg

import starkladder.experiments as experiments
import starkladder.pairmap as pairmap
from starkladder.cli import main
from starkladder.experiments import (
    EXPERIMENTS,
    ConfigError,
    list_experiments,
    load_config,
    run,
    validate,
)
from starkladder.lattices import LatticeKind


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


def test_csv_output_is_bit_identical(tmp_path):
    run(_spectrum_cfg(tmp_path / "a"))
    run(_spectrum_cfg(tmp_path / "b"))
    a = (tmp_path / "a" / "out" / "eigenvalues.csv").read_bytes()
    b = (tmp_path / "b" / "out" / "eigenvalues.csv").read_bytes()
    assert a == b


def test_manifest_reruns_identically(tmp_path):
    first = run(_spectrum_cfg(tmp_path))
    manifest = tmp_path / "out" / "manifest.json"
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
    with pytest.raises(ConfigError, match="side"):
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


def test_evolve2d_refuses_seed_with_another_origin_offset(tmp_path):
    seed = tmp_path / "seed"
    _seed_run(seed, {"n_sites": 16, "omega": 0.2, "origin_offset": 5})
    assert json.loads((seed / "mu.json").read_text())["origin_offset"] == 5
    with pytest.raises(ConfigError, match="origin_offset"):
        _pair_run(seed, tmp_path / "default_offset")
    checks = _pair_run(seed, tmp_path / "same_offset", origin_offset=5)["checks"]
    assert checks["method"] == "spectral"


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
    # per side: electron, its oracle and the two sectors; three spectra merged
    assert calls == {"eig": 12, "eigvals": 9, "sector_decompose": 3}


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
    # a single-site profile has no fermionic pair component: numerical error
    seed = tmp_path / "seed"
    seed.mkdir()
    mu = [[0.0, 0.0]] * 8
    mu[2] = [1.0, 0.0]
    (seed / "mu.json").write_text(
        json.dumps(
            {
                "kind": "dimer_1i",
                "n_sites": 8,
                "omega": 0.2,
                "e0": [0.0, 0.7],
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


def test_cli_runs_spectrum(tmp_path, capsys):
    code = main(
        ["spectrum", "--sites", "12", "--omega", "0.3", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "eigenvalues.csv").exists()
