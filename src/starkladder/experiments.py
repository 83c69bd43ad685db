"""Named, configured experiment runs with persisted inputs and outputs.

Each experiment resolves a config (file values overridden by explicit
flags), writes ``manifest.json`` (the resolved config, re-runnable as a
config file), one or more result tables (long-format CSV or JSON), and
``checks.json`` summarizing invariant verdicts.  Identical configs produce
bit-identical tables on the same platform: the eigensolver output is made
deterministic by the fixed eigenvector phase convention.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    PROJECTION_SUPPRESSION,
    build_pair_product_state,
    dirac_probability,
    evolve,
    evolve_pair,
    extract_projected_mu,
    family_projection,
    fidelity,
    gaussian_state,
    site_state,
)
from .lattices import (
    LatticeKind,
    LatticeSpec,
    build_chain,
    build_pair_lattice,
    interior_slice,
    pt_commutator_deviation,
)
from .pairmap import (
    lift_1d_evolution,
    oracle_pair_hamiltonian,
    pair_basis,
    sector_decompose,
    sector_reassembled_distance,
)
from .spectra import (
    DETECTION_TOL,
    ReferenceSelectionError,
    conjugation_closure_deviation,
    detect_ladders,
    eigendecompose,
    localization_center,
    participation_ratio,
    scan_E0_vs_omega,
    select_reference_state,
    spectrum_multiset_distance,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunConfig",
    "OutputConfig",
    "load_config",
    "validate",
    "list_experiments",
    "run",
    "EXPERIMENT_NAMES",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


_MODEL_KEYS = {"kind", "n_sites", "omega", "j_even", "j_odd", "origin_offset"}
_MANIFEST_META_KEYS = {"version", "generated_files"}

EXPERIMENT_NAMES = (
    "spectrum",
    "ladder_scan",
    "e0_vs_omega",
    "evolve1d",
    "evolve2d",
    "pair_equivalence",
)


@dataclass(frozen=True)
class RunConfig:
    """Run-section parameters; every field has a usable default.

    ``lam`` (JSON key ``lambda``) defaults to the computed growth rate
    Im E0 of the selected reference state (0 for real spectra); ``t_late``
    to ``max(10 / (2 Im E0), 3 pi / omega)``; ``expected_spacing`` to the
    ladder step of the model (unit-cell size times omega); ``t_max`` to
    two rescaled periods ``2 pi / omega``.
    """

    times: tuple | None = None
    t_max: float | None = None
    n_steps: int = 64
    lam: float | None = None
    alpha: float = 0.3
    j0: int | None = None
    initial_state: str = "gaussian"  # gaussian | site | random
    project: bool = False  # keep only the detected im_sign ladder family
    im_sign: str = "+"
    t_late: float | None = None
    seed: int = 0
    expected_spacing: float | None = None
    tol: float = DETECTION_TOL
    omega_grid: tuple | None = None
    sides: tuple = (4, 6, 8)
    from_run: str | None = None


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None  # default: runs/<experiment>
    format: str = "csv"  # csv | json


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: LatticeSpec
    run: RunConfig = field(default_factory=RunConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self) -> dict:
        model = {
            "kind": self.model.kind.value,
            "n_sites": self.model.n_sites,
            "omega": self.model.omega,
            "j_even": [self.model.j_even.real, self.model.j_even.imag],
            "j_odd": [self.model.j_odd.real, self.model.j_odd.imag],
            "origin_offset": self.model.origin_offset,
        }
        run = {}
        for f in fields(RunConfig):
            key = "lambda" if f.name == "lam" else f.name
            value = getattr(self.run, f.name)
            if isinstance(value, tuple):
                value = list(value)
            run[key] = value
        return {
            "experiment": self.experiment,
            "model": model,
            "run": run,
            "output": {"directory": self.output.directory, "format": self.output.format},
        }


def _parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float, complex)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"{where}: cannot parse complex value {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{where}: expected number, 're+imj' string, or [re, im]")


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _parse_model(section: dict) -> LatticeSpec:
    _reject_unknown(section, _MODEL_KEYS, "model")
    kw = dict(section)
    try:
        kw["kind"] = LatticeKind(kw.get("kind", "dimer_1i"))
    except ValueError as exc:
        raise ConfigError(
            f"model.kind: {kw.get('kind')!r} is not one of "
            f"{[k.value for k in LatticeKind]}"
        ) from exc
    for key in ("j_even", "j_odd"):
        if kw.get(key) is not None:
            kw[key] = _parse_complex(kw[key], f"model.{key}")
    kw.setdefault("n_sites", 60)
    kw.setdefault("omega", 0.2)
    try:
        return LatticeSpec(**kw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def _parse_run(section: dict) -> RunConfig:
    section = dict(section)
    if "lambda" in section:
        section["lam"] = section.pop("lambda")
    allowed = {f.name for f in fields(RunConfig)}
    _reject_unknown(section, allowed, "run")
    for key in ("times", "omega_grid", "sides"):
        if section.get(key) is not None:
            section[key] = tuple(section[key])
    try:
        cfg = RunConfig(**section)
    except TypeError as exc:
        raise ConfigError(f"run: {exc}") from exc
    if cfg.initial_state not in ("gaussian", "site", "random"):
        raise ConfigError(
            f"run.initial_state: {cfg.initial_state!r} not in gaussian|site|random"
        )
    if cfg.im_sign not in ("+", "-"):
        raise ConfigError(f"run.im_sign: {cfg.im_sign!r} must be '+' or '-'")
    if cfg.n_steps < 1:
        raise ConfigError("run.n_steps must be >= 1")
    if cfg.tol <= 0:
        raise ConfigError("run.tol must be positive")
    if cfg.alpha <= 0:
        raise ConfigError("run.alpha must be positive")
    if cfg.times is not None:
        times = list(cfg.times)
        if not times or times[0] != 0 or any(
            b <= a for a, b in zip(times, times[1:])
        ):
            raise ConfigError("run.times must start at 0 and ascend strictly")
    return cfg


def _parse_output(section: dict) -> OutputConfig:
    _reject_unknown(section, {"directory", "format"}, "output")
    cfg = OutputConfig(**section)
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"output.format: {cfg.format!r} must be csv or json")
    return cfg


def _read_json_object(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def load_config(
    path: str | Path | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Resolve a config from an optional JSON file plus override values.

    ``overrides`` uses the same nesting as the file
    (``{"model": {...}, "run": {...}, ...}``) and wins over file values.
    A previously written ``manifest.json`` is accepted directly (its
    ``version`` / ``generated_files`` keys are ignored).
    """
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        data = _read_json_object(p)
    data = {k: v for k, v in data.items() if k not in _MANIFEST_META_KEYS}
    merged = {k: dict(v) if isinstance(v, dict) else v for k, v in data.items()}
    for key, section in (overrides or {}).items():
        if isinstance(section, dict):
            merged.setdefault(key, {})
            merged[key].update({k: v for k, v in section.items() if v is not None})
        elif section is not None:
            merged[key] = section

    _reject_unknown(merged, {"experiment", "model", "run", "output"}, "config")
    experiment = merged.get("experiment")
    if experiment not in EXPERIMENT_NAMES:
        raise ConfigError(
            f"experiment: {experiment!r} is not one of {list(EXPERIMENT_NAMES)}"
        )
    return ExperimentConfig(
        experiment=experiment,
        model=_parse_model(merged.get("model", {})),
        run=_parse_run(merged.get("run", {})),
        output=_parse_output(merged.get("output", {})),
    )


def validate(path: str | Path | None = None, overrides: dict | None = None) -> list:
    """Schema validation without execution; returns a list of error strings."""
    try:
        load_config(path, overrides)
    except ConfigError as exc:
        return [str(exc)]
    return []


def list_experiments() -> list:
    """Catalog of available experiments and what each one demonstrates."""
    return [
        {
            "name": "spectrum",
            "demonstrates": "complex eigenvalues with residual certificates and "
            "localization data for any supported lattice",
            "outputs": ["eigenvalues table"],
        },
        {
            "name": "ladder_scan",
            "demonstrates": "equally spaced complex ladder families and conjugate "
            "pairing in a tilted-chain spectrum",
            "outputs": ["ladder report", "rung table"],
        },
        {
            "name": "e0_vs_omega",
            "demonstrates": "linearity of the reference energy's real part in the "
            "tilt slope, and eigenfunction narrowing as the slope grows",
            "outputs": ["scan table with linear fit"],
        },
        {
            "name": "evolve1d",
            "demonstrates": "single-particle Bloch oscillation under rate rescaling: "
            "periodic at the matched growth rate, damped above it; also serializes "
            "the long-time projected profile for 2D seeding",
            "outputs": ["site probability table", "projected profile"],
        },
        {
            "name": "evolve2d",
            "demonstrates": "two-particle Bloch oscillation on the square-lattice "
            "encoding: probability snapshots over one period and the fidelity "
            "revival that identifies the pair period",
            "outputs": ["fidelity table", "probability snapshots"],
        },
        {
            "name": "pair_equivalence",
            "demonstrates": "entrywise certification of the 2D pair lattices "
            "against a second-quantized oracle, sector decomposition, and evolution "
            "equivalence",
            "outputs": ["equivalence report"],
        },
    ]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _json_cell(value):
    if isinstance(value, str):
        return value
    return value.item() if hasattr(value, "item") else value


def _write_table(outdir: Path, name: str, meta: dict, columns, rows, fmt: str) -> Path:
    if fmt == "json":
        path = outdir / f"{name}.json"
        payload = {
            "meta": meta,
            "columns": list(columns),
            "rows": [[_json_cell(v) for v in row] for row in rows],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
    path = outdir / f"{name}.csv"
    with path.open("w", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])
    return path


def _write_json(outdir: Path, name: str, payload: dict) -> Path:
    path = outdir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _model_meta(cfg: ExperimentConfig) -> dict:
    return {
        "model": cfg.model.kind.value,
        "n_sites": cfg.model.n_sites,
        "omega": cfg.model.omega,
    }


def _build_operator(model: LatticeSpec):
    return build_pair_lattice(model) if model.kind.is_pair else build_chain(model)


def _unit_cell(kind: LatticeKind) -> int:
    return 1 if kind is LatticeKind.UNIFORM_1D else 2


def _resolved_times(run: RunConfig, omega: float, default_span: float) -> np.ndarray:
    if run.times is not None:
        return np.asarray(run.times, dtype=float)
    t_max = default_span if run.t_max is None else float(run.t_max)
    return np.linspace(0.0, t_max, run.n_steps + 1)


def _initial_state(run: RunConfig, dim: int) -> np.ndarray:
    j0 = dim // 2 if run.j0 is None else int(run.j0)
    if run.initial_state == "gaussian":
        return gaussian_state(run.alpha, j0, dim)
    if run.initial_state == "site":
        return site_state(j0, dim)
    rng = np.random.default_rng(run.seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _run_spectrum(cfg: ExperimentConfig, outdir: Path) -> tuple:
    h = _build_operator(cfg.model)
    spectrum = eigendecompose(h)
    is_chain = cfg.model.kind.is_chain
    columns = ["index", "re", "im", "residual"]
    if is_chain:
        columns += ["center", "participation_ratio"]
    rows = []
    for k in range(spectrum.dim):
        row = [
            k,
            spectrum.eigenvalues[k].real,
            spectrum.eigenvalues[k].imag,
            spectrum.residuals[k],
        ]
        if is_chain:
            amps = spectrum.right_eigenvectors[:, k]
            row += [localization_center(amps), participation_ratio(amps)]
        rows.append(row)
    files = [
        _write_table(
            outdir, "eigenvalues", _model_meta(cfg), columns, rows, cfg.output.format
        )
    ]
    checks = {
        "dim": spectrum.dim,
        "max_residual": float(spectrum.residuals.max()),
        "residual_certified": bool(spectrum.residuals.max() < 1e-9),
        "conjugation_closure_deviation": conjugation_closure_deviation(
            spectrum.eigenvalues
        ),
    }
    return files, checks


def _run_ladder_scan(cfg: ExperimentConfig, outdir: Path) -> tuple:
    h = _build_operator(cfg.model)
    spectrum = eigendecompose(h)
    spacing = cfg.run.expected_spacing
    if spacing is None:
        spacing = _unit_cell(cfg.model.kind) * cfg.model.omega
    if spacing <= 0:
        raise ConfigError("run.expected_spacing must resolve to a positive value")
    report = detect_ladders(spectrum, spacing, cfg.run.tol)
    rows = []
    for fam_id, fam in enumerate(report.families):
        for rung, idx in enumerate(fam.member_indices):
            e = spectrum.eigenvalues[idx]
            rows.append([fam_id, rung, idx, e.real, e.imag])
    files = [
        _write_table(
            outdir,
            "rungs",
            {**_model_meta(cfg), "expected_spacing": spacing, "tol": cfg.run.tol},
            ["family", "rung", "index", "re", "im"],
            rows,
            cfg.output.format,
        ),
        _write_json(outdir, "ladder", report.to_dict()),
    ]
    checks = {
        "n_families": len(report.families),
        "max_spacing_deviation": max(
            (f.max_spacing_deviation for f in report.families), default=None
        ),
        "max_pairing_deviation": report.max_pairing_deviation,
        "n_unassigned": len(report.unassigned),
        "diagnostics": list(report.diagnostics),
    }
    return files, checks


def _run_e0_vs_omega(cfg: ExperimentConfig, outdir: Path) -> tuple:
    if not cfg.model.kind.is_chain:
        raise ConfigError("e0_vs_omega runs on 1D chains")
    grid = cfg.run.omega_grid
    if grid is None:
        grid = tuple(np.round(np.arange(0.2, 1.2 + 1e-9, 0.1), 10))
    scan = scan_E0_vs_omega(cfg.model, grid, im_sign=cfg.run.im_sign)
    rows = [
        [
            scan.omegas[i],
            scan.energies[i].real,
            scan.energies[i].imag,
            scan.centers[i],
            scan.participation_ratios[i],
        ]
        for i in range(scan.omegas.size)
    ]
    files = [
        _write_table(
            outdir,
            "scan",
            {"model": cfg.model.kind.value, "n_sites": cfg.model.n_sites},
            ["omega", "re_e0", "im_e0", "center", "participation_ratio"],
            rows,
            cfg.output.format,
        )
    ]
    checks = {
        "slope": scan.slope,
        "intercept": scan.intercept,
        "max_fit_residual": scan.max_fit_residual,
        "fit_defined": scan.slope is not None,
        "linear_within_1e-2": (
            None if scan.max_fit_residual is None else bool(scan.max_fit_residual < 1e-2)
        ),
        "failures": [list(f) for f in scan.failures],
    }
    return files, checks


def _run_evolve1d(cfg: ExperimentConfig, outdir: Path) -> tuple:
    if not cfg.model.kind.is_chain:
        raise ConfigError("evolve1d runs on 1D chains; use evolve2d for pair lattices")
    model = cfg.model
    h = build_chain(model)
    spectrum = eigendecompose(h)
    ref = select_reference_state(spectrum, im_sign=cfg.run.im_sign)
    im_e0 = ref.energy.imag
    lam = im_e0 if cfg.run.lam is None else float(cfg.run.lam)

    period = math.pi / model.omega if model.omega > 0 else None
    default_span = 2 * period if period else 10.0
    times = _resolved_times(cfg.run, model.omega, default_span)
    psi0 = _initial_state(cfg.run, model.n_sites)
    if cfg.run.project:
        spacing = _unit_cell(model.kind) * model.omega
        report = detect_ladders(spectrum, spacing, cfg.run.tol)
        sign = 1.0 if cfg.run.im_sign == "+" else -1.0
        fams = [
            f
            for f in report.families
            if sign * f.reference_energy.imag >= -1e-12
        ]
        if not fams:
            raise ReferenceSelectionError(
                f"no ladder family with Im sign '{cfg.run.im_sign}' to project onto"
            )
        psi0 = family_projection(spectrum, fams[0].member_indices, psi0)
        nrm = np.linalg.norm(psi0)
        if nrm < 1e-12:
            raise ValueError("initial state has no weight in the selected family")
        psi0 = psi0 / nrm
    series = evolve(h, psi0, times, spectrum=spectrum)
    probs = dirac_probability(series, lam)

    meta = {
        **_model_meta(cfg),
        "lambda": lam,
        "initial_state": cfg.run.initial_state,
        "projected": cfg.run.project,
        "alpha": cfg.run.alpha,
    }
    rows = [
        [t, site, probs[k, site]]
        for k, t in enumerate(series.times)
        for site in range(model.n_sites)
    ]
    files = [
        _write_table(outdir, "probability", meta, ["t", "site", "value"], rows,
                     cfg.output.format)
    ]

    checks = {
        "method": series.method,
        "lambda": lam,
        "e0": [ref.energy.real, ref.energy.imag],
        "reference_center": ref.localization_center,
        "participation_ratio": ref.participation_ratio,
        "periodicity_interior_deviation": None,
        "total_probability_drift": None,
        "mu_extracted": False,
    }
    if period is not None:
        win = interior_slice(model.n_sites)
        dev = None
        for k, t in enumerate(series.times):
            kk = np.argmin(np.abs(series.times - (t + period)))
            if abs(series.times[kk] - (t + period)) < 1e-9:
                d = float(np.abs(probs[kk, win] - probs[k, win]).max())
                dev = d if dev is None else max(dev, d)
        checks["periodicity_interior_deviation"] = dev
    if lam == 0.0:
        checks["total_probability_drift"] = float(np.abs(probs.sum(axis=1) - 1.0).max())

    if im_e0 > 0:
        t_late = cfg.run.t_late
        if t_late is None:
            # heuristic span, floored so the decaying sector is suppressed
            # enough for extraction to accept the snapshot
            t_late = max(
                10.0 / (2.0 * im_e0),
                math.log(PROJECTION_SUPPRESSION) / (2.0 * im_e0) * 1.05,
            )
            if model.omega > 0:
                t_late = max(t_late, 3.0 * math.pi / model.omega)
        late = evolve(h, psi0, np.array([0.0, float(t_late)]), spectrum=spectrum)
        mu = extract_projected_mu(late, ref.energy, t_late)
        files.append(
            _write_json(
                outdir,
                "mu",
                {
                    "kind": model.kind.value,
                    "n_sites": model.n_sites,
                    "omega": model.omega,
                    "origin_offset": model.origin_offset,
                    "e0": [ref.energy.real, ref.energy.imag],
                    "t_late": float(t_late),
                    "mu": [[a.real, a.imag] for a in mu],
                },
            )
        )
        checks["mu_extracted"] = True
        checks["t_late"] = float(t_late)
    return files, checks


def _load_mu(from_run: str) -> dict:
    path = Path(from_run)
    if path.is_dir():
        path = path / "mu.json"
    if not path.exists():
        raise ConfigError(
            f"run.from_run: no serialized profile at {path}; "
            "run evolve1d first (non-Hermitian model) or point at its directory"
        )
    data = _read_json_object(path)
    for key in ("mu", "kind", "omega", "n_sites", "e0"):
        if key not in data:
            raise ConfigError(f"{path}: missing key {key!r}")
    try:
        data["mu"] = np.array([complex(re, im) for re, im in data["mu"]])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: mu must be a list of [re, im] pairs") from exc
    if data["mu"].size != data["n_sites"]:
        raise ConfigError(
            f"{path}: mu has {data['mu'].size} amplitudes for n_sites {data['n_sites']}"
        )
    return data


def _run_evolve2d(cfg: ExperimentConfig, outdir: Path) -> tuple:
    if not cfg.model.kind.is_pair:
        raise ConfigError("evolve2d needs a pair lattice model kind")
    if cfg.run.from_run is None:
        raise ConfigError(
            "evolve2d requires run.from_run: a prior evolve1d run directory "
            "providing the projected profile (never recomputed silently)"
        )
    payload = _load_mu(cfg.run.from_run)
    side = cfg.model.n_sites
    if payload["kind"] != LatticeKind.DIMER_1I.value:
        raise ConfigError(
            f"profile comes from a {payload['kind']} chain; pair lattices are "
            f"built on {LatticeKind.DIMER_1I.value}"
        )
    if payload["n_sites"] != side:
        raise ConfigError(
            f"profile length {payload['n_sites']} does not match model side {side}"
        )
    if abs(payload["omega"] - cfg.model.omega) > 1e-12:
        raise ConfigError(
            f"profile omega {payload['omega']} does not match model omega "
            f"{cfg.model.omega}; refusing to mix parameters"
        )
    offset = payload.get("origin_offset", side // 2)
    if offset != cfg.model.origin_offset:
        raise ConfigError(
            f"profile origin_offset {offset} does not match model origin_offset "
            f"{cfg.model.origin_offset}; refusing to mix parameters"
        )
    basis = pair_basis(cfg.model.kind, side)
    phi0 = build_pair_product_state(payload["mu"], basis)
    # the pair lattice is the Kronecker sum of this chain with itself
    chain = build_chain(replace(cfg.model, kind=LatticeKind.DIMER_1I))

    omega = cfg.model.omega
    candidates = {
        "pi_over_2omega": math.pi / (2 * omega),
        "pi_over_omega": math.pi / omega,
    }
    default_span = 1.1 * candidates["pi_over_omega"]
    times = _resolved_times(cfg.run, omega, default_span)
    snapshot_fracs = (0.0, 0.25, 0.5, 0.75, 1.0)
    extra = [f * t for t in candidates.values() for f in snapshot_fracs]
    times = np.unique(np.concatenate([times, list(candidates.values()), extra]))

    series = evolve_pair(chain, phi0, basis, times)
    f_curve = fidelity(series)

    fid_at = {}
    for name, t in candidates.items():
        k = int(np.argmin(np.abs(series.times - t)))
        fid_at[name] = float(f_curve[k])
    matched = None
    for name in ("pi_over_2omega", "pi_over_omega"):
        if fid_at[name] >= 0.99:
            matched = name
            break
    t_pair = candidates[matched] if matched else candidates["pi_over_omega"]

    meta = {**_model_meta(cfg), "from_run": cfg.run.from_run}
    files = [
        _write_table(
            outdir,
            "fidelity",
            meta,
            ["t", "value"],
            [[t, f] for t, f in zip(series.times, f_curve)],
            cfg.output.format,
        )
    ]
    probs = dirac_probability(series, 0.0)
    rows = []
    for frac in snapshot_fracs:
        k = int(np.argmin(np.abs(series.times - frac * t_pair)))
        t = series.times[k]
        for idx, (x, y) in enumerate(basis.labels):
            rows.append([t, x, y, probs[k, idx]])
    files.append(
        _write_table(
            outdir,
            "snapshots",
            {**meta, "period": t_pair},
            ["t", "x", "y", "value"],
            rows,
            cfg.output.format,
        )
    )
    checks = {
        "method": series.method,
        "pair_period_candidates": {k: float(v) for k, v in candidates.items()},
        "fidelity_at_candidates": fid_at,
        "matched_candidate": matched,
        "pair_period": float(t_pair),
        "revival_fidelity": fid_at[matched] if matched else None,
        "max_fidelity_after_t0": float(f_curve[series.times > 1e-9].max()),
    }
    return files, checks


def _run_pair_equivalence(cfg: ExperimentConfig, outdir: Path) -> tuple:
    omega = cfg.model.omega
    rng = np.random.default_rng(cfg.run.seed)
    per_side = []
    for side in cfg.run.sides:
        side = int(side)
        entry = {"side": side, "omega": omega}
        lattices = {
            kind: build_pair_lattice(LatticeSpec(kind=kind, n_sites=side, omega=omega))
            for kind in LatticeKind
            if kind.is_pair
        }
        oracles = {kind: oracle_pair_hamiltonian(kind, side, omega) for kind in lattices}
        for kind, built in lattices.items():
            entry[f"oracle_deviation_{kind.value}"] = float(
                np.abs(built.entries - oracles[kind].entries).max()
            )
        electron = lattices[LatticeKind.PAIR_2D_ELECTRON]
        h_sym, h_anti = sector_decompose(electron)
        entry["sector_deviation_symmetric"] = float(
            np.abs(h_sym.entries - lattices[LatticeKind.PAIR_2D_BOSON].entries).max()
        )
        entry["sector_deviation_antisymmetric"] = float(
            np.abs(h_anti.entries - lattices[LatticeKind.PAIR_2D_FERMION].entries).max()
        )
        merged = np.concatenate(
            [np.linalg.eigvals(h_sym.entries), np.linalg.eigvals(h_anti.entries)]
        )
        entry["spectra_merge_deviation"] = spectrum_multiset_distance(
            np.linalg.eigvals(electron.entries), merged
        )
        entry["pt_commutator"] = pt_commutator_deviation(electron)

        times = np.linspace(0.0, 4.0, 5)
        psi0 = rng.normal(size=electron.dim) + 1j * rng.normal(size=electron.dim)
        psi0 /= np.linalg.norm(psi0)
        report = lift_1d_evolution(
            psi0, electron, oracles[LatticeKind.PAIR_2D_ELECTRON], times
        )
        entry["evolution_distance"] = report.max_state_distance
        entry["sector_reassembled_distance"] = sector_reassembled_distance(
            electron, psi0, times
        )
        per_side.append(entry)

    files = [_write_json(outdir, "equivalence", {"sides": per_side})]
    worst = lambda key: max(e[key] for e in per_side)  # noqa: E731
    checks = {
        "max_oracle_deviation": max(
            e[k] for e in per_side for k in e if k.startswith("oracle_deviation")
        ),
        "max_sector_deviation": max(
            worst("sector_deviation_symmetric"), worst("sector_deviation_antisymmetric")
        ),
        "max_spectra_merge_deviation": worst("spectra_merge_deviation"),
        "max_evolution_distance": worst("evolution_distance"),
        "max_pt_commutator": worst("pt_commutator"),
    }
    return files, checks


_RUNNERS = {
    "spectrum": _run_spectrum,
    "ladder_scan": _run_ladder_scan,
    "e0_vs_omega": _run_e0_vs_omega,
    "evolve1d": _run_evolve1d,
    "evolve2d": _run_evolve2d,
    "pair_equivalence": _run_pair_equivalence,
}


def run(cfg: ExperimentConfig) -> dict:
    """Execute one experiment; returns the written artifact paths.

    Writes ``manifest.json`` (re-runnable resolved config), the result
    tables, and ``checks.json`` into the output directory.
    """
    outdir = Path(cfg.output.directory or f"runs/{cfg.experiment}")
    outdir.mkdir(parents=True, exist_ok=True)
    files, checks = _RUNNERS[cfg.experiment](cfg, outdir)
    checks_path = _write_json(outdir, "checks", checks)
    manifest = cfg.to_dict()
    manifest["version"] = __version__
    manifest["generated_files"] = sorted(
        p.name for p in [*files, checks_path]
    ) + ["manifest.json"]
    manifest_path = _write_json(outdir, "manifest", manifest)
    return {
        "directory": str(outdir),
        "files": [str(p) for p in [*files, checks_path, manifest_path]],
        "checks": checks,
    }
