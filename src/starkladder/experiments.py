"""Named, configured experiment runs with persisted inputs and outputs.

Each experiment resolves a config (file values overridden by explicit
flags), writes ``manifest.json`` (the resolved config, re-runnable as a
config file), one or more result tables (long-format CSV or JSON), and
``checks.json`` summarizing invariant verdicts.  Identical configs produce
bit-identical tables on the same platform: the eigensolver output is made
deterministic by the fixed eigenvector phase convention.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, NamedTuple

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
    in_window,
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
    "Experiment",
    "ExperimentConfig",
    "OutputConfig",
    "load_config",
    "validate",
    "list_experiments",
    "run",
    "EXPERIMENTS",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


_MODEL_KEYS = ("kind", "n_sites", "omega", "j_even", "j_odd", "origin_offset")
_MANIFEST_META_KEYS = {"version", "generated_files"}
_CHAINS = [k for k in LatticeKind if k.is_chain]
_PAIRS = [k for k in LatticeKind if k.is_pair]


def _ascending(values) -> bool:
    return len(values) > 0 and all(b > a for a, b in zip(values, values[1:]))


def _real(value) -> bool:
    """A finite real number; JSON ``true``/``false`` are not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _reals(values) -> bool:
    return isinstance(values, tuple) and all(_real(v) for v in values)


def _count(value) -> bool:
    """A non-negative integer."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _ladder_spacing(expected_spacing, model: LatticeSpec) -> float:
    """The given spacing, or the model's ladder step (unit cell times omega)."""
    if expected_spacing is not None:
        return expected_spacing
    return (1 if model.kind is LatticeKind.UNIFORM_1D else 2) * model.omega


def _pair_specs(side: int, omega: float) -> dict:
    return {kind: LatticeSpec(kind=kind, n_sites=side, omega=omega) for kind in _PAIRS}


# Every run key: JSON name -> (default, check, what the check asks of a value).
# A check takes (value, model) and may raise ValueError naming the fault.  A
# None default resolves at run time: ``lambda`` to Im E0 of the reference
# state, ``t_late`` to ``max(10 / (2 Im E0), 3 pi / omega)``, ``t_max`` to the
# experiment's span, ``j0`` to the middle site, ``expected_spacing`` to the
# model's ladder step.  ``project`` keeps only the detected im_sign family.
_RUN_KEYS = {
    "times": (None, lambda v, m: v is None or _reals(v) and _ascending(v) and v[0] == 0,
              "must be finite numbers that start at 0 and ascend strictly"),
    "t_max": (None, lambda v, m: v is None or _real(v) and v > 0,
              "must be a positive finite number"),
    "n_steps": (64, lambda v, m: _count(v) and v >= 1, "must be an integer >= 1"),
    "lambda": (None, lambda v, m: v is None or _real(v), "must be a finite number"),
    "alpha": (0.3, lambda v, m: _real(v) and v > 0, "must be a positive finite number"),
    "j0": (None, lambda v, m: v is None or _count(v) and v < m.n_sites,
           "must be a site of the chain, an integer 0 <= j0 < n_sites"),
    "initial_state": ("gaussian", lambda v, m: v in ("gaussian", "site", "random"),
                      "must be gaussian, site or random"),
    "project": (False, lambda v, m: isinstance(v, bool), "must be true or false"),
    "im_sign": ("+", lambda v, m: v in ("+", "-"), "must be '+' or '-'"),
    "t_late": (None, lambda v, m: v is None or _real(v) and v > 0,
               "must be a positive finite number"),
    "seed": (0, lambda v, m: _count(v), "must be an integer >= 0"),
    "expected_spacing": (None,
                         lambda v, m: (v is None or _real(v)) and _ladder_spacing(v, m) > 0,
                         "must be a finite number and resolve to a positive value"),
    "tol": (DETECTION_TOL, lambda v, m: _real(v) and v > 0,
            "must be a positive finite number"),
    "omega_grid": (tuple(np.round(np.arange(0.2, 1.2 + 1e-9, 0.1), 10)),
                   lambda v, m: _reals(v) and _ascending(v) and v[0] > 0,
                   "must be finite numbers that are positive and ascend strictly"),
    "sides": ((4, 6, 8),
              lambda v, m: (_reals(v) and len(v) > 0
                            and all(_pair_specs(s, m.omega) for s in v)),
              "must be a non-empty list of sides"),
    "from_run": (None, lambda v, m: isinstance(v, str), "is required: a prior evolve1d run "
                 "directory providing the projected profile (never recomputed silently)"),
}


class Experiment(NamedTuple):
    """One experiment: its runner (whose docstring says what it demonstrates),
    the run keys it reads, the lattice kinds it runs on (or builds, when it
    reads no ``kind``), its outputs, and the model keys it reads."""

    runner: Callable  # (cfg, outdir) -> (files, checks)
    run_keys: tuple
    kinds: Collection
    outputs: tuple
    model_keys: tuple = _MODEL_KEYS


@dataclass(frozen=True)
class OutputConfig:
    directory: str | None = None  # default: runs/<experiment>
    format: str = "csv"  # csv | json


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: LatticeSpec
    run: tuple  # named tuple of EXPERIMENTS[experiment].run_keys
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
        return {
            "experiment": self.experiment,
            "model": {k: model[k] for k in EXPERIMENTS[self.experiment].model_keys},
            "run": dict(zip(EXPERIMENTS[self.experiment].run_keys, self.run)),
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


def _readers(key: str) -> str:
    return ", ".join(n for n, e in EXPERIMENTS.items() if key in e.run_keys) or "none"


def _parse_model(section: dict, experiment: str) -> LatticeSpec:
    _reject_unknown(section, set(_MODEL_KEYS), "model")
    declared = EXPERIMENTS[experiment].model_keys
    unread = [key for key in _MODEL_KEYS if key in section and key not in declared]
    if unread:
        raise ConfigError(f"model: {experiment} reads {list(declared)}, not {unread}")
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


def _parse_run(section: dict, experiment: str, model: LatticeSpec) -> tuple:
    declared = EXPERIMENTS[experiment].run_keys
    undeclared = [key for key in sorted(section) if key not in declared]
    if undeclared:
        readers = "; ".join(f"{k!r} (read by {_readers(k)})" for k in undeclared)
        raise ConfigError(f"run: {experiment} reads {list(declared)}, not {readers}")
    values = []
    for key in declared:
        default, check, need = _RUN_KEYS[key]
        value = section.get(key, default)
        if isinstance(value, list):
            value = tuple(value)
        try:
            ok = check is None or check(value, model)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"run.{key}: {exc}") from exc
        if not ok:
            raise ConfigError(f"run.{key} {need} (got {value!r})")
        values.append(value)
    fields = ["lam" if k == "lambda" else k for k in declared]  # lambda is a keyword
    return namedtuple(f"{experiment}_run", fields)(*values)


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
    ``version`` / ``generated_files`` keys are ignored).  The experiment
    must read every model and run key given and, if it reads ``kind``, run
    on the model's lattice kind (:data:`EXPERIMENTS`).
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
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: {experiment!r} is not one of {list(EXPERIMENTS)}"
        )
    model = _parse_model(merged.get("model", {}), experiment)
    kinds = EXPERIMENTS[experiment].kinds
    if "kind" in EXPERIMENTS[experiment].model_keys and model.kind not in kinds:
        allowed = [k.value for k in LatticeKind if k in kinds]
        raise ConfigError(
            f"model.kind: {experiment} runs on {allowed}, not {model.kind.value!r}"
        )
    return ExperimentConfig(
        experiment=experiment,
        model=model,
        run=_parse_run(merged.get("run", {}), experiment, model),
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
    """Catalog of the experiments: what each demonstrates, reads and writes."""
    return [
        {
            "name": name,
            "demonstrates": " ".join(e.runner.__doc__.split()),
            "parameters": list(e.run_keys),
            "kinds": [k.value for k in LatticeKind if k in e.kinds],
            "outputs": list(e.outputs),
        }
        for name, e in EXPERIMENTS.items()
    ]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


# csv rows formatted per write: only one block's text is held in memory
_ROWS_PER_WRITE = 1024


def _csv_field(text: str) -> str:
    """``text`` as a field of ``csv.writer``'s default dialect (quoted only
    where it holds a comma, a quote or a line break)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(col: np.ndarray) -> list:
    """One column as text: ``repr`` of each float, ``str`` of each integer,
    strings quoted as a csv field."""
    if col.dtype.kind == "f":
        return list(map(repr, col.tolist()))
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    return list(map(_csv_field, col.tolist()))


def _write_table(outdir: Path, name: str, meta: dict, columns: dict, fmt: str) -> Path:
    """Write ``columns`` (header -> one value per row) as ``<name>.csv`` or
    ``<name>.json``."""
    if fmt == "json":
        path = outdir / f"{name}.json"
        cells = [np.asarray(col).tolist() for col in columns.values()]
        payload = {
            "meta": meta,
            "columns": list(columns),
            "rows": [list(row) for row in zip(*cells)],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
    path = outdir / f"{name}.csv"
    cols = [np.asarray(col) for col in columns.values()]
    with path.open("w", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(",".join(map(_csv_field, columns)) + "\r\n")
        for start in range(0, len(cols[0]), _ROWS_PER_WRITE):
            block = zip(*(_cells(col[start:start + _ROWS_PER_WRITE]) for col in cols))
            fh.write("\r\n".join(map(",".join, block)) + "\r\n")
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


def _resolved_times(run: tuple, default_span: float) -> np.ndarray:
    if run.times is not None:
        return np.asarray(run.times, dtype=float)
    t_max = default_span if run.t_max is None else float(run.t_max)
    return np.linspace(0.0, t_max, run.n_steps + 1)


def _initial_state(run: tuple, dim: int) -> np.ndarray:
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
    """Complex eigenvalues with residual certificates and localization data
    for any supported lattice."""
    h = _build_operator(cfg.model)
    spectrum = eigendecompose(h)
    columns = {
        "index": np.arange(spectrum.dim),
        "re": spectrum.eigenvalues.real,
        "im": spectrum.eigenvalues.imag,
        "residual": spectrum.residuals,
    }
    if cfg.model.kind.is_chain:
        columns["center"] = localization_center(spectrum.right_eigenvectors)
        columns["participation_ratio"] = participation_ratio(spectrum.right_eigenvectors)
    files = [
        _write_table(outdir, "eigenvalues", _model_meta(cfg), columns, cfg.output.format)
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


def _bulk_spacing_deviation(spectrum, families, spacing: float) -> float | None:
    """Largest ``|step - spacing|`` over consecutive rungs whose eigenvectors
    are both centred inside the chain's interior window: the rungs near the
    ends feel the truncation, the bulk ones do not."""
    if not families:
        return None
    win = interior_slice(spectrum.dim)
    devs = []
    for fam in families:
        idx = list(fam.member_indices)
        inside = in_window(localization_center(spectrum.right_eigenvectors[:, idx]), win)
        steps = np.abs(np.diff(spectrum.eigenvalues[idx].real) - spacing)
        devs.extend(steps[inside[1:] & inside[:-1]].tolist())
    return max(devs, default=None)


def _run_ladder_scan(cfg: ExperimentConfig, outdir: Path) -> tuple:
    """Equally spaced complex ladder families and conjugate pairing in a
    tilted-chain spectrum."""
    h = _build_operator(cfg.model)
    spectrum = eigendecompose(h)
    spacing = _ladder_spacing(cfg.run.expected_spacing, cfg.model)
    report = detect_ladders(spectrum, spacing, cfg.run.tol)
    members = np.array([i for f in report.families for i in f.member_indices], dtype=int)
    energies = spectrum.eigenvalues[members]
    files = [
        _write_table(
            outdir,
            "rungs",
            {**_model_meta(cfg), "expected_spacing": spacing, "tol": cfg.run.tol},
            {
                "family": np.repeat(np.arange(len(report.families)),
                                    [f.rung_count for f in report.families]),
                "rung": [r for f in report.families for r in range(f.rung_count)],
                "index": members,
                "re": energies.real,
                "im": energies.imag,
            },
            cfg.output.format,
        ),
        _write_json(outdir, "ladder", report.to_dict()),
    ]
    checks = {
        "n_families": len(report.families),
        "max_spacing_deviation": max(
            (f.max_spacing_deviation for f in report.families), default=None
        ),
        "max_bulk_spacing_deviation": (
            _bulk_spacing_deviation(spectrum, report.families, spacing)
            if cfg.model.kind.is_chain else None
        ),
        "max_pairing_deviation": report.max_pairing_deviation,
        "n_unassigned": len(report.unassigned),
        "diagnostics": list(report.diagnostics),
    }
    return files, checks


def _run_e0_vs_omega(cfg: ExperimentConfig, outdir: Path) -> tuple:
    """Linearity of the reference energy's real part in the tilt slope, and
    eigenfunction narrowing as the slope grows."""
    scan = scan_E0_vs_omega(cfg.model, cfg.run.omega_grid, im_sign=cfg.run.im_sign)
    files = [
        _write_table(
            outdir,
            "scan",
            {"model": cfg.model.kind.value, "n_sites": cfg.model.n_sites},
            {
                "omega": scan.omegas,
                "re_e0": scan.energies.real,
                "im_e0": scan.energies.imag,
                "center": scan.centers,
                "participation_ratio": scan.participation_ratios,
            },
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
    """Single-particle Bloch oscillation under rate rescaling: periodic at the
    matched growth rate, damped above it; also serializes the long-time
    projected profile for 2D seeding."""
    model = cfg.model
    h = build_chain(model)
    spectrum = eigendecompose(h)
    ref = select_reference_state(spectrum, im_sign=cfg.run.im_sign)
    im_e0 = ref.energy.imag
    lam = im_e0 if cfg.run.lam is None else float(cfg.run.lam)

    period = math.pi / model.omega if model.omega > 0 else None
    default_span = 2 * period if period else 10.0
    times = _resolved_times(cfg.run, default_span)
    psi0 = _initial_state(cfg.run, model.n_sites)
    if cfg.run.project:
        report = detect_ladders(spectrum, _ladder_spacing(None, model), cfg.run.tol)
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
    columns = {
        "t": np.repeat(series.times, model.n_sites),
        "site": np.tile(np.arange(model.n_sites), series.times.size),
        "value": probs.ravel(),
    }
    files = [_write_table(outdir, "probability", meta, columns, cfg.output.format)]

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
    """Two-particle Bloch oscillation on the square-lattice encoding:
    probability snapshots over one period and the fidelity revival that
    identifies the pair period."""
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
    times = _resolved_times(cfg.run, default_span)
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
            {"t": series.times, "value": f_curve},
            cfg.output.format,
        )
    ]
    probs = dirac_probability(series, 0.0)
    shots = [int(np.argmin(np.abs(series.times - frac * t_pair))) for frac in snapshot_fracs]
    x, y = basis.layout[:2]
    files.append(
        _write_table(
            outdir,
            "snapshots",
            {**meta, "period": t_pair},
            {
                "t": np.repeat(series.times[shots], basis.dim),
                "x": np.tile(x, len(shots)),
                "y": np.tile(y, len(shots)),
                "value": probs[shots].ravel(),
            },
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
    """Entrywise certification of the 2D pair lattices against a
    second-quantized oracle, sector decomposition, and evolution
    equivalence."""
    omega = cfg.model.omega
    rng = np.random.default_rng(cfg.run.seed)
    per_side = []
    for side in cfg.run.sides:
        side = int(side)
        entry = {"side": side, "omega": omega}
        lattices = {
            kind: build_pair_lattice(spec) for kind, spec in _pair_specs(side, omega).items()
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
        direct = evolve(electron, psi0, times)
        entry["evolution_distance"] = lift_1d_evolution(
            direct, oracles[LatticeKind.PAIR_2D_ELECTRON]
        )
        entry["sector_reassembled_distance"] = sector_reassembled_distance(
            direct, (h_sym, h_anti)
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


EXPERIMENTS = {
    "spectrum": Experiment(_run_spectrum, (), LatticeKind, ("eigenvalues table",)),
    "ladder_scan": Experiment(_run_ladder_scan, ("expected_spacing", "tol"), LatticeKind,
                              ("ladder report", "rung table")),
    "e0_vs_omega": Experiment(_run_e0_vs_omega, ("omega_grid", "im_sign"), _CHAINS,
                              ("scan table with linear fit",)),
    "evolve1d": Experiment(
        _run_evolve1d,
        ("times", "t_max", "n_steps", "lambda", "alpha", "j0", "initial_state",
         "project", "im_sign", "t_late", "seed", "tol"),
        _CHAINS,
        ("site probability table", "projected profile"),
    ),
    "evolve2d": Experiment(_run_evolve2d, ("from_run", "times", "t_max", "n_steps"),
                           _PAIRS, ("fidelity table", "probability snapshots")),
    "pair_equivalence": Experiment(_run_pair_equivalence, ("sides", "seed"), _PAIRS,
                                   ("equivalence report",), model_keys=("omega",)),
}


def run(cfg: ExperimentConfig) -> dict:
    """Execute one experiment; returns the written artifact paths.

    Writes ``manifest.json`` (re-runnable resolved config), the result
    tables, and ``checks.json`` into the output directory.
    """
    outdir = Path(cfg.output.directory or f"runs/{cfg.experiment}")
    outdir.mkdir(parents=True, exist_ok=True)
    files, checks = EXPERIMENTS[cfg.experiment].runner(cfg, outdir)
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
