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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, NamedTuple

import numpy as np
import scipy

from . import __version__
from .dynamics import (
    build_pair_product_state,
    dirac_probability,
    evolve,
    extract_projected_mu,
    family_projection,
    fidelity,
    gaussian_state,
    projection_time,
    site_state,
)
from .lattices import (
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    build_chain,
    build_pair_lattice,
    in_window,
    interior_slice,
    pt_commutator_deviation,
)
from .pairmap import (
    lift_1d_evolution,
    oracle_pair_hamiltonian,
    sector_decompose,
    sector_reassembled_distance,
)
from .spectra import (
    DETECTION_TOL,
    RESIDUAL_TOL,
    ReferenceSelectionError,
    conjugation_closure_deviation,
    detect_ladders,
    eigendecompose,
    localization_center,
    matrix_residuals,
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
_MANIFEST_META_KEYS = {"version", "libraries", "generated_files"}
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


def _complex_pair(value) -> bool:
    """An ``[re, im]`` pair of finite numbers."""
    return isinstance(value, (list, tuple)) and len(value) == 2 and _reals(tuple(value))


def _integer(value) -> bool:
    """An integer; JSON ``true``/``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _count(value) -> bool:
    """A non-negative integer."""
    return _integer(value) and value >= 0


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
# state, ``t_late`` to ``projection_time`` (the suppression floor of
# ``extract_projected_mu`` with 5 % to spare, or three Bloch periods if
# longer), ``t_max`` to the experiment's span,
# ``j0`` to the middle site, ``expected_spacing`` to the model's ladder step.
# ``project`` keeps only the ladder family holding the reference level.
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
    "project": (False, lambda v, m: v is False or v is True and _ladder_spacing(None, m) > 0,
                "must be true or false, and true only with a positive ladder step (omega > 0)"),
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
    if _complex_pair(value):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(
        f"{where}: expected number, 're+imj' string, or [re, im] of finite reals"
    )


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
    flags = [key for key in _MODEL_KEYS if isinstance(kw.get(key), bool)]
    if flags:
        raise ConfigError(f"model.{flags[0]}: must be a number, not {kw[flags[0]]!r}")
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
    ``version`` / ``libraries`` / ``generated_files`` keys are ignored).
    The experiment must read every model and run key given and, if it reads
    ``kind``, run on the model's lattice kind (:data:`EXPERIMENTS`);
    ``evolve2d`` needs ``omega > 0``, and ``evolve1d`` and ``e0_vs_omega``
    a chain with an interior window (:func:`interior_slice`).
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
    if experiment == "evolve2d" and model.omega <= 0:
        raise ConfigError(
            "model.omega: evolve2d needs omega > 0, its pair periods being "
            f"pi / (2 omega) and pi / omega (got {model.omega!r})"
        )
    if experiment in ("evolve1d", "e0_vs_omega"):
        try:  # the window its reference state is selected in
            interior_slice(model.n_sites)
        except ValueError as exc:
            raise ConfigError(f"model.n_sites: {experiment} needs an interior: {exc}") from exc
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
    """Write ``columns`` (header -> its values, an array read in row order)
    as ``<name>.csv`` or ``<name>.json``."""
    if fmt == "json":
        cells = [np.ravel(col).tolist() for col in columns.values()]
        rows = [list(row) for row in zip(*cells)]
        return _write_json(outdir, name, {"meta": meta, "columns": list(columns), "rows": rows})
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.csv"
    cols = [np.asarray(col) for col in columns.values()]
    with path.open("w", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(",".join(map(_csv_field, columns)) + "\r\n")
        for start in range(0, cols[0].size, _ROWS_PER_WRITE):
            block = zip(*(_cells(col.flat[start:start + _ROWS_PER_WRITE]) for col in cols))
            fh.write("\r\n".join(map(",".join, block)) + "\r\n")
    return path


def _write_json(outdir: Path, name: str, payload: dict) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
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

    def statistics(values, v):  # each column block formed once for all three
        rows = [matrix_residuals(h, values, v)]
        if cfg.model.kind.is_chain:
            rows += [localization_center(v), participation_ratio(v)]
        return np.stack(rows)

    residuals, *profile = spectrum.per_column(statistics)
    columns = {
        "index": np.arange(spectrum.dim),
        "re": spectrum.eigenvalues.real,
        "im": spectrum.eigenvalues.imag,
        "residual": spectrum.residuals,
    }
    columns.update(zip(("center", "participation_ratio"), profile))
    files = [
        _write_table(outdir, "eigenvalues", _model_meta(cfg), columns, cfg.output.format)
    ]
    checks = {
        "dim": spectrum.dim,
        "max_residual": float(spectrum.residuals.max()),
        "residual_certified": bool(residuals.max() < RESIDUAL_TOL),
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
    centered = in_window(spectrum.per_column(lambda _, v: localization_center(v)),
                         interior_slice(spectrum.dim))
    devs = []
    for fam in families:
        idx = list(fam.member_indices)
        inside = centered[idx]
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


def _basis_health(series) -> dict:
    """How the evolution propagated (``method``), which eigensolver route it
    took, and the 2-norm condition number of the eigenbasis it expanded in
    (None if infinite)."""
    condition = series.condition
    return {
        "method": series.method,
        "eigensolver": series.solver,
        "eigenvector_condition": condition if math.isfinite(condition) else None,
    }


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

    step = _ladder_spacing(None, model)
    period = 2 * math.pi / step if model.omega > 0 else None
    default_span = 2 * period if period else 10.0
    times = _resolved_times(cfg.run, default_span)
    psi0 = _initial_state(cfg.run, model.n_sites)
    if cfg.run.project:  # the family of the reference level, whose Im E0 is lambda's default
        report = detect_ladders(spectrum, step, cfg.run.tol)
        family = next((f for f in report.families if ref.index in f.member_indices), None)
        if family is None:
            raise ReferenceSelectionError(
                f"no ladder family holds the reference level {ref.energy:.6g} to project onto"
            )
        psi0 = family_projection(spectrum, family.member_indices, psi0)
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
        "t": np.broadcast_to(series.times[:, None], probs.shape),
        "site": np.broadcast_to(np.arange(model.n_sites), probs.shape),
        "value": probs,
    }
    files = [_write_table(outdir, "probability", meta, columns, cfg.output.format)]

    checks = {
        **_basis_health(series),
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
        later = series.times + period
        kk = np.minimum(np.searchsorted(series.times, later - 1e-9), series.times.size - 1)
        k = np.flatnonzero(np.abs(series.times[kk] - later) < 1e-9)
        if k.size:
            checks["periodicity_interior_deviation"] = float(
                np.abs(probs[kk[k], win] - probs[k, win]).max()
            )
    if lam == 0.0:
        checks["total_probability_drift"] = float(np.abs(probs.sum(axis=1) - 1.0).max())

    if im_e0 > 0 and series.method != "spectral":  # the route evolve took
        checks["mu_skipped"] = (
            f"no eigenbasis to project in: the evolution took the {series.method}"
        )
    elif im_e0 > 0:
        t_late = cfg.run.t_late
        if t_late is None:
            t_late = projection_time(ref.energy, model.omega)
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


# Every mu.json key evolve2d requires -> (check, what the check asks of a
# value); ``origin_offset`` alone may be absent, and then is the chain's default.
_MU_KEYS = {
    "kind": (lambda v: isinstance(v, str), "must be a string"),
    "n_sites": (_integer, "must be an integer"),
    "omega": (_real, "must be a finite number"),
    "origin_offset": (_integer, "must be an integer"),
    "e0": (_complex_pair, "must be an [re, im] pair of finite numbers"),
    "mu": (lambda v: isinstance(v, list) and all(map(_complex_pair, v)),
           "must be a list of [re, im] pairs of finite numbers"),
}


def _load_mu(from_run: str) -> tuple:
    """``(path, data)``: the seed file and its checked values."""
    path = Path(from_run)
    if path.is_dir():
        path = path / "mu.json"
    if not path.exists():
        raise ConfigError(
            f"run.from_run: no serialized profile at {path}; "
            "run evolve1d first (non-Hermitian model) or point at its directory"
        )
    data = _read_json_object(path)
    for key, (check, need) in _MU_KEYS.items():
        if key not in data and key != "origin_offset":
            raise ConfigError(f"{path}: missing key {key!r}")
        if key in data and not check(data[key]):
            raise ConfigError(f"{path}: {key} {need}")
    data["mu"] = np.array([complex(re, im) for re, im in data["mu"]])
    if data["mu"].size != data["n_sites"]:
        raise ConfigError(
            f"{path}: mu has {data['mu'].size} amplitudes for n_sites {data['n_sites']}"
        )
    return path, data


def _run_evolve2d(cfg: ExperimentConfig, outdir: Path) -> tuple:
    """Two-particle Bloch oscillation on the square-lattice encoding:
    probability snapshots over one period and the fidelity revival that
    identifies the pair period."""
    path, payload = _load_mu(cfg.run.from_run)
    # the pair lattice is the Kronecker sum of this chain with itself
    spec = cfg.model.chain
    seed = {"origin_offset": payload["n_sites"] // 2, **payload}
    wanted = {
        "kind": spec.kind.value,
        "n_sites": spec.n_sites,
        "omega": spec.omega,
        "origin_offset": spec.origin_offset,
    }
    for key, want in wanted.items():
        # written so that a NaN slope fails the comparison
        if not (abs(seed[key] - want) <= 1e-12 if key == "omega" else seed[key] == want):
            raise ConfigError(
                f"profile {key} {seed[key]!r} does not match {want!r}, the {key} of "
                "the pair lattice's chain; refusing to mix parameters"
            )
    h = build_pair_lattice(cfg.model)
    chain = eigendecompose(h.chain)
    e0, level = complex(*payload["e0"]), select_reference_state(chain).energy
    if not abs(e0 - level) <= 1e-9 * max(1.0, abs(level)):
        raise ConfigError(f"{path}: e0 {e0} is not {level}, the chain's + reference level")
    phi0 = build_pair_product_state(payload["mu"], h.basis)

    period = 2 * math.pi / _ladder_spacing(None, spec)  # the chain's Bloch period, pi / omega
    candidates = {"pi_over_2omega": period / 2, "pi_over_omega": period}
    default_span = 1.1 * candidates["pi_over_omega"]
    times = _resolved_times(cfg.run, default_span)
    snapshot_fracs = (0.0, 0.25, 0.5, 0.75, 1.0)
    shot_times = [f * t for t in candidates.values() for f in snapshot_fracs]
    times = np.unique(np.concatenate([times, shot_times]))

    series = evolve(h, phi0, times, spectrum=chain)
    f_curve = fidelity(series)

    # every candidate and snapshot time is one of the sampled times, exactly
    fid_at = {
        name: float(f_curve[np.searchsorted(series.times, t)])
        for name, t in candidates.items()
    }
    matched = next((name for name, f in fid_at.items() if f >= 0.99), None)
    t_pair = candidates[matched or "pi_over_omega"]

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
    shots = np.searchsorted(series.times, [frac * t_pair for frac in snapshot_fracs])
    probs = np.abs(series.states[shots]) ** 2  # the five snapshot rows, at lambda = 0
    x, y = h.basis.layout[:2]
    files.append(
        _write_table(
            outdir,
            "snapshots",
            {**meta, "period": t_pair},
            {
                "t": np.repeat(series.times[shots], h.dim),
                "x": np.tile(x, len(shots)),
                "y": np.tile(y, len(shots)),
                "value": probs.ravel(),
            },
            cfg.output.format,
        )
    )
    checks = {
        **_basis_health(series),
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
    equivalence of the pair engine with both."""
    omega = cfg.model.omega
    rng = np.random.default_rng(cfg.run.seed)
    per_side = []
    for side in cfg.run.sides:
        side = int(side)
        entry = {"side": side, "omega": omega}
        specs = _pair_specs(side, omega)
        lattices = {kind: build_pair_lattice(spec) for kind, spec in specs.items()}
        dense = {kind: h.entries for kind, h in lattices.items()}  # each assembled once
        oracles = {kind: oracle_pair_hamiltonian(kind, side, omega) for kind in lattices}
        for kind, entries in dense.items():
            entry[f"oracle_deviation_{kind.value}"] = float(
                np.abs(entries - oracles[kind].entries).max()
            )
        electron = lattices[LatticeKind.PAIR_2D_ELECTRON]
        # the library certificates take the dense matrix the runner holds
        electron_dense = OperatorMatrix(dense[LatticeKind.PAIR_2D_ELECTRON],
                                        electron.basis_labels)
        h_sym, h_anti = sector_decompose(electron_dense)
        entry["sector_deviation_symmetric"] = float(
            np.abs(h_sym.entries - dense[LatticeKind.PAIR_2D_BOSON]).max()
        )
        entry["sector_deviation_antisymmetric"] = float(
            np.abs(h_anti.entries - dense[LatticeKind.PAIR_2D_FERMION]).max()
        )
        merged = np.concatenate(
            [np.linalg.eigvals(h_sym.entries), np.linalg.eigvals(h_anti.entries)]
        )
        entry["spectra_merge_deviation"] = spectrum_multiset_distance(
            np.linalg.eigvals(dense[LatticeKind.PAIR_2D_ELECTRON]), merged
        )
        entry["pt_commutator"] = pt_commutator_deviation(electron_dense)

        times = np.linspace(0.0, 4.0, 5)
        psi0 = rng.normal(size=electron.dim) + 1j * rng.normal(size=electron.dim)
        psi0 /= np.linalg.norm(psi0)
        direct = evolve(electron, psi0, times)  # the engine evolve2d runs
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
        "max_sector_reassembled_distance": worst("sector_reassembled_distance"),
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
    tables, and ``checks.json`` into the output directory, which the first
    of them creates: a run refused before it leaves no directory behind.
    """
    outdir = Path(cfg.output.directory or f"runs/{cfg.experiment}")
    files, checks = EXPERIMENTS[cfg.experiment].runner(cfg, outdir)
    checks_path = _write_json(outdir, "checks", checks)
    manifest = cfg.to_dict()
    manifest["version"] = __version__
    manifest["libraries"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    manifest["generated_files"] = sorted(
        p.name for p in [*files, checks_path]
    ) + ["manifest.json"]
    manifest_path = _write_json(outdir, "manifest", manifest)
    return {
        "directory": str(outdir),
        "files": [str(p) for p in [*files, checks_path, manifest_path]],
        "checks": checks,
    }
