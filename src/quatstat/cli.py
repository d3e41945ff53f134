"""Command-line front end: sweeps, model presets, validation, oracle comparisons.

Every numeric column in every output is produced by exactly one library
operation; the CLI only parses configuration, evaluates the sweep, and
formats rows. Output is byte-identical for identical configuration (floats
at 17 significant digits, rows sorted by the sweep variable).

Exit codes: 0 success (findings included), 1 oracle self-check failure,
2 configuration error, 3 unphysical partition-function branch.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .errors import (
    InfiniteTemperature,
    NotNormal,
    QuadratureUnconverged,
    QuatstatError,
    UnphysicalZ,
)
from .linalg import QMatrix, energies_by_continuity, fro_norm, mat_mul, re_trace
from .metric import MetricOperator, build_metric, classification_report
from .models import (
    QubitModelParams,
    SpinModelParams,
    TwoLevelGas,
    build_qubit_model,
    build_spin_model,
    entropy_stirling,
    log_multiplicity,
    printed_spin_entropy,
    printed_spin_internal_energy,
    spin_mean_energy,
    spin_negative_temperature,
    temperature,
)
from .quaternion import Quaternion
from .thermo import (
    MIN_DYSON_STEPS,
    EnergySliceParams,
    SpectralEnsemble,
    ToyModelParams,
    bloch_propagator,
    build_toy_hamiltonian,
    dyson_convergence_slope,
    dyson_second_order,
    formal_trace,
    printed_entropy,
    printed_specific_heat,
    thermo_closed_form,
    thermo_spectral,
    toy_metric,
    z1_formula,
    z_spectral,
)

DEFAULT_TOLERANCE = 1e-8


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    subcommand: str
    model: str = "spin"
    beta_grid: tuple[float, float, int] = (0.1, 5.0, 50)
    log_scale: bool = False
    params_path: str | None = None
    output: str = "csv"
    out_path: str | None = None
    discrepancies_path: str = "discrepancies.json"
    tolerance: float = DEFAULT_TOLERANCE
    n_particles: int = 1
    k: float = 1.0
    rederived: bool = False
    omega: float = 2.0
    v: float = 0.5
    x: float = 1.0
    phi: float = 0.0
    e_plus: float | None = None
    e_minus: float | None = None
    energy_grid: tuple[float, float, int] | None = None
    points: int = 51
    dyson_steps: int = 128


@dataclass
class ModelBundle:
    """Everything the runners may need about the resolved model."""

    name: str
    hamiltonian: QMatrix | None = None
    metric: MetricOperator | None = None
    ensemble: SpectralEnsemble | None = None
    slice_params: EnergySliceParams | None = None
    spin: SpinModelParams | None = None


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _resolve_tolerance(flag: float | None, default: float = DEFAULT_TOLERANCE) -> float:
    if flag is not None:
        return flag
    env = os.environ.get("QUATSTAT_TOL")
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise click.UsageError(f"QUATSTAT_TOL is not a number: {env!r}") from exc
    return default


def _parse_range(spec: str, option: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"{option} expects MIN:MAX:STEPS, got {spec!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise click.UsageError(f"{option} expects MIN:MAX:STEPS, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise click.UsageError(f"{option} endpoints must be finite, got {spec!r}")
    if steps < 1:
        raise click.UsageError(f"{option} needs at least one step")
    return lo, hi, steps


def _grid(grid: tuple[float, float, int], log_scale: bool) -> list[float]:
    lo, hi, steps = grid
    if steps == 1:
        return [lo]
    if log_scale:
        if lo <= 0 or hi <= 0:
            raise click.UsageError("--log grids need positive endpoints")
        return [float(b) for b in np.geomspace(lo, hi, steps)]
    return [float(b) for b in np.linspace(lo, hi, steps)]


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read params file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise click.UsageError(f"params file {path} must hold a JSON object")
    return data


def _quaternion_field(data: dict, key: str) -> Quaternion:
    try:
        return Quaternion.from_list(data[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"params field {key!r} must be a 4-array: {exc}") from exc


def _metric_from_dict(data: dict) -> MetricOperator:
    try:
        x = float(data["x"])
        y = float(data["y"])
        z_re, z_im = data.get("z", [0.0, 0.0])
        z = complex(float(z_re), float(z_im))
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"malformed metric object: {exc}") from exc
    try:
        return build_metric(x, y, z)
    except QuatstatError as exc:
        raise click.UsageError(f"metric rejected: {exc}") from exc


def _resolve_model(cfg: RunConfig) -> ModelBundle:
    if cfg.model == "spin":
        try:
            spin = SpinModelParams(omega=cfg.omega, v=cfg.v, x=cfg.x)
            h, metric, ensemble = build_spin_model(spin)
        except QuatstatError as exc:
            raise click.UsageError(f"spin params rejected: {exc}") from exc
        return ModelBundle(
            name="spin",
            hamiltonian=h,
            metric=metric,
            ensemble=dataclasses.replace(
                ensemble, n_particles=cfg.n_particles, k=cfg.k
            ),
            slice_params=EnergySliceParams.from_spin(cfg.omega, cfg.v),
            spin=spin,
        )
    if cfg.model == "qubit":
        h, metric, ensemble = build_qubit_model(QubitModelParams(phi=cfg.phi))
        energies = sorted(e for e, _ in ensemble.levels)
        return ModelBundle(
            name="qubit",
            hamiltonian=h,
            metric=metric,
            ensemble=dataclasses.replace(
                ensemble, n_particles=cfg.n_particles, k=cfg.k
            ),
            slice_params=EnergySliceParams(aE=energies[-1], bE=energies[0], kappa=0.0),
        )
    if cfg.model == "toy":
        if not cfg.params_path:
            raise click.UsageError("--model toy requires --params FILE")
        data = _load_json(cfg.params_path)
        if "aE" in data:
            try:
                slice_params = EnergySliceParams(
                    aE=float(data["aE"]),
                    bE=float(data["bE"]),
                    kappa=float(data.get("kappa", 0.0)),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise click.UsageError(f"malformed slice params: {exc}") from exc
            return ModelBundle(name="toy", slice_params=slice_params)
        try:
            toy = ToyModelParams(
                a=_quaternion_field(data, "a"),
                b=_quaternion_field(data, "b"),
                c=_quaternion_field(data, "c"),
                alpha=float(data.get("alpha", 1.0)),
                gamma=float(data.get("gamma", 1.0)),
            )
            h = build_toy_hamiltonian(toy)
            slice_params = EnergySliceParams.from_toy(toy)
            h0 = QMatrix.diag([toy.a, toy.b])
            energies = energies_by_continuity(h0, h - h0)
            ensemble = SpectralEnsemble(
                tuple((e, 1) for e in energies),
                n_particles=cfg.n_particles,
                k=cfg.k,
            )
        except QuatstatError as exc:
            raise click.UsageError(f"toy params rejected: {exc}") from exc
        return ModelBundle(
            name="toy",
            hamiltonian=h,
            metric=toy_metric(toy),
            ensemble=ensemble,
            slice_params=slice_params,
        )
    if cfg.model == "file":
        if not cfg.params_path:
            raise click.UsageError("--model file requires --params FILE")
        data = _load_json(cfg.params_path)
        try:
            h = QMatrix.from_json_dict(data["matrix"])
        except (KeyError, TypeError, ValueError, QuatstatError) as exc:
            raise click.UsageError(f"malformed matrix object: {exc}") from exc
        metric = _metric_from_dict(data.get("metric", {"x": 1.0, "y": 1.0}))
        if metric.n != h.n:
            raise click.UsageError(
                f"matrix is {h.n}-dim but metric is {metric.n}-dim"
            )
        return ModelBundle(name="file", hamiltonian=h, metric=metric)
    raise click.UsageError(f"unknown model {cfg.model!r}")


def _file_ensemble(bundle: ModelBundle, cfg: RunConfig) -> SpectralEnsemble:
    h = bundle.hamiltonian
    diag = QMatrix.diag([h.entry(i, i) for i in range(h.n)])
    try:
        energies = energies_by_continuity(diag, h - diag)
    except QuatstatError as exc:
        raise click.UsageError(f"cannot assign energies: {exc}") from exc
    return SpectralEnsemble(
        tuple((e, 1) for e in energies), n_particles=cfg.n_particles, k=cfg.k
    )


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


def _emit_table(header: list[str], rows: list[tuple], cfg: RunConfig):
    if cfg.output == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(v if isinstance(v, str) else _fmt(v) for v in row)
            )
        text = "\n".join(lines) + "\n"
    if cfg.out_path:
        Path(cfg.out_path).write_text(text)
        click.echo(f"wrote {len(rows)} rows to {cfg.out_path}", err=True)
    else:
        click.echo(text, nl=False)


def _write_discrepancies(records, cfg: RunConfig, always: bool = False):
    if not records and not always:
        return
    payload = [r.to_dict() for r in records]
    Path(cfg.discrepancies_path).write_text(json.dumps(payload, indent=2) + "\n")
    click.echo(
        f"wrote {len(payload)} discrepancy records to {cfg.discrepancies_path}",
        err=True,
    )


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_thermo(cfg: RunConfig) -> int:
    bundle = _resolve_model(cfg)
    betas = _grid(cfg.beta_grid, cfg.log_scale)
    if min(betas) <= 0:
        raise click.UsageError("thermo sweeps require beta > 0")

    use_slice = bundle.name in ("toy", "spin") and bundle.slice_params is not None
    if bundle.name == "file":
        bundle.ensemble = _file_ensemble(bundle, cfg)
    if not use_slice and bundle.ensemble is None:
        raise click.UsageError("model provides neither slice parameters nor energies")

    def one(beta: float):
        if use_slice:
            return thermo_closed_form(
                bundle.slice_params,
                beta,
                n_particles=cfg.n_particles,
                k=cfg.k,
                rederived=cfg.rederived,
                diff_tol=cfg.tolerance,
            )
        return thermo_spectral(bundle.ensemble, beta)

    try:
        reports = [one(beta) for beta in betas]
    except UnphysicalZ as exc:
        click.echo(f"unphysical branch: {exc}", err=True)
        return 3
    reports.sort(key=lambda r: r.beta)
    rows = [(r.beta, r.Z1, r.A, r.S, r.U, r.Cv) for r in reports]
    _emit_table(["beta", "Z1", "A", "S", "U", "Cv"], rows, cfg)
    records = [rec for r in reports for rec in r.discrepancies]
    _write_discrepancies(records, cfg)
    return 0


def run_compare(cfg: RunConfig) -> int:
    bundle = _resolve_model(cfg)
    if bundle.hamiltonian is None or bundle.slice_params is None:
        raise click.UsageError(
            "compare needs a full model (quaternion form); slice-only params "
            "do not determine a Hamiltonian"
        )
    betas = _grid(cfg.beta_grid, cfg.log_scale)
    if min(betas) <= 0:
        raise click.UsageError("compare sweeps require beta > 0")
    h = bundle.hamiltonian
    ensemble = bundle.ensemble
    sl = bundle.slice_params
    h0 = QMatrix.diag([h.entry(i, i) for i in range(h.n)])
    hp = h - h0
    tol = cfg.tolerance

    try:
        propagators = dyson_second_order(h0, hp, betas, steps=cfg.dyson_steps)
        z_formal = formal_trace(h, betas)
        z_dyson = formal_trace(h0, betas, propagators)
    except (QuadratureUnconverged, NotNormal) as exc:
        click.echo(f"oracle self-check failed: {exc}", err=True)
        return 1
    # both trace columns come from one eigenbasis each; mat_exp checks the last beta
    beta = betas[-1]
    spot_checks = (
        ("Z_formal", z_formal[-1], re_trace(bloch_propagator(h, beta))),
        (
            "Z1_dyson",
            z_dyson[-1],
            re_trace(mat_mul(bloch_propagator(h0, beta), propagators[-1])),
        ),
    )
    for name, value, oracle in spot_checks:
        if not abs(value - oracle) <= tol * max(1.0, abs(oracle)):
            click.echo(
                f"oracle self-check failed: {name} = {_fmt(value)} at beta = "
                f"{_fmt(beta)}, mat_exp gives {_fmt(oracle)} (tol {tol:.1e})",
                err=True,
            )
            return 1
    rows = [
        (
            beta,
            z_spectral(ensemble, beta),
            zf,
            z1_formula(sl, beta, rederived=False),
            z1_formula(sl, beta, rederived=True),
            zd,
        )
        for beta, zf, zd in zip(betas, z_formal, z_dyson)
    ]
    rows.sort(key=lambda row: row[0])
    header = ["beta", "Z_spectral", "Z_formal", "Z1_printed", "Z1_rederived", "Z1_dyson"]
    _emit_table(header, rows, cfg)

    from .thermo import DiscrepancyRecord

    records: list[DiscrepancyRecord] = []

    def note(quantity, printed_value, derived_value, beta):
        if abs(printed_value - derived_value) > tol * max(1.0, abs(derived_value)):
            records.append(
                DiscrepancyRecord(quantity, printed_value, derived_value, beta)
            )

    for beta, _, _, z1_p, z1_r, _ in rows:
        note("Z1", z1_p, z1_r, beta)
        try:
            derived = thermo_closed_form(
                sl, beta, cfg.n_particles, cfg.k, rederived=True, diff_tol=tol
            )
            note("S", printed_entropy(sl, beta, cfg.n_particles, cfg.k), derived.S, beta)
        except (UnphysicalZ, QuatstatError):
            pass
        try:
            printed_branch = thermo_closed_form(
                sl, beta, cfg.n_particles, cfg.k, rederived=False, diff_tol=tol
            )
            note(
                "Cv",
                printed_specific_heat(sl, beta, cfg.n_particles, cfg.k),
                printed_branch.Cv,
                beta,
            )
        except (UnphysicalZ, QuatstatError):
            pass
        if bundle.spin is not None:
            spin = bundle.spin
            note(
                "U",
                printed_spin_internal_energy(spin.omega, spin.v, beta, cfg.n_particles),
                cfg.n_particles * spin_mean_energy(spin.omega, spin.v, beta),
                beta,
            )
            try:
                note(
                    "S_two_level",
                    printed_spin_entropy(spin.omega, spin.v, beta, cfg.n_particles, cfg.k),
                    thermo_spectral(ensemble, beta).S,
                    beta,
                )
            except (UnphysicalZ, QuatstatError):
                pass

    _write_discrepancies(records, cfg, always=True)

    arr = np.array([row[1:] for row in rows])
    click.echo(
        f"max |Z_spectral - Z_formal|    = {_fmt(np.abs(arr[:, 0] - arr[:, 1]).max())}",
        err=True,
    )
    click.echo(
        f"max |Z1_printed - Z1_rederived| = {_fmt(np.abs(arr[:, 2] - arr[:, 3]).max())}",
        err=True,
    )
    click.echo(
        f"max |Z1_dyson - Z_formal|      = {_fmt(np.abs(arr[:, 4] - arr[:, 1]).max())}",
        err=True,
    )

    if fro_norm(hp) > 0.0:
        slope = dyson_convergence_slope(h0, hp, t=1.0, steps=cfg.dyson_steps)
        ok = 2.8 <= slope <= 3.2
        click.echo(
            f"perturbation order slope = {slope:.3f} (expected 3.0 +- 0.2): "
            + ("ok" if ok else "FAIL"),
            err=True,
        )
        if not ok:
            return 1
    return 0


def _negtemp_gas(cfg: RunConfig) -> TwoLevelGas:
    if cfg.params_path:
        data = _load_json(cfg.params_path)
        n = int(data.get("n_particles", cfg.n_particles))
        try:
            if "e_plus" in data:
                return TwoLevelGas(
                    n_particles=n,
                    e_plus=float(data["e_plus"]),
                    e_minus=float(data["e_minus"]),
                )
            if "omega" in data:
                spin = SpinModelParams(
                    omega=float(data["omega"]),
                    v=float(data["v"]),
                    x=float(data.get("x", 1.0)),
                )
                return spin_negative_temperature(spin, n)
        except (KeyError, TypeError, ValueError, QuatstatError) as exc:
            raise click.UsageError(f"negtemp params rejected: {exc}") from exc
        raise click.UsageError(
            "negtemp params need either e_plus/e_minus or omega/v"
        )
    try:
        if cfg.model == "spin":
            return spin_negative_temperature(
                SpinModelParams(omega=cfg.omega, v=cfg.v, x=cfg.x), cfg.n_particles
            )
        if cfg.model == "qubit":
            return TwoLevelGas(n_particles=cfg.n_particles, e_plus=2.0, e_minus=0.0)
        if cfg.model == "custom":
            if cfg.e_plus is None or cfg.e_minus is None:
                raise click.UsageError("--model custom requires --e-plus and --e-minus")
            return TwoLevelGas(
                n_particles=cfg.n_particles, e_plus=cfg.e_plus, e_minus=cfg.e_minus
            )
    except QuatstatError as exc:
        raise click.UsageError(f"negtemp params rejected: {exc}") from exc
    raise click.UsageError(f"unknown negtemp model {cfg.model!r}")


def run_negtemp(cfg: RunConfig) -> int:
    gas = _negtemp_gas(cfg)

    if cfg.energy_grid is not None:
        lo, hi, steps = cfg.energy_grid
        energies = _grid((lo, hi, steps), False)
    else:
        energies = _grid((gas.e_min, gas.e_max, cfg.points), False)

    rows = []
    for energy in energies:
        try:
            s_model = entropy_stirling(gas, energy, cfg.k)
            s_exact = cfg.k * log_multiplicity(gas, energy)
        except QuatstatError as exc:
            raise click.UsageError(f"E = {energy}: {exc}") from exc
        try:
            t_cell = _fmt(temperature(gas, energy, cfg.k))
        except InfiniteTemperature:
            t_cell = "infinite"
        rows.append((energy, s_model, s_exact, t_cell))
    _emit_table(["E", "S_stirling", "S_exact", "T"], rows, cfg)
    return 0


def run_validate(cfg: RunConfig) -> int:
    if not cfg.params_path:
        raise click.UsageError("validate requires --params FILE")
    data = _load_json(cfg.params_path)
    try:
        h = QMatrix.from_json_dict(data["matrix"])
    except (KeyError, TypeError, ValueError, QuatstatError) as exc:
        raise click.UsageError(f"malformed matrix object: {exc}") from exc
    metric = _metric_from_dict(data.get("metric", {"x": 1.0, "y": 1.0}))
    if metric.n != h.n:
        raise click.UsageError(f"matrix is {h.n}-dim but metric is {metric.n}-dim")
    report = classification_report(h, metric, tol=cfg.tolerance)
    for key in ("pseudo_anti_hermitian", "quasi_anti_hermitian", "pseudo_hermitian"):
        entry = report[key]
        verdict = "yes" if entry["verdict"] else "no"
        label = key.replace("_", "-")
        click.echo(f"{label}: {verdict} (residual {entry['residual']:.6e})")
    click.echo(f"metric-positive: {'yes' if report['metric_positive'] else 'no'}")
    return 0


def run_spectrum(cfg: RunConfig) -> int:
    bundle = _resolve_model(cfg)
    if bundle.name == "file":
        bundle.ensemble = _file_ensemble(bundle, cfg)
    if bundle.ensemble is None:
        raise click.UsageError("model does not define an energy spectrum")
    rows = [(e, g) for e, g in bundle.ensemble.levels]
    _emit_table(["energy", "multiplicity"], rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------


def _model_options(fn):
    options = [
        click.option("--params", "params_path", type=click.Path(), default=None,
                     help="JSON params file (toy/file models)."),
        click.option("--omega", type=float, default=2.0, show_default=True,
                     help="Spin model level splitting."),
        click.option("--v", type=float, default=0.5, show_default=True,
                     help="Spin model potential strength."),
        click.option("--x", type=float, default=1.0, show_default=True,
                     help="Spin model metric parameter."),
        click.option("--phi", type=float, default=0.0, show_default=True,
                     help="Qubit model phase."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _output_options(fn):
    options = [
        click.option("--output", type=click.Choice(["csv", "json"]), default="csv",
                     show_default=True),
        click.option("--out", "out_path", type=click.Path(), default=None,
                     help="Write the table here instead of stdout."),
        click.option("--tolerance", type=float, default=None,
                     help="Comparison tolerance (overrides QUATSTAT_TOL)."),
        click.option("--parallel", type=int, default=1, show_default=True,
                     expose_value=False,
                     help="Accepted for compatibility and ignored; sweeps run "
                          "in one process."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
def cli():
    """Quaternionic quantum statistical mechanics toolkit."""


@cli.command()
@click.option("--model", type=click.Choice(["toy", "spin", "qubit", "file"]),
              default="spin", show_default=True)
@_model_options
@click.option("--beta", "beta_spec", default="0.1:5:50", show_default=True,
              help="Inverse-temperature grid MIN:MAX:STEPS.")
@click.option("--log", "log_scale", is_flag=True, help="Geometric beta grid.")
@click.option("--n-particles", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--k", type=float, default=1.0, show_default=True,
              help="Boltzmann constant.")
@click.option("--rederived", is_flag=True,
              help="Use the re-derived coupling sign on the closed-form path.")
@click.option("--discrepancies", "discrepancies_path", type=click.Path(),
              default="discrepancies.json", show_default=True)
@_output_options
def thermo(model, params_path, omega, v, x, phi, beta_spec, log_scale, n_particles,
           k, rederived, discrepancies_path, output, out_path, tolerance):
    """Thermodynamic sweep: beta,Z1,A,S,U,Cv per grid point."""
    cfg = RunConfig(
        subcommand="thermo", model=model, params_path=params_path, omega=omega,
        v=v, x=x, phi=phi, beta_grid=_parse_range(beta_spec, "--beta"),
        log_scale=log_scale, n_particles=n_particles, k=k, rederived=rederived,
        discrepancies_path=discrepancies_path, output=output, out_path=out_path,
        tolerance=_resolve_tolerance(tolerance),
    )
    sys.exit(run_thermo(cfg))


@cli.command()
@click.option("--model", type=click.Choice(["toy", "spin", "qubit"]),
              default="spin", show_default=True)
@_model_options
@click.option("--beta", "beta_spec", default="0.1:2:20", show_default=True,
              help="Inverse-temperature grid MIN:MAX:STEPS.")
@click.option("--log", "log_scale", is_flag=True, help="Geometric beta grid.")
@click.option("--n-particles", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--k", type=float, default=1.0, show_default=True)
@click.option("--steps", "dyson_steps", type=click.IntRange(min=MIN_DYSON_STEPS),
              default=128, show_default=True,
              help="Quadrature steps for the perturbative propagator.")
@click.option("--discrepancies", "discrepancies_path", type=click.Path(),
              default="discrepancies.json", show_default=True)
@_output_options
def compare(model, params_path, omega, v, x, phi, beta_spec, log_scale, n_particles,
            k, dyson_steps, discrepancies_path, output, out_path, tolerance):
    """Partition-function paths side by side, plus a discrepancy log.

    Disagreement between columns is a finding and exits 0; only an oracle
    self-check failure exits 1.
    """
    cfg = RunConfig(
        subcommand="compare", model=model, params_path=params_path, omega=omega,
        v=v, x=x, phi=phi, beta_grid=_parse_range(beta_spec, "--beta"),
        log_scale=log_scale, n_particles=n_particles, k=k, dyson_steps=dyson_steps,
        discrepancies_path=discrepancies_path, output=output, out_path=out_path,
        tolerance=_resolve_tolerance(tolerance),
    )
    sys.exit(run_compare(cfg))


@cli.command()
@click.option("--model", type=click.Choice(["spin", "qubit", "custom"]),
              default="spin", show_default=True)
@click.option("--params", "params_path", type=click.Path(), default=None,
              help="JSON file with omega/v or e_plus/e_minus (and n_particles).")
@click.option("--omega", type=float, default=2.0, show_default=True)
@click.option("--v", type=float, default=0.5, show_default=True)
@click.option("--x", type=float, default=1.0, show_default=True)
@click.option("--e-plus", type=float, default=None, help="Upper level (custom model).")
@click.option("--e-minus", type=float, default=None, help="Lower level (custom model).")
@click.option("--n-particles", type=click.IntRange(min=1), default=10,
              show_default=True)
@click.option("--k", type=float, default=1.0, show_default=True)
@click.option("--grid", "grid_spec", default=None,
              help="Energy grid MIN:MAX:STEPS (default: the full band).")
@click.option("--points", type=int, default=51, show_default=True,
              help="Grid size when --grid is not given.")
@_output_options
def negtemp(model, params_path, omega, v, x, e_plus, e_minus, n_particles, k,
            grid_spec, points, output, out_path, tolerance):
    """Entropy and temperature across the two-level energy band."""
    cfg = RunConfig(
        subcommand="negtemp", model=model, params_path=params_path, omega=omega,
        v=v, x=x, e_plus=e_plus, e_minus=e_minus, n_particles=n_particles, k=k,
        energy_grid=_parse_range(grid_spec, "--grid") if grid_spec else None,
        points=points, output=output, out_path=out_path,
        tolerance=_resolve_tolerance(tolerance),
    )
    sys.exit(run_negtemp(cfg))


@cli.command()
@click.option("--params", "params_path", type=click.Path(), required=True,
              help="JSON file with matrix and metric objects.")
@click.option("--tolerance", type=float, default=None,
              help="Classification tolerance (overrides QUATSTAT_TOL).")
def validate(params_path, tolerance):
    """Classify a matrix against a metric: adjoint-symmetry verdicts."""
    cfg = RunConfig(
        subcommand="validate", params_path=params_path,
        tolerance=_resolve_tolerance(tolerance, default=1e-10),
    )
    sys.exit(run_validate(cfg))


@cli.command()
@click.option("--model", type=click.Choice(["toy", "spin", "qubit", "file"]),
              default="spin", show_default=True)
@_model_options
@_output_options
def spectrum(model, params_path, omega, v, x, phi, output, out_path, tolerance):
    """Energy levels and multiplicities of the resolved model."""
    cfg = RunConfig(
        subcommand="spectrum", model=model, params_path=params_path, omega=omega,
        v=v, x=x, phi=phi, output=output, out_path=out_path,
        tolerance=_resolve_tolerance(tolerance),
    )
    sys.exit(run_spectrum(cfg))


def main():
    cli()


if __name__ == "__main__":
    main()
