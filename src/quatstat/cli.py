"""Command-line front end: sweeps, model presets, validation, oracle comparisons.

Every numeric column in every output is produced by exactly one library
operation; the CLI only parses configuration, evaluates the sweep, and
formats rows. Output is byte-identical for identical configuration (floats
at 17 significant digits, rows in ascending order of the sweep variable).

Exit codes: 0 success (findings included), 1 oracle self-check failure,
2 configuration error, 3 unphysical partition-function branch.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

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
from .metric import DEFAULT_REL_TOL, MetricOperator, build_metric, classification_report
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
    qubit_negative_temperature,
    spin_mean_energy,
    spin_negative_temperature,
    temperature,
)
from .quaternion import Quaternion
from .thermo import (
    MIN_DYSON_STEPS,
    DiscrepancyRecord,
    EnergySliceParams,
    SpectralEnsemble,
    ToyModelParams,
    bloch_propagator,
    build_toy_hamiltonian,
    discrepancy,
    dyson_convergence_slope,
    dyson_second_order,
    formal_trace,
    thermo_closed_form,
    thermo_spectral,
    z1_formula,
    z_spectral,
)

DEFAULT_TOLERANCE = 1e-8
#: Relative bound of compare's mat_exp spot checks. It checks the fast trace
#: columns against an oracle, not a display form, so ``--tolerance`` does not
#: set it; the largest gap seen is about 3e-13.
SPOT_CHECK_TOL = 1e-10


@dataclass
class ModelBundle:
    """Everything the runners may need about the resolved model."""

    hamiltonian: QMatrix | None = None
    ensemble: SpectralEnsemble | None = None
    slice_params: EnergySliceParams | None = None


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _FiniteFloat(click.types.FloatParamType):
    """A float that must be finite: NaN and infinities are usage errors."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number


FINITE = _FiniteFloat()


def _range_option(ctx, param, spec: str | None) -> tuple[float, float, int] | None:
    """Parse a ``MIN:MAX:STEPS`` option (``--beta``, ``--grid``)."""
    if spec is None:
        return None
    option = param.opts[0]
    try:
        lo, hi, steps = spec.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise click.UsageError(f"{option} expects MIN:MAX:STEPS, got {spec!r}") from exc
    if not math.isfinite(hi - lo):
        raise click.UsageError(f"{option} endpoints and span must be finite, got {spec!r}")
    if steps < 1:
        raise click.UsageError(f"{option} needs at least one step")
    return lo, hi, steps


def _grid(grid: tuple[float, float, int], log_scale: bool) -> list[float]:
    """The points of a ``MIN:MAX:STEPS`` grid, in ascending order."""
    lo, hi, steps = grid
    if log_scale and (lo <= 0 or hi <= 0):
        raise click.UsageError("--log grids need positive endpoints")
    points = np.geomspace(lo, hi, steps) if log_scale else np.linspace(lo, hi, steps)
    return np.sort(points, kind="stable").tolist()


def _finite_number(text: str) -> int | float:
    """JSON number hook: NaN, infinities and literals past the float range are errors."""
    if not math.isfinite(float(text)):
        raise ValueError(f"{text[:24]}{'...' * (len(text) > 24)} is not a finite number")
    return float(text) if "." in text or "e" in text.lower() else int(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle, parse_float=_finite_number, parse_int=_finite_number,
                             parse_constant=_finite_number)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read params file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise click.UsageError(f"params file {path} must hold a JSON object")
    return data


def _quaternion_field(data: dict, key: str) -> Quaternion:
    try:
        return Quaternion.from_list(data[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"params field {key!r} must be a 4-array: {exc}") from exc


def _load_matrix(path: str) -> tuple[QMatrix, MetricOperator]:
    """The matrix and metric objects of a params file (``file`` model, ``validate``).

    The metric object describes a 2x2 metric; without one, the metric is the
    identity of the matrix's size.
    """
    data = _load_json(path)
    try:
        h = QMatrix.from_json_dict(data["matrix"])
    except (KeyError, TypeError, ValueError, QuatstatError) as exc:
        raise click.UsageError(f"malformed matrix object: {exc}") from exc
    with np.errstate(over="ignore"):
        if not math.isfinite(fro_norm(h)):
            raise click.UsageError("matrix entries too large: the squared Frobenius "
                                   "norm overflows the float range")
    if "metric" not in data:
        return h, MetricOperator.identity(h.n)
    spec = data["metric"]
    try:
        x, y = float(spec["x"]), float(spec["y"])
        z_re, z_im = spec.get("z", [0.0, 0.0])
        z = complex(float(z_re), float(z_im))
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"malformed metric object: {exc}") from exc
    try:
        metric = build_metric(x, y, z)
    except QuatstatError as exc:
        raise click.UsageError(f"metric rejected: {exc}") from exc
    if metric.n != h.n:
        raise click.UsageError(f"matrix is {h.n}-dim but metric is {metric.n}-dim")
    return h, metric


def _split_diagonal(h: QMatrix) -> tuple[QMatrix, QMatrix]:
    """``H0 = diag(H)`` and the perturbation ``H - H0``."""
    h0 = QMatrix.diag([h.entry(i, i) for i in range(h.n)])
    return h0, h - h0


def _resolve_model(cfg: SimpleNamespace) -> ModelBundle:
    """The model ``cfg`` names; its ensemble has one particle and ``k = 1``."""
    if cfg.model == "spin":
        try:
            spin = SpinModelParams(omega=cfg.omega, v=cfg.v, x=cfg.x)
            h, _, ensemble = build_spin_model(spin)
        except QuatstatError as exc:
            raise click.UsageError(f"spin params rejected: {exc}") from exc
        return ModelBundle(
            hamiltonian=h,
            ensemble=ensemble,
            slice_params=EnergySliceParams.from_spin(cfg.omega, cfg.v),
        )
    if cfg.model == "qubit":
        h, _, ensemble = build_qubit_model(QubitModelParams(phi=cfg.phi))
        levels = ensemble.levels  # sorted by energy
        return ModelBundle(
            hamiltonian=h,
            ensemble=ensemble,
            slice_params=EnergySliceParams(aE=levels[-1][0], bE=levels[0][0], kappa=0.0),
        )
    if not cfg.params_path:
        raise click.UsageError(f"--model {cfg.model} requires --params FILE")
    if cfg.model == "file":
        h, _ = _load_matrix(cfg.params_path)
        try:
            energies = energies_by_continuity(*_split_diagonal(h))
        except QuatstatError as exc:
            raise click.UsageError(f"cannot assign energies: {exc}") from exc
        return ModelBundle(hamiltonian=h,
                           ensemble=SpectralEnsemble(tuple((e, 1) for e in energies)))
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
        return ModelBundle(slice_params=slice_params)
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
        energies = energies_by_continuity(*_split_diagonal(h))
    except QuatstatError as exc:
        raise click.UsageError(f"toy params rejected: {exc}") from exc
    return ModelBundle(
        hamiltonian=h,
        ensemble=SpectralEnsemble(tuple((e, 1) for e in energies)),
        slice_params=slice_params,
    )


def _negtemp_gas(cfg: SimpleNamespace) -> TwoLevelGas:
    """The two-level gas of ``negtemp``. A params file replaces the model and
    level flags with ``e_plus``/``e_minus`` or ``omega``/``v`` (and ``x``),
    and may set ``n_particles``, which must be a JSON integer."""
    model, values, n = cfg.model, vars(cfg), cfg.n_particles
    try:
        if cfg.params_path:
            data = _load_json(cfg.params_path)
            model = "custom" if "e_plus" in data else "spin" if "omega" in data else None
            if model is None:
                raise click.UsageError(
                    "negtemp params need either e_plus/e_minus or omega/v"
                )
            keys = ("e_plus", "e_minus") if model == "custom" else ("omega", "v")
            values = {key: float(data[key]) for key in keys}
            values["x"] = float(data.get("x", 1.0))
            n = data.get("n_particles", n)
            if type(n) is not int:  # JSON true is an int to Python, 3.0 a float
                raise ValueError(f"n_particles must be a JSON integer, got {n!r}")
        if model == "spin":
            spin = SpinModelParams(omega=values["omega"], v=values["v"], x=values["x"])
            return spin_negative_temperature(spin, n)
        if model == "qubit":
            return qubit_negative_temperature(n)
        if values["e_plus"] is None or values["e_minus"] is None:
            raise click.UsageError("--model custom requires --e-plus and --e-minus")
        return TwoLevelGas(
            n_particles=n, e_plus=values["e_plus"], e_minus=values["e_minus"]
        )
    except (KeyError, TypeError, ValueError, QuatstatError) as exc:
        raise click.UsageError(f"negtemp params rejected: {exc}") from exc


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


_RECORD_FIELDS = [f.name for f in fields(DiscrepancyRecord)]
_record_values = attrgetter(*_RECORD_FIELDS)


def _json_scalar(value) -> str:
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)  # strings, ints, NaN, Infinity, -Infinity


def _json_table(names: list[str], rows: list[tuple]) -> str:
    """The rows as a JSON list of objects named by ``names``, laid out as
    ``json.dumps`` does with an indent of 2, plus a newline. It fills one
    template per row: the pure-Python indent encoder is twice as slow."""
    if not rows:
        return "[]\n"
    row_template = "  {{\n" + ",\n".join(
        f"    {json.dumps(name)}: {{}}" for name in names
    ) + "\n  }}"
    return "[\n" + ",\n".join(
        row_template.format(*map(_json_scalar, row)) for row in rows
    ) + "\n]\n"


def _emit(cfg: SimpleNamespace, header: list[str], rows: list[tuple], records=None):
    """Write the table, then the discrepancy log unless ``records`` is None.

    Both are rendered and every destination is checked first, so that a
    path that cannot be written, or one that names the ``--params`` input,
    is a configuration error with no output.
    """
    if cfg.output == "json":
        table = _json_table(header, rows)
    else:
        lines = [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
        table = "\n".join([",".join(header), *lines]) + "\n"
    writes = [(cfg.out_path, table, f"{len(rows)} rows")] if cfg.out_path else []
    if records is not None:
        log = _json_table(_RECORD_FIELDS, [_record_values(r) for r in records])
        writes.append((cfg.discrepancies_path, log, f"{len(records)} discrepancy records"))
    targets = [Path(path).resolve() for path, _, _ in writes]
    if len(set(targets)) < len(targets):
        raise click.UsageError(f"--out and --discrepancies both name {cfg.out_path}")
    if cfg.params_path and Path(cfg.params_path).resolve() in targets:
        raise click.UsageError(f"cannot write the --params input {cfg.params_path}")
    for path, _, _ in writes:
        parent = Path(path).parent
        if Path(path).is_dir():
            raise click.UsageError(f"cannot write {path}: it is a directory")
        if not (parent.is_dir() and os.access(parent, os.W_OK)):
            raise click.UsageError(f"cannot write {path}: {parent} is not a writable directory")
    if not cfg.out_path:
        click.echo(table, nl=False)
    for path, text, what in writes:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write {path}: {exc}") from exc
        click.echo(f"wrote {what} to {path}", err=True)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_thermo(cfg: SimpleNamespace) -> int:
    bundle = _resolve_model(cfg)
    betas = _grid(cfg.beta_spec, cfg.log_scale)
    if betas[0] <= 0:
        raise click.UsageError("thermo sweeps require beta > 0")

    spectral = cfg.model == "qubit" or cfg.model == "file"
    ensemble = (replace(bundle.ensemble, n_particles=cfg.n_particles, k=cfg.k)
                if spectral else None)

    def one(beta: float):
        if spectral:
            return thermo_spectral(ensemble, beta)
        return thermo_closed_form(
            bundle.slice_params, beta, cfg.n_particles, cfg.k, cfg.rederived, cfg.tolerance
        )

    try:
        # the spectral Z1 = exp(ln Z1) is inf past the float range; A, S, U
        # and Cv come from ln Z1 and stay finite, so the overflow is no news
        with np.errstate(over="ignore"):
            reports = [one(beta) for beta in betas]
    except UnphysicalZ as exc:
        click.echo(f"unphysical branch: {exc}", err=True)
        return 3
    rows = [(r.beta, r.Z1, r.A, r.S, r.U, r.Cv) for r in reports]
    records = [rec for r in reports for rec in r.discrepancies]
    _emit(cfg, ["beta", "Z1", "A", "S", "U", "Cv"], rows, records or None)
    return 0


def run_compare(cfg: SimpleNamespace) -> int:
    bundle = _resolve_model(cfg)
    if bundle.hamiltonian is None or bundle.slice_params is None:
        raise click.UsageError(
            "compare needs a full model (quaternion form); slice-only params "
            "do not determine a Hamiltonian"
        )
    betas = _grid(cfg.beta_spec, cfg.log_scale)
    if betas[0] <= 0:
        raise click.UsageError("compare sweeps require beta > 0")
    h, sl = bundle.hamiltonian, bundle.slice_params
    h0, hp = _split_diagonal(h)
    n, k, tol = cfg.n_particles, cfg.k, cfg.tolerance
    ensemble = replace(bundle.ensemble, n_particles=n, k=k)

    try:
        propagators = dyson_second_order(h0, hp, betas, steps=cfg.dyson_steps)
        z_formal = formal_trace(h, betas)
        z_dyson = formal_trace(h0, betas, propagators)
    except (QuadratureUnconverged, NotNormal) as exc:
        click.echo(f"oracle self-check failed: {exc}", err=True)
        return 1
    # both trace columns come from one eigenbasis each; mat_exp checks the largest beta
    beta = betas[-1]
    u_dyson = mat_mul(bloch_propagator(h0, beta), propagators[-1])
    spot_checks = (
        ("Z_formal", z_formal[-1], re_trace(bloch_propagator(h, beta))),
        ("Z1_dyson", z_dyson[-1], re_trace(u_dyson)),
    )
    for name, value, oracle in spot_checks:
        # written so that a NaN gap fails too
        if not abs(value - oracle) <= SPOT_CHECK_TOL * max(1.0, abs(oracle)):
            click.echo(
                f"oracle self-check failed: {name} = {_fmt(value)} at beta = "
                f"{_fmt(beta)}, mat_exp gives {_fmt(oracle)} (tol {SPOT_CHECK_TOL:.1e})",
                err=True,
            )
            return 1
    slope_line = None
    if fro_norm(hp) > 0.0:
        try:
            slope = dyson_convergence_slope(h0, hp, steps=cfg.dyson_steps)
        except (QuadratureUnconverged, NotNormal) as exc:
            click.echo(f"oracle self-check failed: order slope: {exc}", err=True)
            return 1
        ok = 2.8 <= slope <= 3.2
        slope_line = (f"perturbation order slope = {slope:.3f} (expected 3.0 +- 0.2): "
                      + ("ok" if ok else "FAIL"))
        if not ok:
            click.echo(slope_line, err=True)
            return 1
    rows = [
        (beta, z_spectral(ensemble, beta), zf, z1_formula(sl, beta, rederived=False),
         z1_formula(sl, beta, rederived=True), zd)
        for beta, zf, zd in zip(betas, z_formal, z_dyson)
    ]

    # per beta the log lists Z1, S (rederived report), Cv (printed report),
    # then the spin model's U and S_two_level: that order is part of the file
    records = []
    for beta, _, _, z1_p, z1_r, _ in rows:
        found = [discrepancy("Z1", lambda: z1_p, z1_r, beta, tol)]
        for rederived, quantity in ((True, "S"), (False, "Cv")):
            try:
                report = thermo_closed_form(sl, beta, n, k, rederived, tol, (quantity,))
            except QuatstatError:
                continue
            found += report.discrepancies
        if cfg.model == "spin":
            omega, v = cfg.omega, cfg.v
            checks = (
                ("U", lambda: printed_spin_internal_energy(omega, v, beta, n),
                 n * spin_mean_energy(omega, v, beta)),
                ("S_two_level", lambda: printed_spin_entropy(omega, v, beta, n, k),
                 thermo_spectral(ensemble, beta).S),
            )
            found += [discrepancy(q, printed, d, beta, tol) for q, printed, d in checks]
        records += [r for r in found if r is not None]

    header = ["beta", "Z_spectral", "Z_formal", "Z1_printed", "Z1_rederived", "Z1_dyson"]
    _emit(cfg, header, rows, records)
    arr = np.array([row[1:] for row in rows])
    for label, i, j in (
        ("Z_spectral - Z_formal|   ", 0, 1),
        ("Z1_printed - Z1_rederived|", 2, 3),
        ("Z1_dyson - Z_formal|     ", 4, 1),
    ):
        click.echo(f"max |{label} = {_fmt(np.abs(arr[:, i] - arr[:, j]).max())}", err=True)
    if slope_line:
        click.echo(slope_line, err=True)
    return 0


def run_negtemp(cfg: SimpleNamespace) -> int:
    gas = _negtemp_gas(cfg)
    energies = _grid(cfg.grid_spec or (gas.e_min, gas.e_max, cfg.points), False)
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
    _emit(cfg, ["E", "S_stirling", "S_exact", "T"], rows)
    return 0


def run_validate(cfg: SimpleNamespace) -> int:
    h, metric = _load_matrix(cfg.params_path)
    report = classification_report(h, metric, tol=cfg.tolerance)
    for key in ("pseudo_anti_hermitian", "quasi_anti_hermitian", "pseudo_hermitian"):
        entry = report[key]
        verdict = "yes" if entry["verdict"] else "no"
        label = key.replace("_", "-")
        click.echo(f"{label}: {verdict} (residual {entry['residual']:.6e})")
    click.echo(f"metric-positive: {'yes' if report['metric_positive'] else 'no'}")
    return 0


def run_spectrum(cfg: SimpleNamespace) -> int:
    bundle = _resolve_model(cfg)
    if bundle.ensemble is None:
        raise click.UsageError("model does not define an energy spectrum")
    rows = [(e, g) for e, g in bundle.ensemble.levels]
    _emit(cfg, ["energy", "multiplicity"], rows)
    return 0


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------

def _number(flag: str, default: float | None, help: str):
    return (flag,), dict(type=FINITE, default=default, show_default=True, help=help)


#: Every option of every subcommand, declared once: name -> (declarations,
#: keyword arguments of ``click.option``). Subcommands pick theirs with
#: :func:`_options`, which can replace a default, the choices or a help text.
_OPTIONS = {
    "model": (("--model",), dict(default="spin", show_default=True)),
    "params": (("--params", "params_path"), dict(
        type=click.Path(), default=None, help="JSON params file (toy/file models).")),
    "omega": _number("--omega", 2.0, "Spin model level splitting."),
    "v": _number("--v", 0.5, "Spin model potential strength."),
    "x": _number("--x", 1.0, "Spin model metric parameter."),
    "phi": _number("--phi", 0.0, "Qubit model phase."),
    "e_plus": _number("--e-plus", None, "Upper level (custom model)."),
    "e_minus": _number("--e-minus", None, "Lower level (custom model)."),
    "beta": (("--beta", "beta_spec"), dict(
        callback=_range_option, show_default=True,
        help="Inverse-temperature grid MIN:MAX:STEPS.")),
    "log": (("--log", "log_scale"), dict(is_flag=True, help="Geometric beta grid.")),
    "grid": (("--grid", "grid_spec"), dict(
        callback=_range_option, default=None,
        help="Energy grid MIN:MAX:STEPS (default: the full band).")),
    "points": (("--points",), dict(
        type=click.IntRange(min=1), default=51, show_default=True,
        help="Grid size when --grid is not given.")),
    "n_particles": (("--n-particles",), dict(
        type=click.IntRange(min=1), default=1, show_default=True)),
    "k": _number("--k", 1.0, "Boltzmann constant."),
    "rederived": (("--rederived",), dict(
        is_flag=True, help="Use the re-derived coupling sign on the closed-form path.")),
    "steps": (("--steps", "dyson_steps"), dict(
        type=click.IntRange(min=MIN_DYSON_STEPS), default=128, show_default=True,
        help="Quadrature steps for the perturbative propagator.")),
    "discrepancies": (("--discrepancies", "discrepancies_path"), dict(
        type=click.Path(), default="discrepancies.json", show_default=True)),
    "output": (("--output",), dict(
        type=click.Choice(["csv", "json"]), default="csv", show_default=True)),
    "out": (("--out", "out_path"), dict(
        type=click.Path(), default=None, help="Write the table here instead of stdout.")),
    "tolerance": _number("--tolerance", None, "Comparison tolerance (overrides QUATSTAT_TOL)."),
}


def _options(*names: str, **overrides: dict) -> list[click.Option]:
    """The named options of :data:`_OPTIONS`, in order, with per-command overrides."""
    options = []
    for name in names:
        decls, attrs = _OPTIONS[name]
        attrs = {**attrs, **overrides.get(name, {})}
        if attrs.get("required"):  # click enforces it only without a default
            del attrs["default"]
        options.append(click.Option(decls, **attrs))
    return options


def _config(params: dict, default_tolerance: float = DEFAULT_TOLERANCE) -> SimpleNamespace:
    """Click's parsed parameters by option destination, with the resolved
    tolerance: ``--tolerance``, else ``QUATSTAT_TOL``, else ``default_tolerance``."""
    tolerance, env = params["tolerance"], os.environ.get("QUATSTAT_TOL")
    if tolerance is None and env:
        try:
            tolerance = FINITE.convert(env, None, None)
        except click.BadParameter as exc:
            raise click.UsageError(f"QUATSTAT_TOL is not a number: {env!r}") from exc
    if tolerance is None:
        tolerance = default_tolerance
    if tolerance < 0:
        raise click.UsageError(
            f"--tolerance and QUATSTAT_TOL must not be negative, got {tolerance}")
    return SimpleNamespace(**{**params, "tolerance": tolerance})


@click.group()
def cli():
    """Quaternionic quantum statistical mechanics toolkit."""


_MODEL = ("model", "params", "omega", "v", "x", "phi")
_OUTPUT = ("output", "out")
_ALL_MODELS = {"type": click.Choice(["toy", "spin", "qubit", "file"])}


@cli.command(params=_options(
    *_MODEL, "beta", "log", "n_particles", "k", "rederived", "discrepancies", *_OUTPUT,
    "tolerance", model=_ALL_MODELS, beta={"default": "0.1:5:50"},
))
def thermo(**params):
    """Thermodynamic sweep: beta,Z1,A,S,U,Cv per grid point."""
    sys.exit(run_thermo(_config(params)))


@cli.command(params=_options(
    *_MODEL, "beta", "log", "n_particles", "k", "steps", "discrepancies", *_OUTPUT,
    "tolerance", model={"type": click.Choice(["toy", "spin", "qubit"])},
    beta={"default": "0.1:2:20"},
))
def compare(**params):
    """Partition-function paths side by side, plus a discrepancy log.

    Disagreement between columns is a finding and exits 0; only an oracle
    self-check failure exits 1.
    """
    sys.exit(run_compare(_config(params)))


@cli.command(params=_options(
    "model", "params", "omega", "v", "x", "e_plus", "e_minus", "n_particles", "k",
    "grid", "points", *_OUTPUT,
    model={"type": click.Choice(["spin", "qubit", "custom"])},
    params={"help": "JSON file with omega/v or e_plus/e_minus (and n_particles)."},
    n_particles={"default": 10},
))
def negtemp(**params):
    """Entropy and temperature across the two-level energy band."""
    sys.exit(run_negtemp(SimpleNamespace(**params)))


@cli.command(params=_options(
    "params", "tolerance",
    params={"required": True, "help": "JSON file with matrix and metric objects."},
))
def validate(**params):
    """Classify a matrix against a metric: adjoint-symmetry verdicts."""
    sys.exit(run_validate(_config(params, default_tolerance=DEFAULT_REL_TOL)))


@cli.command(params=_options(*_MODEL, *_OUTPUT, model=_ALL_MODELS))
def spectrum(**params):
    """Energy levels and multiplicities of the resolved model."""
    sys.exit(run_spectrum(SimpleNamespace(**params)))


def main():
    cli()


if __name__ == "__main__":
    main()
