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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import click
import numpy as np

from .errors import EnergyOutOfRange, QuatstatError, UnphysicalZ
from .linalg import (QMatrix, energies_by_continuity, exp_re_trace, fro_norm,
                     require_finite_norm)
from .metric import DEFAULT_REL_TOL, MetricOperator, build_metric, classification_report
from .models import (
    QUBIT_LEVELS,
    QubitModelParams,
    SpinModelParams,
    TwoLevelGas,
    build_qubit_model,
    build_spin_model,
    negtemp_grid,
    printed_spin_grid,
    qubit_negative_temperature,
    spin_mean_energy_grid,
    spin_negative_temperature,
)
from .quaternion import Quaternion
from .thermo import (
    DiscrepancyLog,
    DiscrepancyRecord,
    EnergySliceParams,
    SpectralEnsemble,
    ToyModelParams,
    build_toy_hamiltonian,
    closed_form_grid,
    discrepancies,
    dyson_convergence_slope,
    dyson_trace,
    first_non_finite,
    formal_trace,
    printed_grid,
    spectral_grid,
    van_loan_trace,
    z_spectral_grid,
)

DEFAULT_TOLERANCE = 1e-8
#: Relative bound of compare's spot checks of its two trace columns against
#: oracles (mat_exp and Van Loan's block exponential). They check a fast path,
#: not a display form, so ``--tolerance`` does not set it; at ordinary scale
#: the largest gap seen is about 3e-13.
SPOT_CHECK_TOL = 1e-10
#: The spot checks also allow ``SPOT_CHECK_ROUNDING * eps * beta * |H|`` times
#: the size of the terms a column sums: 1 per phase for ``Z_formal``, up to
#: ``(beta |Hp|)^2`` for the second-order term of ``Z1_dyson``. ``beta H`` is
#: known only to relative ``eps``, and that alone moves every phase
#: ``exp(-beta E)`` by about ``eps * beta |E|``, on any path and in any oracle.
#: Over 15000 seeded toy and spin models with ``beta |H|`` up to 1e10 and
#: metric ratios from 0.01 to 100 the largest gap was 116 of these units. The
#: allowance stays below ``SPOT_CHECK_TOL`` while ``beta |H|`` is under about
#: 1e3, and below 1e-3 up to 1e10, so a wrong column still fails. A last beta
#: where the factor reaches 1 (``beta |H|`` about 1.8e13) is refused.
SPOT_CHECK_ROUNDING = 256


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _FiniteFloat(click.types.FloatParamType):
    """A float that must be finite: NaN and infinities are usage errors, and
    so are zero and negatives where ``positive`` is set."""

    def __init__(self, positive: bool = False):
        self.positive = positive

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number) or self.positive and not number > 0:
            self.fail(f"{value!r} is not a{' positive' * self.positive} finite number.",
                      param, ctx)
        return number


FINITE, POSITIVE = _FiniteFloat(), _FiniteFloat(positive=True)


def _particle_count(n) -> int:
    """``n``, if it is an integer within the float range: every formula takes
    the particle count as a float."""
    if type(n) is not int:  # JSON true is an int to Python, 3.0 a float
        raise ValueError(f"n_particles must be a JSON integer, got {n!r}")
    try:
        float(n)
    except OverflowError:
        raise ValueError("the particle count is past the float range (about 1.8e308)") from None
    return n


def _count_option(ctx, param, n: int) -> int:
    """``--n-particles``: :func:`_particle_count`, refusing as a usage error."""
    try:
        return _particle_count(n)
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from None


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
    try:
        require_finite_norm(h)
    except QuatstatError as exc:
        raise click.UsageError(f"matrix {exc}") from exc
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


def _params_file(cfg: SimpleNamespace) -> str:
    if not cfg.params_path:
        raise click.UsageError(f"--model {cfg.model} requires --params FILE")
    return cfg.params_path


def _toy(cfg: SimpleNamespace) -> EnergySliceParams | ToyModelParams:
    """The toy model of ``--params``: a slice alone where the file gives
    ``aE`` (with ``bE`` and optionally ``kappa``), else its quaternion form."""
    data = _load_json(_params_file(cfg))
    if "aE" in data:
        try:
            return EnergySliceParams(aE=float(data["aE"]), bE=float(data["bE"]),
                                     kappa=float(data.get("kappa", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"malformed slice params: {exc}") from exc
        except QuatstatError as exc:
            raise click.UsageError(f"slice params rejected: {exc}") from exc
    try:
        return ToyModelParams(
            a=_quaternion_field(data, "a"),
            b=_quaternion_field(data, "b"),
            c=_quaternion_field(data, "c"),
            alpha=float(data.get("alpha", 1.0)),
            gamma=float(data.get("gamma", 1.0)),
        )
    except (TypeError, ValueError, QuatstatError) as exc:
        raise click.UsageError(f"toy params rejected: {exc}") from exc


def _slice(cfg: SimpleNamespace) -> EnergySliceParams:
    """The commuting-scalar slice of the model ``cfg`` names, read without
    building its Hamiltonian."""
    if cfg.model == "qubit":
        return EnergySliceParams(*QUBIT_LEVELS, kappa=0.0)
    try:
        if cfg.model == "spin":
            SpinModelParams(omega=cfg.omega, v=cfg.v, x=cfg.x)  # refuses omega <= 0, v or x 0
            return EnergySliceParams.from_spin(cfg.omega, cfg.v)
        toy = _toy(cfg)
        return toy if isinstance(toy, EnergySliceParams) else EnergySliceParams.from_toy(toy)
    except QuatstatError as exc:
        raise click.UsageError(f"{cfg.model} params rejected: {exc}") from exc


def _matrix_model(cfg: SimpleNamespace) -> tuple[QMatrix, SpectralEnsemble]:
    """The Hamiltonian of the model ``cfg`` names and its ensemble, which has
    one particle and ``k = 1``."""
    if cfg.model == "qubit":
        h, _, ensemble = build_qubit_model(QubitModelParams(phi=cfg.phi))
        return h, ensemble
    source = "cannot assign energies" if cfg.model == "file" else f"{cfg.model} params rejected"
    try:
        if cfg.model == "spin":
            h, _, ensemble = build_spin_model(SpinModelParams(omega=cfg.omega, v=cfg.v, x=cfg.x))
            return h, ensemble
        if cfg.model == "file":
            h, _ = _load_matrix(_params_file(cfg))
        else:
            toy = _toy(cfg)
            if isinstance(toy, EnergySliceParams):
                raise click.UsageError("slice-only params (aE, bE, kappa) do not determine "
                                       "a Hamiltonian or its spectrum")
            h = build_toy_hamiltonian(toy)
        energies = energies_by_continuity(*_split_diagonal(h))
    except (ValueError, QuatstatError) as exc:  # ValueError: an entry past the float range
        raise click.UsageError(f"{source}: {exc}") from exc
    return h, SpectralEnsemble(tuple((e, 1) for e in energies))


#: The flags that set each ``negtemp`` gas, named when the gas is refused.
_NEGTEMP_FLAGS = {"spin": "--omega/--v/--x/", "qubit": "", "custom": "--e-plus/--e-minus/"}


def _negtemp_gas(cfg: SimpleNamespace) -> TwoLevelGas:
    """The two-level gas of ``negtemp``. A params file replaces the model and
    level flags with ``e_plus``/``e_minus`` or ``omega``/``v`` (and ``x``),
    and may set ``n_particles``, which must be a JSON integer. A refused gas
    is a usage error that names the params file or the flags that set it."""
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
            n = _particle_count(data.get("n_particles", n))
        if model == "spin":
            spin = SpinModelParams(omega=values["omega"], v=values["v"], x=values["x"])
            return spin_negative_temperature(spin, n)
        if model == "qubit":
            return qubit_negative_temperature(n)
        if values["e_plus"] is None or values["e_minus"] is None:
            raise click.UsageError("--model custom requires --e-plus and --e-minus")
        return TwoLevelGas(n_particles=n, e_plus=values["e_plus"], e_minus=values["e_minus"])
    except (KeyError, TypeError, ValueError, QuatstatError) as exc:
        source = "params" if cfg.params_path else f"{_NEGTEMP_FLAGS[model]}--n-particles"
        raise click.UsageError(f"negtemp {source} rejected: {exc}") from exc


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


_RECORD_FIELDS = list(DiscrepancyRecord._fields)


def _json_cells(column: Sequence) -> list[str]:
    """``json.dumps`` of each cell: through ``repr`` for a column of finite
    Python floats, ``encode_basestring_ascii`` for a column of strings, and
    ``json.dumps`` itself for any other (ints, numpy floats, NaN, infinities)."""
    types = set(map(type, column))
    if types == {float} and math.isfinite(sum(column)):
        return list(map(float.__repr__, column))
    return list(map(encode_basestring_ascii if types == {str} else json.dumps, column))


def _json_table(names: list[str], cells: list[list[str]]) -> str:
    """Columns of :func:`_json_cells` as a JSON list of objects named by
    ``names``, laid out as ``json.dumps`` does with an indent of 2, plus a
    newline. Every row fills one template; the pure-Python indent encoder is
    several times slower."""
    if not cells or not cells[0]:
        return "[]\n"
    template = "  {\n" + ",\n".join(
        f"    {json.dumps(name).replace('%', '%%')}: %s" for name in names) + "\n  }"
    return "[\n" + ",\n".join(template % row for row in zip(*cells)) + "\n]\n"


def _log_cells(log: DiscrepancyLog, beta_cells: list[str],
               shared: dict[str, list[str]]) -> list[list[str]]:
    """The :func:`_json_cells` of the discrepancy log. A record's ``beta``
    cell is ``beta_cells[at]``, and where ``shared`` holds the table cells
    of its quantity's derived column, its ``derived_value`` cell is the cell
    at ``at`` there; every other value is encoded here."""
    own = iter(_json_cells([v for q, v in zip(log.quantity, log.derived_value)
                            if q not in shared]))
    derived = [shared[q][i] if q in shared else next(own)
               for q, i in zip(log.quantity, log.at)]
    return [_json_cells(log.quantity), _json_cells(log.printed_value), derived,
            list(map(beta_cells.__getitem__, log.at))]


def _csv_table(header: list[str], columns: list[Sequence]) -> str:
    """The header and columns as CSV, numbers at 17 significant digits. Every
    row fills one template, ``%s`` for a column of strings (negtemp's ``T``)
    and ``%.17g`` for any other."""
    template = ",".join("%s" if set(map(type, column)) == {str} else "%.17g"
                        for column in columns)
    return "\n".join([",".join(header), *(template % row for row in zip(*columns))]) + "\n"


def _emit(cfg: SimpleNamespace, header: list[str], columns: list[Sequence],
          log: DiscrepancyLog | None = None, derived_columns: dict[str, str] | None = None):
    """Write the table, then the discrepancy log unless ``log`` is None.

    Each float is formatted once per format: the log's ``beta`` cells are the
    JSON cells of the first column, the grid that ``at`` indexes, and under
    ``--output json`` a quantity's ``derived_value`` cells are those of the
    table column that ``derived_columns`` names for it. Both texts are
    rendered and every destination is checked first, so that a path that
    cannot be written, or names the ``--params`` input, is a usage error
    with no output.
    """
    if cfg.output == "json":
        cells = dict(zip(header, map(_json_cells, columns)))
        table = _json_table(header, list(cells.values()))
    else:
        cells, table = {}, _csv_table(header, columns)
    writes = [(cfg.out_path, table, f"{len(columns[0])} rows")] if cfg.out_path else []
    if log is not None:
        beta_cells = cells.get(header[0]) or _json_cells(columns[0])
        shared = {q: cells[name] for q, name in (derived_columns or {}).items() if name in cells}
        text = _json_table(_RECORD_FIELDS, _log_cells(log, beta_cells, shared))
        writes.append((cfg.discrepancies_path, text, f"{len(log)} discrepancy records"))
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


def _betas(cfg: SimpleNamespace, command: str) -> list[float]:
    betas = _grid(cfg.beta_spec, cfg.log_scale)
    if betas[0] <= 0:
        raise click.UsageError(f"{command} sweeps require beta > 0")
    return betas


def run_thermo(cfg: SimpleNamespace) -> int:
    if cfg.model == "qubit" or cfg.model == "file":
        ensemble = SpectralEnsemble(_matrix_model(cfg)[1].levels, cfg.n_particles, cfg.k)
        grid, path = spectral_grid(ensemble, _betas(cfg, "thermo")), "spectrum"
        log = None  # the spectral models have no display forms
    else:
        grid = closed_form_grid(_slice(cfg), _betas(cfg, "thermo"), cfg.n_particles, cfg.k,
                                cfg.rederived, cfg.tolerance)
        path, log = "slice", grid.discrepancies
    if isinstance(grid.error, UnphysicalZ):
        click.echo(f"unphysical branch: {grid.error}", err=True)
        return 3
    if grid.error is not None:
        raise click.UsageError(f"{cfg.model} {path} overflows the float range: {grid.error}")
    header = ["beta", "Z1", "A", "S", "U", "Cv"]
    _emit(cfg, header, [getattr(grid, name) for name in header], log,
          {"U": "U", "S": "S", "Cv": "Cv"})
    return 0


def run_compare(cfg: SimpleNamespace) -> int:
    sl = _slice(cfg)
    h, ensemble = _matrix_model(cfg)
    betas = _betas(cfg, "compare")
    h0, hp = _split_diagonal(h)
    n, k, tol = cfg.n_particles, cfg.k, cfg.tolerance
    ensemble = SpectralEnsemble(ensemble.levels, n, k)

    beta = betas[-1]
    hb = beta * fro_norm(hp)  # squared as hb * hb: the float power hb ** 2 raises past 1e154
    try:
        # refused past the float range: the trace columns or their last-beta checks
        z_formal = formal_trace(h, betas).tolist()
        z_dyson = dyson_trace(h0, hp, betas).tolist()
        oracles = {"mat_exp": [exp_re_trace(-h, beta)],
                   "Van Loan": [van_loan_trace(h0, hp, beta)], "(beta |Hp|)^2": [hb * hb]}
        if error := (first_non_finite(betas, {"Z_formal": z_formal, "Z1_dyson": z_dyson})
                     or first_non_finite([beta], oracles)):
            raise click.UsageError(f"{cfg.model} trace columns overflow the float range: {error}")
    except QuatstatError as exc:
        click.echo(f"oracle self-check failed: {exc}", err=True)
        return 1
    rounding = SPOT_CHECK_ROUNDING * sys.float_info.epsilon * beta * fro_norm(h)
    if not rounding < 1.0:  # from 1 on, a check passes whatever the column holds
        raise click.UsageError(f"{cfg.model} spot checks cannot resolve beta = {_fmt(beta)}: "
                               f"beta |H| = {_fmt(beta * fro_norm(h))} reaches "
                               f"1/({SPOT_CHECK_ROUNDING} eps)")
    for name, value, oracle_name, term in (("Z_formal", z_formal[-1], "mat_exp", 1.0),
                                           ("Z1_dyson", z_dyson[-1], "Van Loan", hb * hb)):
        oracle = oracles[oracle_name][0]
        scale = max(1.0, abs(oracle))
        allowed = SPOT_CHECK_TOL * scale + rounding * max(scale, term)
        # written so that a NaN gap fails too
        if not abs(value - oracle) <= allowed:
            click.echo(
                f"oracle self-check failed: {name} = {_fmt(value)} at beta = "
                f"{_fmt(beta)}, {oracle_name} gives {_fmt(oracle)} "
                f"(tol {allowed / scale:.1e})",
                err=True,
            )
            return 1
    slope_line = None
    if fro_norm(hp) > 0.0:
        try:
            slope = dyson_convergence_slope(h0, hp)
        except QuatstatError as exc:
            click.echo(f"oracle self-check failed: order slope: {exc}", err=True)
            return 1
        ok = 2.8 <= slope <= 3.2
        slope_line = (f"perturbation order slope = {slope:.3f} (expected 3.0 +- 0.2): "
                      + ("ok" if ok else "FAIL"))
        if not ok:
            click.echo(slope_line, err=True)
            return 1
    printed = closed_form_grid(sl, betas, n, k, False, quantities=())
    rederived = closed_form_grid(sl, betas, n, k, True, quantities=())
    z_spectral = z_spectral_grid(ensemble, betas)

    # per beta the log lists Z1, S (rederived report), Cv (printed report),
    # then the spin model's U and S_two_level: that order is part of the file;
    # an unphysical report's NaN column gives no record
    forms = printed_grid(sl, betas, n, k)
    checks = [("Z1", printed.Z1, rederived.Z1), ("S", forms["S"], rederived.S),
              ("Cv", forms["Cv"], printed.Cv)]
    if cfg.model == "spin":
        spin = printed_spin_grid(cfg.omega, cfg.v, betas, n, k)
        u_spectral = spin_mean_energy_grid(cfg.omega, cfg.v, betas, n)
        checks += [("U", spin["U"], u_spectral),
                   ("S_two_level", spin["S"], spectral_grid(ensemble, betas).S)]

    header = ["beta", "Z_spectral", "Z_formal", "Z1_printed", "Z1_rederived", "Z1_dyson"]
    columns = [betas, z_spectral, z_formal, printed.Z1, rederived.Z1, z_dyson]
    _emit(cfg, header, columns, discrepancies(checks, betas, tol), {"Z1": "Z1_rederived"})
    for label, i, j in (
        ("Z_spectral - Z_formal|   ", 1, 2),
        ("Z1_printed - Z1_rederived|", 3, 4),
        ("Z1_dyson - Z_formal|     ", 5, 2),
    ):
        # finite columns of opposite sign near 1e308 overflow, and inf - inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.abs(np.subtract(columns[i], columns[j])).max()
        click.echo(f"max |{label} = {_fmt(gap)}", err=True)
    if slope_line:
        click.echo(slope_line, err=True)
    return 0


def run_negtemp(cfg: SimpleNamespace) -> int:
    gas = _negtemp_gas(cfg)
    energies = _grid(cfg.grid_spec or (gas.e_min, gas.e_max, cfg.points), False)
    try:
        grid = negtemp_grid(gas, energies, cfg.k)
    except EnergyOutOfRange as exc:
        raise click.UsageError(f"E = {exc.energy}: {exc}") from exc
    energy, _, _, s_model, s_exact, _, t = zip(*grid)
    cells = ["infinite" if value is None else _fmt(value) for value in t]
    _emit(cfg, ["E", "S_stirling", "S_exact", "T"], [energy, s_model, s_exact, cells])
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
    _, ensemble = _matrix_model(cfg)
    _emit(cfg, ["energy", "multiplicity"], list(zip(*ensemble.levels)))
    return 0


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------

def _number(flag: str, default: float | None, help: str, type=FINITE):
    return (flag,), dict(type=type, default=default, show_default=True, help=help)


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
        type=click.IntRange(min=1), default=1, show_default=True, callback=_count_option)),
    "k": _number("--k", 1.0, "Boltzmann constant.", POSITIVE),
    "rederived": (("--rederived",), dict(
        is_flag=True, help="Use the re-derived coupling sign on the closed-form path.")),
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
    *_MODEL, "beta", "log", "n_particles", "k", "discrepancies", *_OUTPUT,
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
