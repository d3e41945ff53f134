"""The grid paths against the scalar oracle in ``scalar_oracle.py``, bit for bit.

Every value is compared by ``repr``, which tells apart any two floats
(``-0.0`` from ``0.0`` included). Where a scalar display form raises, the
grid holds NaN; where it divides by zero (Python raises, IEEE arithmetic gives
an infinity or NaN), the grid value is not finite and logs no record.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
import scalar_oracle as oracle

from quatstat import EnergySliceParams, SpectralEnsemble, SpinModelParams, models, thermo
from quatstat.errors import (
    ConstraintViolation,
    DegenerateLevels,
    EnergyOutOfRange,
    InfiniteTemperature,
    QuatstatError,
    UnphysicalZ,
)

FORMS = ("U", "S", "Cv")


def oracle_printed(quantity, p, beta, n, k):
    """The scalar display form, NaN where it raises; ``None`` where it
    divides by zero."""
    try:
        return oracle.SLICE_FORMS[quantity](p, beta, n, k)
    except (OverflowError, QuatstatError):
        return math.nan
    except ZeroDivisionError:
        return None


def records(log) -> list:
    """The oracle's records of a columnar log, in its order."""
    return list(map(oracle.DiscrepancyRecord, log.quantity, log.printed_value,
                    log.derived_value, log.beta))


def as_oracle(report):
    """A report in the oracle's form: its log as a list of records."""
    return oracle.ThermoReport(*list(report._asdict().values())[:6], records(report.discrepancies))


def oracle_closed_form(p, betas, n, k, rederived, tol):
    """Rows, records and the first error of the scalar closed form over a grid.

    An unphysical beta keeps its ``Z1`` and is NaN elsewhere, as in the grid.
    """
    rows, records, first_error = [], [], None
    for beta in betas:
        z1 = oracle.z1_formula(p, beta, rederived)
        try:
            r = oracle.thermo_closed_form(p, beta, n, k, rederived, tol, quantities=())
        except UnphysicalZ as exc:
            first_error = first_error or str(exc)
            rows.append((beta, z1) + (math.nan,) * 4)
            continue
        assert repr(r.Z1) == repr(z1)
        rows.append((r.beta, r.Z1, r.A, r.S, r.U, r.Cv))
        for q in FORMS:
            value = oracle_printed(q, p, beta, n, k)
            record = oracle.discrepancy(
                q, lambda: math.nan if value is None else value, getattr(r, q), beta, tol)
            records += [record] if record else []
    return rows, records, first_error


def check_closed_form(p, betas, n, k, rederived, tol):
    want_rows, want_records, want_error = oracle_closed_form(p, betas, n, k, rederived, tol)
    grid = thermo.closed_form_grid(p, betas, n, k, rederived, tol)
    assert repr(grid.rows()) == repr(want_rows)
    assert repr(records(grid.discrepancies)) == repr(want_records)
    assert (None if grid.error is None else str(grid.error)) == want_error
    assert all(type(v) is float for row in grid.rows() for v in row)
    forms = thermo.printed_grid(p, betas, n, k)
    assert tuple(forms) == FORMS
    for q in FORMS:
        for beta, value in zip(betas, forms[q].tolist()):
            want = oracle_printed(q, p, beta, n, k)
            if want is None:
                assert not math.isfinite(value), (q, beta)
            else:
                assert repr(value) == repr(want), (q, p, beta, n, k)
    return grid


def random_count(rng) -> int:
    return int(10 ** rng.uniform(0.0, 20.0)) if rng.random() < 0.5 else int(rng.integers(1, 11))


def random_grid(rng, hi: float) -> list[float]:
    lo = 10 ** rng.uniform(-3.0, 0.0)
    steps = int(rng.integers(100, 400))
    points = np.geomspace(lo, hi, steps) if rng.random() < 0.5 else np.linspace(lo, hi, steps)
    return np.sort(points).tolist()


def random_slice(rng, kind: str) -> EnergySliceParams:
    if kind == "spin":
        return EnergySliceParams.from_spin(rng.uniform(0.1, 5.0), rng.uniform(0.01, 3.0))
    if kind == "toy":
        a, b = rng.uniform(-3.0, 3.0, size=2)
        return EnergySliceParams(float(a), float(b), float(rng.uniform(-1.0, 1.0)))
    # near-degenerate, on both sides of DEGENERACY_TOL, and exactly degenerate
    gap = 0.0 if rng.random() < 0.2 else 10 ** -rng.uniform(3.0, 12.0)
    b = float(rng.uniform(-1.0, 1.0))
    return EnergySliceParams(b + gap, b, float(rng.uniform(-0.5, 0.5)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_closed_form_grid_is_the_scalar_oracle(seed):
    rng = np.random.default_rng(1700 + seed)
    crossed = 0
    for case in range(30):
        kind = ("spin", "toy", "near")[case % 3]
        p = random_slice(rng, kind)
        hi = float(rng.choice([5.0, 40.0, 800.0]))
        tol = float(rng.choice([1e-8, 0.0, 1e-3]))
        for rederived in (False, True):
            grid = check_closed_form(p, random_grid(rng, hi), random_count(rng),
                                     float(rng.uniform(0.5, 2.0)), rederived, tol)
            crossed += grid.error is not None
    assert crossed  # some grids cross Z1 <= 0


def test_closed_form_grid_at_the_edges():
    # a subnormal gap, beta up to 800 where the display forms overflow, a
    # grid that crosses Z1 <= 0 (the spin model's rederived branch), and
    # levels far below zero where the display denominators underflow to zero
    gap = EnergySliceParams(aE=3e-308, bE=math.nextafter(3e-308, 1.0), kappa=0.2)
    spin = EnergySliceParams.from_spin(2.0, 0.5)
    deep = EnergySliceParams(aE=-1.0, bE=-2.0, kappa=-0.1)
    betas = np.linspace(0.5, 800.0, 401).tolist()
    for p in (gap, spin, deep):
        for rederived in (False, True):
            for tol in (1e-8, 0.0):
                check_closed_form(p, betas, 3, 1.3, rederived, tol)
    grid = check_closed_form(spin, np.linspace(1.0, 20.0, 39).tolist(), 1, 1.0, True, 1e-8)
    assert str(grid.error) == "Z1 = -307.173 is not positive at beta = 8.5"
    assert math.isnan(thermo.printed_grid(spin, [800.0])["Cv"][0])


def test_math_each_calls_once_per_element():
    # a failing element is NaN and the map goes on after it: no element is
    # evaluated twice, and the values around the failures are kept
    calls = []

    def log(x):
        calls.append(x)
        return math.log(x)

    values = [2.0, -1.0, 3.0, 0.0, -0.0, 5.0, -2.0]
    got = thermo._math_each(log, np.array(values)).tolist()
    assert calls == values
    assert repr(got) == repr([math.log(2.0), math.nan, math.log(3.0), math.nan, math.nan,
                              math.log(5.0), math.nan])
    assert thermo._math_each(math.exp, np.array([1.0, 1e300, -1.0])).tolist()[::2] == [
        math.exp(1.0), math.exp(-1.0)]


def test_one_point_wrappers_are_the_scalar_oracle():
    rng = np.random.default_rng(1717)
    for case in range(300):
        p = random_slice(rng, ("spin", "toy", "near")[case % 3])
        beta = float(10 ** rng.uniform(-2.0, 2.9))
        n, k, rederived = random_count(rng), float(rng.uniform(0.5, 2.0)), bool(case % 2)
        assert repr(thermo.z1_formula(p, beta, rederived)) == repr(
            oracle.z1_formula(p, beta, rederived))
        try:
            want = oracle.thermo_closed_form(p, beta, n, k, rederived)
        except UnphysicalZ as exc:
            with pytest.raises(UnphysicalZ, match=f"^{re.escape(str(exc))}$"):
                thermo.thermo_closed_form(p, beta, n, k, rederived)
        except ZeroDivisionError:
            pass
        else:
            assert repr(as_oracle(thermo.thermo_closed_form(p, beta, n, k, rederived))) == repr(
                want)
        wrappers = {"U": lambda: thermo.printed_internal_energy(p, beta, n),
                    "S": lambda: thermo.printed_entropy(p, beta, n, k),
                    "Cv": lambda: thermo.printed_specific_heat(p, beta, n, k)}
        for q, wrapper in wrappers.items():
            want = oracle_printed(q, p, beta, n, k)
            if abs(p.aE - p.bE) < thermo.DEGENERACY_TOL:
                with pytest.raises(DegenerateLevels):
                    wrapper()
            elif want is not None:
                assert repr(wrapper()) == repr(want), (q, p, beta)


def oracle_spin(form, *args):
    """A scalar spin display form, or None where it raises."""
    try:
        return form(*args)
    except (OverflowError, UnphysicalZ, ZeroDivisionError):
        return None


def zero_denominator_beta(omega: float, v: float) -> float | None:
    """A beta > 0 at which the scalar spin display denominator is exactly 0.0
    (its division raises), near the root found by bisection; None if there
    is none within 64 floats of it or the root is past the sinh range."""
    def den(beta):
        half = 0.5 * omega * beta
        return 2.0 * omega * math.cosh(half) - 2.0 * beta * v * v * math.sinh(half)
    lo, hi = 1e-6, 1.0
    while den(hi) > 0.0:
        if omega * hi > 700.0:
            return None
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if den(mid) > 0.0 else (lo, mid)
    down = up = lo
    for _ in range(64):
        for beta in (down, up):
            if oracle_spin(oracle.printed_spin_internal_energy, omega, v, beta) is None:
                return beta
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
    return None


def check_spin(omega, v, betas, n, k) -> int:
    """The spin grid forms against the scalar oracle at each beta, row by row;
    the number of betas where a scalar display form raises."""
    forms = models.printed_spin_grid(omega, v, betas, n, k)
    assert tuple(forms) == ("U", "S")
    mean = models.spin_mean_energy_grid(omega, v, betas).tolist()
    u, s = forms["U"].tolist(), forms["S"].tolist()
    failed = 0
    for beta, got_mean, got_u, got_s in zip(betas, mean, u, s):
        assert repr(got_mean) == repr(oracle.spin_mean_energy(omega, v, beta))
        for got, want in ((got_u, oracle_spin(oracle.printed_spin_internal_energy,
                                               omega, v, beta, n)),
                          (got_s, oracle_spin(oracle.printed_spin_entropy,
                                              omega, v, beta, n, k))):
            if want is None:
                failed += 1
                assert not math.isfinite(got), (omega, v, beta, n, k)
            else:
                assert repr(got) == repr(want), (omega, v, beta, n, k)
    return failed


@pytest.mark.parametrize("seed", [0, 1])
def test_spin_grid_is_the_scalar_oracle(seed):
    # grids run past the cosh range (beta ~ 1420/omega) and through the betas
    # where the log argument is not positive; the zero-denominator betas are
    # found for each model and checked on a grid of their own
    rng = np.random.default_rng(1900 + seed)
    failed = zeros = 0
    for case in range(40):
        omega = float(10 ** rng.uniform(-1.0, 0.7))
        v = float(rng.uniform(0.01, 3.0)) * float(rng.choice([-1.0, 1.0]))
        n = random_count(rng) if case % 5 else int(rng.choice([3e305, 10**308]))
        k = float(rng.uniform(0.5, 2.0))
        hi = float(rng.choice([5.0, 40.0, 2000.0 / omega]))
        failed += check_spin(omega, v, random_grid(rng, hi), n, k)
        zero = zero_denominator_beta(omega, v)
        if zero is not None:
            zeros += 1
            assert check_spin(omega, v, [0.5 * zero, zero, math.nextafter(zero, 0.0)], n, k)
    assert failed and zeros >= 5


def test_spin_one_point_wrappers_are_the_scalar_oracle():
    # NaN or another non-finite value where the scalar form raises
    rng = np.random.default_rng(1901)
    for case in range(300):
        omega = float(10 ** rng.uniform(-1.0, 0.7))
        v = float(rng.uniform(0.01, 3.0)) * float(rng.choice([-1.0, 1.0]))
        n, k = random_count(rng), float(rng.uniform(0.5, 2.0))
        beta = float(10 ** rng.uniform(-2.0, 3.5)) * (-1.0 if case % 7 == 0 else 1.0)
        if case % 10 == 1:
            beta = zero_denominator_beta(omega, v) or beta
        for got, form, args in (
                (models.printed_spin_internal_energy(omega, v, beta, n),
                 oracle.printed_spin_internal_energy, (n,)),
                (models.printed_spin_entropy(omega, v, beta, n, k),
                 oracle.printed_spin_entropy, (n, k))):
            want = oracle_spin(form, omega, v, beta, *args)
            assert type(got) is float
            if want is None:
                assert not math.isfinite(got), (omega, v, beta)
            else:
                assert repr(got) == repr(want), (omega, v, beta)


def random_ensemble(rng) -> SpectralEnsemble:
    size = int(rng.integers(2, 6))
    levels = tuple((float(e), int(g)) for e, g in zip(
        rng.uniform(-3.0, 3.0, size=size) * 10 ** rng.uniform(-2.0, 1.0),
        rng.integers(1, 4, size=size)))
    return SpectralEnsemble(levels, n_particles=random_count(rng), k=float(rng.uniform(0.5, 2)))


def test_spectral_grid_is_the_scalar_oracle():
    rng = np.random.default_rng(1718)
    with np.errstate(over="ignore"):  # Z1 = exp(ln Z1) past the float range is inf
        for _ in range(60):
            e = random_ensemble(rng)
            betas = random_grid(rng, float(rng.choice([5.0, 100.0, 800.0])))
            grid = thermo.spectral_grid(e, betas)
            want = [oracle.thermo_spectral(e, beta) for beta in betas]
            assert repr(grid.rows()) == repr([(r.beta, r.Z1, r.A, r.S, r.U, r.Cv) for r in want])
            assert repr(thermo.z_spectral_grid(e, betas)) == repr(
                [oracle.z_spectral(e, beta) for beta in betas])
            assert all(type(v) is float for row in grid.rows() for v in row)
            beta = betas[len(betas) // 2]
            assert repr(as_oracle(thermo.thermo_spectral(e, beta))) == repr(
                oracle.thermo_spectral(e, beta))
            assert repr(thermo.z_spectral(e, beta)) == repr(oracle.z_spectral(e, beta))


def oracle_negtemp(g, energies, k):
    """Rows of the scalar gas functions over ``energies`` (the rows of the
    columns that :func:`models.negtemp_grid` gives), and the first error's text."""
    rows = []
    for energy in energies:
        try:
            s_model = oracle.entropy_stirling(g, energy, k)
        except EnergyOutOfRange as exc:
            return rows, str(exc)
        try:
            t = oracle.temperature(g, energy, k)
        except InfiniteTemperature:
            t = None
        rows.append((energy, *oracle.occupation_numbers(g, energy), s_model,
                     k * oracle.log_multiplicity(g, energy),
                     oracle.inverse_temperature(g, energy, k), t))
    return rows, None


def check_negtemp(g, energies, k):
    want, error = oracle_negtemp(g, energies, k)
    if error is None:
        columns = models.negtemp_grid(g, energies, k)
        assert [len(column) for column in columns] == [len(want)] * 7
        # Python floats whatever the energies' type; only T holds None
        assert all(type(v) is float for column in columns[:6] for v in column)
        assert all(v is None or type(v) is float for v in columns[6])
        for got_row, want_row in zip(zip(*columns), want):  # row by row: a short report
            want_row = tuple(v if v is None else float(v) for v in want_row)
            assert repr(got_row) == repr(want_row), (g, k)
    else:
        with pytest.raises(EnergyOutOfRange, match=f"^{re.escape(error)}$"):
            models.negtemp_grid(g, energies, k)
    return error


def random_gas(rng, kind: str, n: int):
    if kind == "spin":
        v = float(rng.uniform(0.01, 3.0)) * float(rng.choice([-1.0, 1.0]))
        return models.spin_negative_temperature(
            SpinModelParams(float(rng.uniform(0.1, 5.0)), v, 1.0), n)
    if kind == "qubit":
        return models.qubit_negative_temperature(n)
    e_minus = float(rng.uniform(-3.0, 3.0)) * 10 ** rng.uniform(-3.0, 3.0)
    return models.TwoLevelGas(n, e_minus + float(10 ** rng.uniform(-3.0, 1.0)), e_minus)


def band_grid(g, points: int, out: float = 0.0) -> list[float]:
    """``--points`` over the band, or a ``--grid`` that passes each edge by
    ``out`` times the gas's slack; ascending, as the command builds it."""
    spread = out * g._slack()
    return np.sort(np.linspace(g.e_min - spread, g.e_max + spread, points)).tolist()


@pytest.mark.parametrize("seed", [0, 1])
def test_negtemp_grid_is_the_scalar_oracle(seed):
    rng = np.random.default_rng(1800 + seed)
    errors = 0
    for case in range(45):
        kind = ("spin", "qubit", "custom")[case % 3]
        n = random_count(rng) if case % 5 else int(rng.choice([3e305, 1e306, 10**308]))
        try:
            g = random_gas(rng, kind, n)
        except ConstraintViolation:  # a band past the float range
            continue
        k = float(rng.uniform(0.5, 2.0))
        points = int(rng.choice([3, 4, int(rng.integers(2, 300)), 2000, 2001]))
        # within the slack of each edge, or past it
        out = float(rng.choice([0.0, 0.0, 0.5, 3.0]))
        errors += check_negtemp(g, band_grid(g, points, out), k) is not None
    assert errors  # some grids leave the band


def test_negtemp_grid_at_the_edges():
    gases = [
        models.TwoLevelGas(1, 5e-324, 0.0),  # a subnormal band
        models.TwoLevelGas(1, 1e-300, 0.0),  # a slack far below 1e-12
        models.TwoLevelGas(10**308, 1.5, 0.5),  # Stirling, next to the float range
        models.TwoLevelGas(int(3e305), 1.0, -1.0),
        models.TwoLevelGas(10**306, 2.0, 0.0),
        models.TwoLevelGas(7, 8e307 / 7, -8e307 / 7),
        models.qubit_negative_temperature(10),
    ]
    for g in gases:
        for points in (1, 2, 3, 4, 5, 2001):
            assert check_negtemp(g, band_grid(g, points), 1.3) is None
        assert check_negtemp(g, band_grid(g, 7, 0.99), 0.7) is None
        assert check_negtemp(g, band_grid(g, 7, 3.0), 0.7) is not None
    # the first energy out of the band in grid order names the error
    g = models.qubit_negative_temperature(2)
    error = check_negtemp(g, [0.0, 4.0, -1.0, 5.0], 1.0)
    assert error == "E = -1.0 outside [0.0, 4.0] for this gas"
    # a NaN energy gives the oracle's row of NaN and raises nothing (and -0.0
    # keeps its N+ = -0.0); an infinite one is out of the band, and the first
    # in grid order names it
    assert check_negtemp(g, [0.0, math.nan, -0.0, 2.0, 4.0, math.nan], 1.0) is None
    error = check_negtemp(g, [1.0, math.nan, math.inf, 3.0, -math.inf], 1.0)
    assert error == "E = inf outside [0.0, 4.0] for this gas"
    error = check_negtemp(g, [math.nan, -math.inf, math.inf], 1.0)
    assert error == "E = -inf outside [0.0, 4.0] for this gas"
    # numpy float energies give Python float cells, of the scalar functions' values
    assert check_negtemp(g, np.linspace(-1.0, 5.0, 13), 1.0) is not None
    assert check_negtemp(g, np.linspace(0.0, 4.0, 13), 1.0) is None


def test_negtemp_one_point_wrappers_are_the_scalar_oracle():
    rng = np.random.default_rng(1801)
    for case in range(120):
        g = random_gas(rng, ("spin", "qubit", "custom")[case % 3], random_count(rng))
        k = float(rng.uniform(0.5, 2.0))
        for energy in [*band_grid(g, 5, 0.5), *np.linspace(g.e_min, g.e_max, 3)]:
            assert repr(models.entropy_stirling(g, energy, k)) == repr(
                oracle.entropy_stirling(g, energy, k))
            assert repr(models.log_multiplicity(g, energy)) == repr(
                oracle.log_multiplicity(g, energy))
            try:
                want = oracle.temperature(g, energy, k)
            except InfiniteTemperature as exc:
                with pytest.raises(InfiniteTemperature, match=f"^{re.escape(str(exc))}$"):
                    models.temperature(g, energy, k)
            else:
                assert repr(models.temperature(g, energy, k)) == repr(want)
