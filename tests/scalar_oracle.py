"""The scalar slice, spectral and two-level gas forms, one point per call: the
bit-for-bit oracle.

These are the one-point implementations that ``quatstat.thermo`` and
``quatstat.models`` evaluated before their grid functions (the spin display
forms and mean energy included), kept verbatim so that ``tests/test_grid.py``
can require the grid path to reproduce every value, every discrepancy record
and every error bit for bit. Only the imports are new, and the two record
types below, as the package had them before its reports held the grid's
columnar log. The Dyson order study and Van Loan's trace, as they were before
``compare`` shared their small-matrix work (one call per scale, ``np.block``),
are kept here the same way, and so is the scalar ``xlogy`` that the gas
functions called before ``models.xlogy`` took arrays. Nothing in the package
imports this module.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from quatstat.errors import (
    ConstraintViolation,
    DegenerateLevels,
    EnergyOutOfRange,
    InfiniteTemperature,
    QuatstatError,
    UnphysicalZ,
)
from quatstat.linalg import QMatrix, _expm, embed, fro_norm, mat_mul
from quatstat.models import TwoLevelGas, lgamma
from quatstat.quaternion import Value
from quatstat.thermo import (
    DEGENERACY_TOL,
    EnergySliceParams,
    SpectralEnsemble,
    bloch_propagator,
    dyson_second_order,
)


class DiscrepancyRecord(Value, frozen=True):
    """One printed-vs-derived disagreement at a single inverse temperature."""

    quantity: str
    printed_value: float
    derived_value: float
    beta: float


class ThermoReport(Value):
    """Thermodynamic quantities at one inverse temperature, with a list of
    the records of its display forms."""

    beta: float
    Z1: float
    A: float
    S: float
    U: float
    Cv: float
    discrepancies: list[DiscrepancyRecord] = list


def _slice_kernel(p: EnergySliceParams, beta: float, rederived: bool):
    """Shift ``m`` and ``P`` with its beta derivatives, ``Z1 = exp(-m beta) P``.

    With ``m = min(aE, bE)``, ``x = |aE - bE|`` and the signed coupling ``mu``
    of :func:`z1_formula`, ``P = 1 + exp(-x beta) + mu beta F`` where
    ``F = beta phi(x beta)``, ``phi(y) = -expm1(-y)/y`` and ``phi(0) = 1``, so
    a subnormal ``x`` still gives ``F = beta``. Nothing cancels or overflows.
    """
    mu = p.kappa if rederived else -p.kappa
    m, x = min(p.aE, p.bE), abs(p.aE - p.bE)
    y = x * beta
    e = math.exp(-y)
    f = beta * (-math.expm1(-y) / y) if y else beta
    bracket = 1.0 + e + mu * beta * f
    return m, bracket, -x * e + mu * (f + beta * e), e * (x * x + mu * (2.0 - y))


def _shifted(m: float, beta: float, bracket: float) -> float:
    """``exp(-m beta) * bracket``, or its signed infinity past the float range."""
    try:
        return math.exp(-m * beta) * bracket
    except OverflowError:
        return math.copysign(math.inf, bracket)


def z1_formula(p: EnergySliceParams, beta: float, rederived: bool = False) -> float:
    """Single-particle partition function on the slice, to second order.

    With ``rederived=False`` the coupling term carries the conventional
    display sign, ``Z1 = Ea + Eb - kappa*beta*(Eb - Ea)/(aE - bE)``, which
    corresponds to an off-diagonal product ``c*d = -kappa`` (real coupling).
    With ``rederived=True`` the sign follows from carrying this module's
    own second-order time-ordered integral with the anti-Hermiticity
    constraint ``d = -(alpha/gamma) conj(c)`` for purely imaginary
    quaternionic coupling, where ``c*d = +kappa``. The two branches differ;
    comparisons between them belong in the discrepancy log.
    """
    m, bracket, _, _ = _slice_kernel(p, beta, rederived)
    return _shifted(m, beta, bracket)


#: Slice display forms over ``(slice, beta, n, k)`` by quantity, in log order.
#: Each looks its ``printed_*`` function up when called, so a rebound one runs.
SLICE_FORMS = {
    "U": lambda p, beta, n, k: printed_internal_energy(p, beta, n),
    "S": lambda p, beta, n, k: printed_entropy(p, beta, n, k),
    "Cv": lambda p, beta, n, k: printed_specific_heat(p, beta, n, k),
}


def thermo_closed_form(
    p: EnergySliceParams,
    beta: float,
    n_particles: int = 1,
    k: float = 1.0,
    rederived: bool = False,
    diff_tol: float = 1e-8,
    quantities: Sequence[str] = tuple(SLICE_FORMS),
) -> ThermoReport:
    """Slice thermodynamics generated from ``Z1`` by analytic differentiation.

    ``A = -(N/beta) ln Z1``; ``U``, ``S`` and ``Cv`` come from the first two
    beta derivatives of the chosen ``Z1`` branch, so every report satisfies
    ``A = U - T S`` and ``Cv = (1/N) dU/dT`` by construction. The display
    forms of :data:`SLICE_FORMS` named in ``quantities`` are logged, in that
    order, into ``report.discrepancies`` wherever :func:`discrepancy` finds
    them apart from the derivation chain at ``diff_tol``.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive on the thermodynamic branch")
    n = int(n_particles)
    m, bracket, d1, d2 = _slice_kernel(p, beta, rederived)
    z1 = _shifted(m, beta, bracket)
    if not (bracket > 0.0):
        raise UnphysicalZ(f"Z1 = {z1:.6g} is not positive at beta = {beta:.6g}")
    log_p, ratio = math.log(bracket), d1 / bracket
    a_free = -(n / beta) * (log_p - m * beta)
    u = n * (m - ratio)
    s = n * k * (log_p - beta * ratio)
    cv = k * beta * beta * (d2 * bracket - d1 * d1) / (bracket * bracket)
    report = ThermoReport(beta=beta, Z1=z1, A=a_free, S=s, U=u, Cv=cv)
    for quantity in quantities:
        printed = functools.partial(SLICE_FORMS[quantity], p, beta, n, k)
        record = discrepancy(quantity, printed, getattr(report, quantity), beta, diff_tol)
        if record is not None:
            report.discrepancies.append(record)
    return report


def discrepancy(
    quantity: str, printed: Callable[[], float], derived: float, beta: float, tol: float
) -> DiscrepancyRecord | None:
    """The one rule for when a printed display value is a discrepancy.

    ``printed`` is evaluated here. A display form that fails with
    ``OverflowError`` or a :class:`QuatstatError` (an unphysical ``Z1``,
    degenerate levels), or returns a value that is not finite, gives no
    record. Otherwise the pair is recorded when
    ``|printed - derived| > tol * max(1, |derived|)``; a gap exactly at the
    threshold, or a NaN derived value, is none.
    """
    try:
        value = printed()
    except (OverflowError, QuatstatError):
        return None
    if math.isfinite(value) and abs(value - derived) > tol * max(1.0, abs(derived)):
        return DiscrepancyRecord(quantity, value, derived, beta)
    return None


def _require_distinct(p: EnergySliceParams):
    if abs(p.aE - p.bE) < DEGENERACY_TOL:
        raise DegenerateLevels(
            f"display form requires distinct energies, got aE = {p.aE}, bE = {p.bE}"
        )


def printed_internal_energy(
    p: EnergySliceParams, beta: float, n_particles: int = 1
) -> float:
    """Display form of the slice internal energy (literal transcription)."""
    _require_distinct(p)
    a, b, kp = p.aE, p.bE, p.kappa
    delta = a - b
    xb, xa = math.exp(beta * b), math.exp(beta * a)
    num = xb * (a * (delta + kp * beta) - kp) + xa * (b * (delta - kp * beta) + kp)
    den = xb * (delta + kp * beta) + xa * (delta - kp * beta)
    return n_particles * num / den


def printed_entropy(
    p: EnergySliceParams, beta: float, n_particles: int = 1, k: float = 1.0
) -> float:
    """Display form of the slice entropy (literal transcription)."""
    _require_distinct(p)
    a, b, kp = p.aE, p.bE, p.kappa
    delta = a - b
    z1 = z1_formula(p, beta, rederived=False)
    if not (z1 > 0.0):
        raise UnphysicalZ(f"Z1 = {z1:.6g} is not positive at beta = {beta:.6g}")
    xb, xa = math.exp(beta * b), math.exp(beta * a)
    num = (a * delta - kp + kp * beta * a) * xb + (b * delta + kp - kp * beta * b) * xa
    den = (delta + kp * beta) * xb + (delta - kp * beta) * xa
    return n_particles * k * math.log(z1) + n_particles * k * beta * num / den


def printed_specific_heat(
    p: EnergySliceParams, beta: float, n_particles: int = 1, k: float = 1.0
) -> float:
    """Display form of the slice specific heat (literal transcription).

    Kept verbatim, including its overall sign and the stray ``1/N`` factor;
    its disagreement with the derivation chain is a reported finding.
    """
    _require_distinct(p)
    a, b, kp = p.aE, p.bE, p.kappa
    delta = a - b
    xb, xa = math.exp(beta * b), math.exp(beta * a)
    bracket = delta * delta * (delta * delta - (kp * beta) ** 2 - 4.0 * kp)
    num = -math.exp(beta * (a + b)) * (bracket + 2.0 * kp * kp) + kp * kp * (
        math.exp(2.0 * beta * a) + math.exp(2.0 * beta * b)
    )
    den = (xb * (delta + kp * beta) + xa * (delta - kp * beta)) ** 2
    return (beta * beta * k / n_particles) * num / den




def _boltzmann_weights(e: SpectralEnsemble, beta: float):
    """Shifted Boltzmann weights; stable against overflow for any beta sign."""
    exponents = -beta * e.energies
    shift = exponents.max()
    w = e.degeneracies * np.exp(exponents - shift)
    return w, shift


def z_spectral(e: SpectralEnsemble, beta: float) -> float:
    """Single-particle partition function ``sum g_r exp(-beta E_r)``."""
    w, shift = _boltzmann_weights(e, beta)
    return float(np.exp(shift) * w.sum())



def _boltzmann_sums(e: SpectralEnsemble, beta: float) -> tuple[float, float, float]:
    """``ln Z1``, the mean energy and the energy variance from one set of weights."""
    w, shift = _boltzmann_weights(e, beta)
    total = w.sum()
    prob = w / total
    energies = e.energies
    mean = float(prob @ energies)
    return float(shift + np.log(total)), mean, float(prob @ (energies - mean) ** 2)


def thermo_spectral(e: SpectralEnsemble, beta: float) -> ThermoReport:
    """Exact thermodynamics from the Boltzmann sum over real energies.

    ``U`` is the extensive mean energy, ``A = -(N/beta) ln Z1``, ``S``
    follows from ``A = U - T S``, and the specific heat per particle is
    ``k beta^2`` times the single-particle energy variance.
    """
    if beta == 0.0:
        raise ValueError("beta must be nonzero for the free-energy branch")
    n, k = e.n_particles, e.k
    log_z1, mean, var = _boltzmann_sums(e, beta)
    a_free = -(n / beta) * log_z1
    u = n * mean
    s = k * beta * (u - a_free)
    cv = k * beta * beta * var
    return ThermoReport(
        beta=beta,
        Z1=float(np.exp(log_z1)),
        A=a_free,
        S=s,
        U=u,
        Cv=cv,
    )


def xlogy(x: float, y: float) -> float:
    """``x * ln(y)``, and ``0`` where ``x == 0`` and ``y`` is not NaN.

    Bit for bit ``scipy.special.xlogy`` on floats: ``y == 0`` gives
    ``x * -inf`` and ``y < 0`` gives NaN.
    """
    if x == 0 and not math.isnan(y):
        return 0.0
    if y > 0:
        return x * math.log(y)
    return x * -math.inf if y == 0 else math.nan


def occupation_numbers(g: TwoLevelGas, energy: float) -> tuple[float, float]:
    """Level populations ``(N+, N-)`` solving the energy and number constraints.

    ``N+ = (E - N E-)/(E+ - E-)``; the companion population is returned as
    ``N - N+`` so the pair sums to ``N`` exactly. Populations are continuous
    in ``E`` and need not be integers.
    """
    slack = g._slack()
    if energy < g.e_min - slack or energy > g.e_max + slack:
        raise EnergyOutOfRange(
            f"E = {energy} outside [{g.e_min}, {g.e_max}] for this gas"
        )
    n_plus = (energy - g.e_min) / (g.e_plus - g.e_minus)
    n_plus = min(max(n_plus, 0.0), float(g.n_particles))
    return n_plus, g.n_particles - n_plus


#: ``ln(2 pi) / 2``, the constant of Stirling's formula.
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_multiplicity(g: TwoLevelGas, energy: float) -> float:
    """``ln N!/(N+! N-!)`` via log-gamma; exact for non-integer populations
    by analytic continuation.

    Where ``ln N!`` passes the float range (``N`` above about 2.5e305) it is
    not formed. With ``N = N+ + N-``, Stirling's formula for ``ln N!`` splits
    into one term per population ``m``, ``m ln N - m - ln m!``, which stays
    below ``N``. A population under 100 takes ``ln m!`` from log-gamma; a
    larger one is ``-m ln(m/N) - ln(2 pi m)/2`` less Stirling's series
    ``1/(12 m) - 1/(360 m^3) + 1/(1260 m^5)``. ``ln(2 pi N)/2`` is added
    once; the series term of ``N`` is below the last digit.
    """
    n_plus, n_minus = occupation_numbers(g, energy)
    total = lgamma(g.n_particles + 1.0)
    if total < math.inf:
        return total - lgamma(n_plus + 1.0) - lgamma(n_minus + 1.0)
    n = float(g.n_particles)
    value = _HALF_LOG_2PI + 0.5 * math.log(n)
    for m, other in ((n_plus, n_minus), (n_minus, n_plus)):
        if m < 100.0:
            value += m * math.log(n) - m - math.lgamma(m + 1.0)
            continue
        # log1p(-other/N) keeps the digits of ln(m/N) where m is near N
        log_share = math.log(m / n) if m < other else math.log1p(-other / n)
        inv2 = 1.0 / (m * m)
        series = (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) / m
        value -= m * log_share + _HALF_LOG_2PI + 0.5 * math.log(m) + series
    return value


def entropy_stirling(g: TwoLevelGas, energy: float, k: float = 1.0) -> float:
    """Stirling entropy ``k [N ln N - N+ ln N+ - N- ln N-]``.

    Evaluated in the equivalent population-fraction form, which is exact at
    the band edges (zero) and at the midpoint (``N k ln 2``).
    """
    n_plus, n_minus = occupation_numbers(g, energy)
    n = g.n_particles
    # the trailing + 0.0 normalizes -0.0 at the band edges
    return float(-k * (xlogy(n_plus, n_plus / n) + xlogy(n_minus, n_minus / n))) + 0.0


def inverse_temperature(g: TwoLevelGas, energy: float, k: float = 1.0) -> float:
    """``1/T = dS/dE = k/(E- - E+) * ln(-(E - N E-)/(E - N E+))``.

    Zero exactly at the midpoint, positive below it, negative above it, and
    divergent toward the band edges.
    """
    slack = g._slack()
    if energy < g.e_min - slack or energy > g.e_max + slack:
        raise EnergyOutOfRange(
            f"E = {energy} outside [{g.e_min}, {g.e_max}] for this gas"
        )
    if abs(energy - g.midpoint) <= slack:
        return 0.0
    if energy <= g.e_min + slack:
        return math.inf
    if energy >= g.e_max - slack:
        return -math.inf
    ratio = -(energy - g.e_min) / (energy - g.e_max)
    return k / (g.e_minus - g.e_plus) * math.log(ratio)


def temperature(g: TwoLevelGas, energy: float, k: float = 1.0) -> float:
    """Combinatorial temperature; sign flips across the entropy maximum.

    Raises :class:`InfiniteTemperature` exactly at the midpoint, where
    ``1/T`` crosses zero; reports use that signal rather than a float
    infinity so overflow stays distinguishable. At the band edges the limit
    values ``+0.0`` and ``-0.0`` are returned.
    """
    inv = inverse_temperature(g, energy, k)
    if inv == 0.0:
        raise InfiniteTemperature(
            f"E = {energy} is the entropy maximum of this gas; |T| diverges"
        )
    if math.isinf(inv):
        return math.copysign(0.0, inv)
    return 1.0 / inv


def spin_mean_energy(omega: float, v: float, beta: float) -> float:
    """Mean energy per particle from the spectral path: ``omega/2 - v tanh(beta v)``."""
    return omega / 2.0 - v * math.tanh(beta * v)


def printed_spin_entropy(
    omega: float, v: float, beta: float, n_particles: int = 1, k: float = 1.0
) -> float:
    """Display form of the spin entropy (literal transcription)."""
    half = 0.5 * omega * beta
    arg = 2.0 * (math.cosh(half) - (v * v * beta / omega) * math.sinh(half))
    if not (arg > 0.0):
        raise UnphysicalZ(f"display-form log argument {arg:.6g} is not positive")
    num = (
        omega * omega * math.sin(half)
        + 2.0 * v * v * math.sinh(half)
        + beta * omega * v * v * math.cosh(half)
    )
    den = 2.0 * omega * math.cosh(half) - 2.0 * beta * v * v * math.sinh(half)
    return n_particles * k * math.log(arg) + n_particles * k * beta * num / den


def printed_spin_internal_energy(
    omega: float, v: float, beta: float, n_particles: int = 1
) -> float:
    """Display form of the spin internal energy (literal transcription)."""
    half = 0.5 * omega * beta
    num = (
        omega * omega * math.sin(half)
        + 2.0 * v * v * math.sinh(half)
        + beta * omega * v * v * math.cosh(half)
    )
    den = 2.0 * omega * math.cosh(half) - 2.0 * beta * v * v * math.sinh(half)
    return n_particles * num / den


# ---------------------------------------------------------------------------
# The Dyson order study and Van Loan's trace
# ---------------------------------------------------------------------------


def dyson_convergence_slope(h0: QMatrix, hp: QMatrix) -> float:
    """Order of the truncation error against the exact propagator, one
    :func:`dyson_second_order` and one :func:`bloch_propagator` per scale."""
    base = fro_norm(hp)
    if base == 0.0:
        raise ConstraintViolation("perturbation must be nonzero for the order study")
    t = 1.0 / max(1.0, fro_norm(h0) / 1e3)
    u0 = bloch_propagator(h0, t)
    scales = (1e-1, 1e-2, 1e-3)
    errors = []
    for scale in scales:
        hps = hp * (scale / (base * t))
        ui = dyson_second_order(h0, hps, t)
        exact = bloch_propagator(h0 + hps, t)
        errors.append(fro_norm(mat_mul(u0, ui) - exact))
    with np.errstate(divide="ignore"):  # an error of exactly 0 gives a NaN slope
        slope, _ = np.polyfit(np.log(np.array(scales)), np.log(np.array(errors)), 1)
    return float(slope)


def van_loan_trace(h0: QMatrix, hp: QMatrix, t: float) -> float:
    """``Re Tr U0(t) U_I(t)`` from Van Loan's block exponential, laid out by
    ``np.block``."""
    a, p = -embed(h0), -embed(hp)
    zero = np.zeros_like(a)
    block = float(t) * np.block([[a, p, zero], [zero, a, p], [zero, zero, a]])
    with np.errstate(over="ignore", invalid="ignore"):
        e = _expm(block) if np.isfinite(block).all() else block
    d = len(a)
    return float(0.5 * np.trace(e[:d, :d] + e[:d, d:2 * d] + e[:d, 2 * d:]).real)
