"""Partition functions and canonical-ensemble thermodynamics.

Two computational paths are deliberately kept separate:

* the **formal path**: ``Re Tr exp(-beta H)`` for the anti-Hermitian
  quaternionic Hamiltonian itself, which oscillates in ``beta``;
* the **spectral path**: real energies ``E_r`` read off the standard
  eigenvalues ``i E_r``, fed into the usual Boltzmann sums.

Conflating the two is a classic source of confusion for these models, so
both are exposed and their disagreement is a reportable finding, not a bug.

The second-order closed form of the single-particle partition function on
the commuting-scalar slice is likewise implemented twice: once in its
conventional display form ("printed") and once re-derived from this
module's own time-ordered perturbation integral ("rederived"). The two
differ in the sign of the coupling term; disagreements between printed and
derived quantities are collected into a structured discrepancy log rather
than being silently corrected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConstraintViolation,
    DegenerateLevels,
    DomainError,
    NotNormal,
    QuadratureUnconverged,
    QuatstatError,
    UnphysicalZ,
    ZeroMeanEnergy,
)
from .linalg import QMatrix, embed, fro_norm, mat_exp, mat_mul, unembed
from .metric import MetricOperator, build_metric, is_quasi_anti_hermitian
from .quaternion import Quaternion, is_imaginary, qconj, qmul

#: Two slice energies closer than this trigger the analytic degenerate limit.
DEGENERACY_TOL = 1e-9

#: Fewest quadrature intervals :func:`dyson_second_order` accepts.
MIN_DYSON_STEPS = 16

#: Inverse temperatures integrated together by :func:`dyson_second_order`.
#: Each sample array of a chunk holds ``8 * (2 n)^2 * (2 steps + 1)`` complex
#: values for an n x n model, about 0.5 MB at n = 2 and the CLI's 128 steps.
_DYSON_CHUNK = 8


# ---------------------------------------------------------------------------
# Parameter bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyModelParams:
    """General quaternionic two-level model with a diagonal metric.

    The Hamiltonian is ``[[a, c], [d, b]]`` with ``d`` fixed by the
    anti-Hermiticity constraint ``d = -(alpha/gamma) conj(c)`` under the
    metric ``diag(alpha, gamma)``; ``a`` and ``b`` must be purely imaginary
    quaternions.
    """

    a: Quaternion
    b: Quaternion
    c: Quaternion
    alpha: float
    gamma: float

    def __post_init__(self):
        if not is_imaginary(self.a) or not is_imaginary(self.b):
            raise ConstraintViolation("diagonal entries must be purely imaginary")
        if not (self.alpha > 0.0 and self.gamma > 0.0):
            raise ConstraintViolation("metric parameters alpha, gamma must be positive")

    @property
    def d(self) -> Quaternion:
        return qconj(self.c) * (-self.alpha / self.gamma)


@dataclass(frozen=True)
class EnergySliceParams:
    """Commuting-scalar slice of the two-level model.

    ``aE`` and ``bE`` are real energy parameters and ``kappa`` the real
    effective coupling ``(alpha/gamma) c^2`` (real for complex ``c`` and for
    ``c`` in the j-line, where it equals ``-(alpha/gamma)|c|^2``). The
    closed forms divide by ``aE - bE``; coincident energies are handled by
    the analytic degenerate limit.
    """

    aE: float
    bE: float
    kappa: float

    @classmethod
    def from_toy(cls, p: ToyModelParams) -> "EnergySliceParams":
        """Formal scalar reading of quaternionic toy parameters.

        Requires ``a`` and ``b`` on the complex-imaginary line (``a = i aE``)
        and a coupling with real square, so that the slice expressions make
        sense as commuting scalars.
        """
        for name, q in (("a", p.a), ("b", p.b)):
            if max(abs(q.q2), abs(q.q3)) > 1e-10:
                raise ConstraintViolation(
                    f"slice reading needs complex-imaginary {name}, got {q}"
                )
        c2 = qmul(p.c, p.c)
        if max(abs(c2.q1), abs(c2.q2), abs(c2.q3)) > 1e-10 * max(1.0, abs(c2)):
            raise ConstraintViolation("c^2 must be real for the scalar slice")
        return cls(aE=p.a.q1, bE=p.b.q1, kappa=(p.alpha / p.gamma) * c2.q0)

    @classmethod
    def from_spin(cls, omega: float, v: float) -> "EnergySliceParams":
        """Scalar slice of the spin model: energies ``+-omega/2``, coupling ``-v^2``."""
        return cls(aE=omega / 2.0, bE=-omega / 2.0, kappa=-(v * v))


@dataclass(frozen=True)
class SpectralEnsemble:
    """Real energy levels with multiplicities; the canonical-ensemble input.

    ``levels`` is a sorted tuple of ``(energy, multiplicity)`` pairs,
    ``n_particles`` the number of independent distinguishable particles and
    ``k`` the Boltzmann constant (1 in natural units).
    """

    levels: tuple[tuple[float, int], ...]
    n_particles: int = 1
    k: float = 1.0

    def __post_init__(self):
        levels = tuple(sorted((float(e), int(g)) for e, g in self.levels))
        if not levels:
            raise ConstraintViolation("ensemble needs at least one level")
        if any(g < 1 for _, g in levels):
            raise ConstraintViolation("multiplicities must be positive integers")
        if self.n_particles < 1:
            raise ConstraintViolation("particle count must be at least 1")
        object.__setattr__(self, "levels", levels)

    @property
    def energies(self) -> np.ndarray:
        return np.array([e for e, _ in self.levels])

    @property
    def degeneracies(self) -> np.ndarray:
        return np.array([g for _, g in self.levels], dtype=float)


@dataclass(frozen=True)
class DiscrepancyRecord:
    """One printed-vs-derived disagreement at a single inverse temperature."""

    quantity: str
    printed_value: float
    derived_value: float
    beta: float


@dataclass
class ThermoReport:
    """Thermodynamic quantities at one inverse temperature.

    ``A``, ``S`` and ``U`` are extensive (carry the particle number); ``Cv``
    is the specific heat per particle. ``discrepancies`` collects printed
    display values that disagree with the derivation chain.
    """

    beta: float
    Z1: float
    A: float
    S: float
    U: float
    Cv: float
    discrepancies: list[DiscrepancyRecord] = field(default_factory=list)


@dataclass
class VolumeModel:
    """Slice parameters as functions of volume, for pressure evaluation.

    ``h`` is the finite-difference step used for the parameter derivatives;
    ``domain`` optionally restricts the admissible volumes.
    """

    aE: Callable[[float], float]
    bE: Callable[[float], float]
    kappa: Callable[[float], float]
    h: float = 1e-5
    domain: tuple[float, float] | None = None

    def slice_at(self, volume: float) -> EnergySliceParams:
        return EnergySliceParams(
            aE=self.aE(volume), bE=self.bE(volume), kappa=self.kappa(volume)
        )


# ---------------------------------------------------------------------------
# Hamiltonian construction and propagators
# ---------------------------------------------------------------------------


def build_toy_hamiltonian(p: ToyModelParams) -> QMatrix:
    """Assemble ``[[a, c], [d, b]]`` and certify its symmetry class."""
    h = QMatrix.from_rows([[p.a, p.c], [p.d, p.b]])
    if not is_quasi_anti_hermitian(h, toy_metric(p)):
        raise ConstraintViolation("constructed Hamiltonian failed certification")
    return h


def toy_metric(p: ToyModelParams) -> MetricOperator:
    """Diagonal metric ``diag(alpha, gamma)`` of the toy model."""
    return build_metric(math.sqrt(p.alpha), math.sqrt(p.gamma), 0.0)


def bloch_propagator(h: QMatrix, t: float) -> QMatrix:
    """Solution ``exp(-H t)`` of ``dU/dt = -H U`` with ``U(0) = 1``."""
    return mat_exp(-h, t)


def _eigenbasis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues ``w``, eigenvectors ``v`` and ``v^-1`` of a complex matrix.

    Raises :class:`NotNormal` unless ``v diag(w) v^-1`` reproduces ``a``:
    a defective or badly conditioned eigenvector matrix fails this check,
    and with it every result computed in the eigenbasis.
    """
    w, v = np.linalg.eig(a)
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise NotNormal("matrix could not be diagonalized reliably") from exc
    residual = np.abs((v * w) @ vinv - a).max()
    if not residual <= 1e-10 * max(1.0, np.abs(a).max()):
        raise NotNormal(
            f"matrix could not be diagonalized reliably (residual {residual:.3e})"
        )
    return w, v, vinv


def formal_trace(
    h: QMatrix,
    t: float | Sequence[float],
    right: QMatrix | Sequence[QMatrix] | None = None,
) -> float | np.ndarray:
    """``Re Tr(exp(-H t) R_t)`` from one diagonalisation of ``chi(H)``.

    With ``chi(H) = V diag(w) V^-1`` the trace is
    ``1/2 Re sum_a exp(-t w_a) (V^-1 chi(R_t) V)_aa``. Without ``right``,
    ``R = 1`` and the result is the formal partition function
    ``Re Tr exp(-t H)``; for a quasi-anti-Hermitian ``H``, whose ``w`` are
    ``+-i E_r``, that is the cosine sum ``sum_r cos(t E_r)``.

    ``t`` is a number, with ``right`` one matrix, or a 1-D sequence, with
    ``right`` one matrix per entry; a float or an array is returned.
    :func:`mat_exp` is the oracle. Raises :class:`NotNormal` when ``chi(H)``
    cannot be diagonalised reliably and ``OverflowError`` when the result
    leaves the floating range.
    """
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValueError("t must be a number or a 1-D sequence")
    w, v, vinv = _eigenbasis(embed(h))
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-np.multiply.outer(ts, w))
        if right is None:
            sums = phases.sum(axis=-1)
        else:
            rights = [right] if scalar else list(right)
            if len(rights) != len(ts):
                raise ValueError(f"expected {len(ts)} right factors, got {len(rights)}")
            for r in rights:
                h._check_same_dim(r)
            chi = embed(np.stack([r.comp for r in rights]))
            sums = (phases * np.einsum("ab,kbc,ca->ka", vinv, chi, v)).sum(axis=-1)
        values = 0.5 * sums.real
    if not np.all(np.isfinite(values)):
        raise OverflowError("matrix exponential overflowed the floating range")
    return float(values[0]) if scalar else values


def _check_diagonal(m: QMatrix):
    off = m.comp.copy()
    off[np.arange(m.n), np.arange(m.n), :] = 0.0
    if np.abs(off).max() > 1e-12 * max(1.0, fro_norm(m)):
        raise ConstraintViolation("reference matrix must be diagonal")


def _simpson_parts(y: np.ndarray) -> np.ndarray:
    """Twelve times the Simpson integral over each interval of the last axis.

    Samples are at unit spacing. Even intervals use the forward rule
    ``(5, 8, -1)`` on their own node and the next two; odd intervals and the
    last one use the backward rule ``(-1, 8, 5)`` on the node before, their
    own and the next. This is scipy's ``cumulative_simpson`` for equal
    intervals.
    """
    f0, f1, f2 = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2]
    parts = np.empty(y.shape[:-1] + (y.shape[-1] - 1,), dtype=y.dtype)
    parts[..., :-1:2] = 5.0 * f0 + 8.0 * f1 - f2
    parts[..., 1::2] = 8.0 * f1 + 5.0 * f2 - f0
    parts[..., -1] = 8.0 * y[..., -2] + 5.0 * y[..., -1] - y[..., -3]
    return parts


def _cumulative_simpson(y: np.ndarray, h) -> np.ndarray:
    """Integral of ``y`` along the last axis from the first node to every node.

    The last axis holds at least three samples at uniform spacing ``h``,
    which broadcasts against ``y`` without its last axis.
    """
    out = np.zeros_like(y)
    np.cumsum(_simpson_parts(y), axis=-1, out=out[..., 1:])
    out *= (np.asarray(h) / 12.0)[..., None]
    return out


@functools.lru_cache(maxsize=8)
def _simpson_weights(nodes: int) -> np.ndarray:
    """Twelve times the weights that give the last value of the cumulative rule.

    These are the composite Simpson weights; for an odd number of intervals
    the last one takes the backward rule, as scipy's ``simpson`` does.
    """
    weights = _simpson_parts(np.eye(nodes)).sum(axis=-1)
    weights.flags.writeable = False
    return weights


def _dyson_terms(phases: np.ndarray, b: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``-int H_I + int int H_I H_I`` in the eigenbasis of the reference.

    ``phases[k, :, :, m]`` is ``exp((w_a - w_b) s_m)`` on the uniform grid of
    spacing ``h[k]``, so ``phases * b`` samples the interaction-picture
    generator. The outer integral of ``H_I(s) first(s)`` is one matrix
    product per ``k``, summing over the inner index and the nodes at once.
    """
    chunk, dim, _, nodes = phases.shape
    h = h[:, None, None]
    h_int = phases * b[:, :, None]
    first = _cumulative_simpson(h_int, h)
    weighted = (h_int * _simpson_weights(nodes)).reshape(chunk, dim, dim * nodes)
    stacked = first.transpose(0, 1, 3, 2).reshape(chunk, dim * nodes, dim)
    second = (weighted @ stacked) * (h / 12.0)
    return second - first[..., -1]


def dyson_second_order(
    h0: QMatrix, hp: QMatrix, t: float | Sequence[float], steps: int = 256
) -> QMatrix | list[QMatrix]:
    """Interaction-picture propagator truncated at second order.

    Returns ``U_I(t) ~ 1 - int H_I + int int H_I H_I`` with
    ``H_I(s) = U0(s)^-1 Hp U0(s)`` and ``U0(s) = exp(-H0 s)``; the full
    propagator is ``U0(t) U_I(t)``. The time-ordered double integral is
    evaluated by composite Simpson quadrature in the eigenbasis of the
    complex embedding of ``H0``; the result is recomputed with twice the
    steps and :class:`QuadratureUnconverged` is raised when the two differ
    by more than ``1e-9`` relative to the result.

    ``t`` may be a 1-D sequence, for which a list with one propagator per
    entry is returned. ``H0`` is diagonalised once for the whole sequence,
    and the checks run per entry in order, so the first entry that fails
    raises.
    """
    h0._check_same_dim(hp)
    if steps < MIN_DYSON_STEPS:
        raise ValueError(f"steps must be at least {MIN_DYSON_STEPS}")
    _check_diagonal(h0)
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValueError("t must be a number or a 1-D sequence")
    w, v, vinv = _eigenbasis(embed(h0))
    # interaction-picture generator in the eigenbasis: exp((w_a - w_b) s) b_ab
    b = vinv @ embed(hp) @ v
    gaps = np.subtract.outer(w, w)
    u = np.linspace(0.0, 1.0, 2 * steps + 1)
    results = []
    for lo in range(0, len(ts), _DYSON_CHUNK):
        chunk = ts[lo:lo + _DYSON_CHUNK]
        h = chunk / (2 * steps)
        phases = np.exp(gaps[:, :, None] * np.multiply.outer(chunk, u)[:, None, None])
        terms = np.stack(
            [_dyson_terms(phases, b, h), _dyson_terms(phases[..., ::2], b, 2.0 * h)]
        )
        for fine, coarse in zip(*(np.eye(len(w)) + v @ terms @ vinv)):
            drift = np.abs(fine - coarse).max()
            if drift > 1e-9 * max(1.0, np.abs(fine).max()):
                raise QuadratureUnconverged(
                    f"step doubling moved the result by {drift:.3e} (tol 1.0e-09)"
                )
            results.append(unembed(fine))
    return results[0] if scalar else results


def dyson_convergence_slope(h0: QMatrix, hp: QMatrix, steps: int = 256) -> float:
    """Order of the truncation error against the exact propagator.

    Rescales the perturbation so that ``|Hp|`` runs over ``1e-1``, ``1e-2``
    and ``1e-3``, measures ``|U0 U_I - exp(-(H0+Hp) t)|`` at ``t = 1`` and
    returns the log-log slope. A value near 3 certifies the second-order
    truncation.
    """
    base = fro_norm(hp)
    if base == 0.0:
        raise ConstraintViolation("perturbation must be nonzero for the order study")
    u0 = bloch_propagator(h0, 1.0)
    scales = (1e-1, 1e-2, 1e-3)
    errors = []
    for scale in scales:
        hps = hp * (scale / base)
        ui = dyson_second_order(h0, hps, 1.0, steps=steps)
        exact = bloch_propagator(h0 + hps, 1.0)
        errors.append(fro_norm(mat_mul(u0, ui) - exact))
    slope, _ = np.polyfit(np.log(np.array(scales)), np.log(np.array(errors)), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Closed forms on the commuting-scalar slice
# ---------------------------------------------------------------------------


def _slice_z1_derivatives(p: EnergySliceParams, beta: float, mu: float):
    """Value and first two beta derivatives of the slice partition function.

    ``mu`` is the signed coupling entering ``Z1 = Ea + Eb + mu*beta*(Eb-Ea)/(aE-bE)``.
    Near-coincident energies switch to the analytic limit
    ``Z1 = exp(-m beta) (2 + mu beta^2)`` with ``m`` the mean energy.
    """
    a, b = p.aE, p.bE
    delta = a - b
    if abs(delta) < DEGENERACY_TOL:
        m = 0.5 * (a + b)
        em = math.exp(-m * beta)
        poly = 2.0 + mu * beta * beta
        z1 = em * poly
        z1p = em * (-m * poly + 2.0 * mu * beta)
        z1pp = em * (m * m * poly - 4.0 * m * mu * beta + 2.0 * mu)
        return z1, z1p, z1pp
    ea, eb = math.exp(-a * beta), math.exp(-b * beta)
    g = mu / delta
    z1 = ea + eb + g * beta * (eb - ea)
    z1p = -a * ea - b * eb + g * ((eb - ea) + beta * (a * ea - b * eb))
    z1pp = (
        a * a * ea
        + b * b * eb
        + g * (2.0 * (a * ea - b * eb) + beta * (b * b * eb - a * a * ea))
    )
    return z1, z1p, z1pp


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
    mu = p.kappa if rederived else -p.kappa
    z1, _, _ = _slice_z1_derivatives(p, beta, mu)
    return z1


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
    mu = p.kappa if rederived else -p.kappa
    z1, z1p, z1pp = _slice_z1_derivatives(p, beta, mu)
    if not (z1 > 0.0):
        raise UnphysicalZ(f"Z1 = {z1:.6g} is not positive at beta = {beta:.6g}")
    a_free = -(n / beta) * math.log(z1)
    u = -n * z1p / z1
    s = n * k * math.log(z1) + k * beta * u
    cv = k * beta * beta * (z1pp * z1 - z1p * z1p) / (z1 * z1)
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
    degenerate levels) gives no record. Otherwise the pair is recorded when
    ``|printed - derived| > tol * max(1, |derived|)``; a gap exactly at the
    threshold, or a NaN on either side, is none.
    """
    try:
        value = printed()
    except (OverflowError, QuatstatError):
        return None
    if abs(value - derived) > tol * max(1.0, abs(derived)):
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


def printed_pressure(
    vm: VolumeModel, beta: float, volume: float, n_particles: int = 1
) -> float:
    """Display form of the slice pressure, with parameter derivatives by
    central differences of the volume model."""
    p = vm.slice_at(volume)
    _require_distinct(p)
    h = vm.h
    ap = (vm.aE(volume + h) - vm.aE(volume - h)) / (2.0 * h)
    bp = (vm.bE(volume + h) - vm.bE(volume - h)) / (2.0 * h)
    kpp = (vm.kappa(volume + h) - vm.kappa(volume - h)) / (2.0 * h)
    a, b, kp = p.aE, p.bE, p.kappa
    delta = a - b
    ea, eb = math.exp(-a * beta), math.exp(-b * beta)
    num_a = -delta * delta * ap - kp * (beta * delta + 1.0) * ap + kp * bp + kpp * delta
    num_b = -delta * delta * bp - kp * (1.0 - beta * delta) * bp + kp * ap - kpp * delta
    den = (delta * delta + kp * beta * delta) * ea + (
        delta * delta - kp * beta * delta
    ) * eb
    return n_particles * (num_a * ea + num_b * eb) / den


def pressure(
    vm: VolumeModel,
    beta: float,
    volume: float,
    n_particles: int = 1,
    rederived: bool = False,
) -> float:
    """Pressure ``-dA/dV`` at fixed beta, by Richardson-extrapolated
    central differences of the free energy.

    Its display form is :func:`printed_pressure`; a caller that logs the
    pair passes both to :func:`discrepancy`.
    """
    h = vm.h
    if vm.domain is not None:
        lo, hi = vm.domain
        if not (lo <= volume - h and volume + h <= hi):
            raise DomainError(
                f"volume {volume} with step {h} leaves the domain [{lo}, {hi}]"
            )

    def free_energy(vol: float) -> float:
        z1 = z1_formula(vm.slice_at(vol), beta, rederived=rederived)
        if not (z1 > 0.0):
            raise UnphysicalZ(f"Z1 = {z1:.6g} is not positive at V = {vol:.6g}")
        return -(n_particles / beta) * math.log(z1)

    def central(step: float) -> float:
        return (free_energy(volume + step) - free_energy(volume - step)) / (2.0 * step)

    coarse, fine = central(h), central(h / 2.0)
    derivative = (4.0 * fine - coarse) / 3.0
    return -derivative


# ---------------------------------------------------------------------------
# Spectral path
# ---------------------------------------------------------------------------


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


def log_z_spectral(e: SpectralEnsemble, beta: float) -> float:
    return _boltzmann_sums(e, beta)[0]


def log_z_total(e: SpectralEnsemble, beta: float) -> float:
    """Log partition function of N independent particles: ``N ln Z1``."""
    return e.n_particles * log_z_spectral(e, beta)


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


def energy_variance(e: SpectralEnsemble, beta: float) -> float:
    """Single-particle energy variance ``<E^2> - <E>^2`` from the weights."""
    return _boltzmann_sums(e, beta)[2]


def relative_rms(e: SpectralEnsemble, beta: float) -> float:
    """Relative r.m.s. energy fluctuation of the N-particle system.

    Independent particles add variances, so the ratio carries an explicit
    ``1/sqrt(N)`` prefactor: quadrupling ``N`` halves the result exactly.
    """
    _, mean, var = _boltzmann_sums(e, beta)
    scale = max(1.0, float(np.abs(e.energies).max()))
    if abs(mean) <= 1e-12 * scale:
        raise ZeroMeanEnergy("mean energy vanishes; relative fluctuation undefined")
    return math.sqrt(var) / mean / math.sqrt(e.n_particles)
