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

Both paths are evaluated over a whole beta grid at once (:func:`closed_form_grid`,
:func:`spectral_grid`); the one-beta functions are one-point wrappers of them.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConstraintViolation,
    DegenerateLevels,
    DomainError,
    NotNormal,
    QuatstatError,
    UnphysicalZ,
    ZeroMeanEnergy,
)
from .linalg import (QMatrix, _expm, embed, fro_norm, mat_exp, mat_mul,
                     require_finite_norm, unembed)
from .metric import MetricOperator, build_metric, is_quasi_anti_hermitian
from .quaternion import Quaternion, Value, is_imaginary, qconj, qmul

#: Two slice energies closer than this have no display form (:class:`DegenerateLevels`).
DEGENERACY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Parameter bundles
# ---------------------------------------------------------------------------


class ToyModelParams(Value, frozen=True):
    """General quaternionic two-level model with a diagonal metric.

    The Hamiltonian is ``[[a, c], [d, b]]`` with ``d`` fixed by the
    anti-Hermiticity constraint ``d = -(alpha/gamma) conj(c)`` under the
    metric ``diag(alpha, gamma)``; ``a`` and ``b`` must be purely imaginary
    quaternions, and ``alpha`` and ``gamma`` positive and finite.
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
        if not (math.isfinite(self.alpha) and math.isfinite(self.gamma)):
            raise ConstraintViolation(
                f"metric parameters alpha, gamma must be finite, got {self.alpha}, {self.gamma}")

    @property
    def d(self) -> Quaternion:
        return qconj(self.c) * (-self.alpha / self.gamma)


class EnergySliceParams(Value, frozen=True):
    """Commuting-scalar slice of the two-level model.

    ``aE`` and ``bE`` are real energy parameters and ``kappa`` the real
    effective coupling ``(alpha/gamma) c^2`` (real for complex ``c`` and for
    ``c`` in the j-line, where it equals ``-(alpha/gamma)|c|^2``). The
    display forms divide by ``aE - bE`` and refuse coincident energies; the
    derived forms take any pair, coincident energies included. A ``kappa``
    or ``(aE - bE)^2`` past the float range is refused.
    """

    aE: float
    bE: float
    kappa: float

    def __post_init__(self):
        # the closed forms square the gap and scale the coupling by beta
        gap = self.aE - self.bE
        if not (math.isfinite(self.kappa) and math.isfinite(gap * gap)):
            raise ConstraintViolation(
                f"slice past the float range: aE = {self.aE}, bE = {self.bE}, "
                f"kappa = {self.kappa} (kappa and (aE - bE)^2 must be finite)")

    @classmethod
    def from_toy(cls, p: ToyModelParams) -> "EnergySliceParams":
        """Formal scalar reading of quaternionic toy parameters.

        Requires ``a`` and ``b`` on the complex-imaginary line (``a = i aE``)
        and a coupling with real square within the float range, so that the
        slice expressions make sense as commuting scalars.
        """
        for name, q in (("a", p.a), ("b", p.b)):
            if max(abs(q.q2), abs(q.q3)) > 1e-10:
                raise ConstraintViolation(
                    f"slice reading needs complex-imaginary {name}, got {q}"
                )
        size = abs(p.c)
        if not math.isfinite(size * size):
            raise ConstraintViolation(f"c^2 is past the float range, |c| = {size}")
        c2 = qmul(p.c, p.c)
        if max(abs(c2.q1), abs(c2.q2), abs(c2.q3)) > 1e-10 * max(1.0, abs(c2)):
            raise ConstraintViolation("c^2 must be real for the scalar slice")
        return cls(aE=p.a.q1, bE=p.b.q1, kappa=(p.alpha / p.gamma) * c2.q0)

    @classmethod
    def from_spin(cls, omega: float, v: float) -> "EnergySliceParams":
        """Scalar slice of the spin model: energies ``+-omega/2``, coupling ``-v^2``."""
        return cls(aE=omega / 2.0, bE=-omega / 2.0, kappa=-(v * v))


class SpectralEnsemble(Value, frozen=True):
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


class DiscrepancyRecord(Value, frozen=True):
    """One printed-vs-derived disagreement at a single inverse temperature."""

    quantity: str
    printed_value: float
    derived_value: float
    beta: float


class DiscrepancyLog(Value):
    """Discrepancy records as columns, in grid order; ``at`` holds the index
    of each record's beta in the grid."""

    quantity: list[str] = list
    printed_value: list[float] = list
    derived_value: list[float] = list
    beta: list[float] = list
    at: list[int] = list

    def __len__(self) -> int:
        return len(self.at)

    def records(self) -> list[DiscrepancyRecord]:
        """One :class:`DiscrepancyRecord` per record."""
        return list(map(DiscrepancyRecord, self.quantity, self.printed_value,
                        self.derived_value, self.beta))


class ThermoReport(Value):
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
    discrepancies: list[DiscrepancyRecord] = list


def first_non_finite(beta: list[float], columns: dict[str, list[float]]) -> OverflowError | None:
    """The ``OverflowError`` naming the first beta where one of ``columns``
    (lists of Python floats) is not finite, and the first such column there."""
    # cells are read one by one only where their total is not finite
    if not math.isfinite(sum(map(sum, columns.values()))):
        bad = next(((name, value, b) for b, *row in zip(beta, *columns.values())
                    for name, value in zip(columns, row) if not math.isfinite(value)), None)
        return bad and OverflowError("%s = %.17g at beta = %.17g" % bad)


class ThermoGrid(Value):
    """The quantities of :class:`ThermoReport` over a beta grid, one list of
    Python floats per column, with the log of every beta's records.

    Builders keep overflow and NaN as data, and ``error``, set here, judges
    them for every path: the :class:`UnphysicalZ` a builder passes where ``Z1``
    is not positive (a row of NaN in ``A``, ``S``, ``U`` and ``Cv``), else an
    ``OverflowError`` naming the first beta and quantity where one of those
    is not finite. ``Z1 = inf`` alone is none: they come from ``ln Z1``.
    """

    beta: list[float]
    Z1: list[float]
    A: list[float]
    S: list[float]
    U: list[float]
    Cv: list[float]
    discrepancies: DiscrepancyLog = DiscrepancyLog
    error: UnphysicalZ | OverflowError | None = None

    def __post_init__(self):
        self.error = self.error or first_non_finite(
            self.beta, {"A": self.A, "S": self.S, "U": self.U, "Cv": self.Cv})

    def rows(self) -> list[tuple[float, ...]]:
        """``(beta, Z1, A, S, U, Cv)`` per beta."""
        return list(zip(self.beta, self.Z1, self.A, self.S, self.U, self.Cv))

    def one_point(self) -> ThermoReport:
        """The report of a one-beta grid; raises its error."""
        if self.error is not None:
            raise self.error
        return ThermoReport(*self.rows()[0], self.discrepancies.records())


class VolumeModel(Value):
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
    """Assemble ``[[a, c], [d, b]]`` and certify its symmetry class; entries
    whose squared Frobenius norm passes the float range are refused."""
    h = QMatrix.from_rows([[p.a, p.c], [p.d, p.b]])
    require_finite_norm(h)
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


def _phase_trace(ts: np.ndarray, w: np.ndarray, diagonals=1.0) -> np.ndarray:
    """``1/2 Re sum_a exp(-t w_a) X_aa`` for each ``t``; ``diagonals[k]`` holds
    the diagonal of ``X`` at ``ts[k]``, and ``X = 1`` without it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (np.exp(-np.multiply.outer(ts, w)) * diagonals).sum(axis=-1).real


def _times(t: float | Sequence[float]) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValueError("t must be a number or a 1-D sequence")
    return ts


def formal_trace(h: QMatrix, t: float | Sequence[float]) -> float | np.ndarray:
    """Formal partition function ``Re Tr exp(-H t)`` from one diagonalisation.

    With ``chi(H) = V diag(w) V^-1`` the trace is ``1/2 Re sum_a exp(-t w_a)``;
    for a quasi-anti-Hermitian ``H``, whose ``w`` are ``+-i E_r``, that is the
    cosine sum ``sum_r cos(t E_r)``. ``t`` is a number or a 1-D sequence; a
    float or an array is returned. :func:`mat_exp` is the oracle. Raises
    :class:`NotNormal` when ``chi(H)`` cannot be diagonalised reliably; a
    result past the floating range is not finite.
    """
    values = _phase_trace(_times(t), _eigenbasis(embed(h))[0])
    return float(values[0]) if np.ndim(t) == 0 else values


def _check_diagonal(m: QMatrix):
    off = m.comp.copy()
    off[np.arange(m.n), np.arange(m.n), :] = 0.0
    if np.abs(off).max() > 1e-12 * max(1.0, fro_norm(m)):
        raise ConstraintViolation("reference matrix must be diagonal")


@np.errstate(all="ignore")
def _interaction_terms(h0: QMatrix, hp: QMatrix, ts: np.ndarray):
    """``-int H_I + int int H_I H_I`` at each ``t``, in the eigenbasis of ``chi(H0)``.

    Returns ``w``, ``V``, ``V^-1`` and the terms. With ``chi(H0) = V diag(w)
    V^-1``, gaps ``g_ab = w_a - w_b`` and ``B = V^-1 chi(Hp) V``, the
    interaction-picture generator is ``exp(g_ab s) B_ab`` and both integrals
    are closed forms:

    * first order, ``t phi1(t g_ab) B_ab`` with ``phi1(z) = expm1(z)/z``, and
      ``phi1 = 1`` below the smallest normal ``|z|``, where the quotient overflows;
    * second order, ``t^2 sum_c B_ac B_cb exp[0, t g_ac, t g_ab]``, a divided
      difference of ``exp`` on three nodes. It is the ``(0, 2)`` entry of
      ``exp([[0, 1, 0], [0, x, 1], [0, 0, y]])`` (Opitz, ZAMM 44, 1964), which
      stays accurate where nodes coincide or nearly do, and is evaluated only
      for the triples with ``B_ac B_cb != 0``.
    """
    h0._check_same_dim(hp)
    _check_diagonal(h0)
    w, v, vinv = _eigenbasis(embed(h0))
    b = vinv @ embed(hp) @ v
    z = np.multiply.outer(ts, np.subtract.outer(w, w))
    phi1 = np.expm1(z) / z
    phi1[np.abs(z) < np.finfo(float).tiny] = 1.0
    terms = -ts[:, None, None] * phi1 * b
    a, c, e = np.nonzero(b[:, :, None] * b)
    divided = _exp_divided_differences(z[:, a, c].ravel(), z[:, a, e].ravel())
    second = (ts * ts)[:, None] * (b[a, c] * b[c, e]) * divided.reshape(len(ts), len(a))
    np.add.at(terms, (slice(None), a, e), second)
    return w, v, vinv, terms


#: 3x3 exponentials per :func:`_expm` call in :func:`_exp_divided_differences`.
#: Each of its ~15 temporaries then holds at most 144 KiB, whatever the grid.
_NODE_BLOCK = 1024


def _exp_divided_differences(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``exp[0, x_k, y_k]``, the ``(0, 2)`` entry of ``exp([[0, 1, 0], [0, x_k, 1],
    [0, 0, y_k]])``, for 1-D ``x`` and ``y``.

    The pairs that are exactly ``(0, 0)``, signed zeros included, share one
    exponential; the others go through :func:`_expm` in blocks of
    :data:`_NODE_BLOCK`. Each exponential of a stack has the bits it has
    alone, so the result does not depend on the split. The nodes are
    ``t g`` for gaps ``g`` of ``chi(H0)``, so across distinct ``t`` they
    repeat only where both gaps are 0, as every node does for a j-k coupling
    between levels with ``b = -a``. A mask finds those. ``np.unique`` over
    the pairs would find no other repeat, and on 800 distinct pairs it costs
    about a seventh of their exponentials.
    """
    out = np.empty(x.shape, dtype=complex)
    zero = (x == 0.0) & (y == 0.0)
    if zero.any():
        out[zero] = _node_exps(np.zeros(1), np.zeros(1))[0]
    rest = np.flatnonzero(~zero)
    for lo in range(0, len(rest), _NODE_BLOCK):
        block = rest[lo:lo + _NODE_BLOCK]
        out[block] = _node_exps(x[block], y[block])
    return out


def _node_exps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``exp[0, x_k, y_k]`` from one stack of 3x3 exponentials."""
    nodes = np.zeros((len(x), 3, 3), dtype=complex)
    nodes[:, 0, 1] = nodes[:, 1, 2] = 1.0
    nodes[:, 1, 1], nodes[:, 2, 2] = x, y
    return _expm(nodes)[:, 0, 2]


def dyson_second_order(
    h0: QMatrix, hp: QMatrix, t: float | Sequence[float]
) -> QMatrix | list[QMatrix]:
    """Interaction-picture propagator truncated at second order.

    Returns ``U_I(t) = 1 - int H_I + int int H_I H_I`` with
    ``H_I(s) = U0(s)^-1 Hp U0(s)`` and ``U0(s) = exp(-H0 s)``; the full
    propagator is ``U0(t) U_I(t)``. Both time-ordered integrals are exact,
    from their closed forms in the eigenbasis of the complex embedding of the
    diagonal ``H0`` (:func:`_interaction_terms`); :func:`van_loan_trace` is the
    oracle. ``t`` may be a 1-D sequence, for which a list with one propagator
    per entry is returned, and ``H0`` is diagonalised once for all of them.
    A propagator past the floating range raises ``OverflowError``.
    """
    ts = _times(t)
    _, v, vinv, terms = _interaction_terms(h0, hp, ts)
    ident = np.eye(len(v))
    results = [unembed(ident + v @ term @ vinv) for term in terms]
    return results[0] if np.ndim(t) == 0 else results


def dyson_trace(
    h0: QMatrix, hp: QMatrix, t: float | Sequence[float]
) -> float | np.ndarray:
    """``Re Tr U0(t) U_I(t)``, the second-order partition function, per ``t``.

    It sums ``1/2 Re sum_a exp(-t w_a) (1 + T_aa)`` over the terms ``T`` of
    :func:`dyson_second_order` in the eigenbasis of ``chi(H0)``, so no
    propagator leaves that basis. A result past the floating range is not
    finite.
    """
    ts = _times(t)
    w, _, _, terms = _interaction_terms(h0, hp, ts)
    values = _phase_trace(ts, w, 1.0 + np.diagonal(terms, axis1=1, axis2=2))
    return float(values[0]) if np.ndim(t) == 0 else values


def van_loan_trace(h0: QMatrix, hp: QMatrix, t: float) -> float:
    """``Re Tr U0(t) U_I(t)`` from Van Loan's block exponential.

    With ``A = -chi(H0)`` and ``P = -chi(Hp)``, the top block row of
    ``exp(t [[A, P, 0], [0, A, P], [0, 0, A]])`` holds ``U0(t)`` and ``U0(t)``
    times the first- and second-order Dyson terms (C. F. Van Loan, IEEE TAC
    23(3), 1978). It shares no code with :func:`_interaction_terms`, whose
    oracle it is. A block past the floating range gives a non-finite result,
    not an exception.
    """
    a, p = -embed(h0), -embed(hp)
    zero = np.zeros_like(a)
    block = float(t) * np.block([[a, p, zero], [zero, a, p], [zero, zero, a]])
    with np.errstate(over="ignore", invalid="ignore"):
        e = _expm(block) if np.isfinite(block).all() else block
    d = len(a)
    return float(0.5 * np.trace(e[:d, :d] + e[:d, d:2 * d] + e[:d, 2 * d:]).real)


def dyson_convergence_slope(h0: QMatrix, hp: QMatrix) -> float:
    """Order of the truncation error against the exact propagator.

    Rescales the perturbation so that ``t |Hp|`` runs over ``1e-1``, ``1e-2``
    and ``1e-3``, measures ``|U0 U_I - exp(-(H0+Hp) t)|`` and returns the
    log-log slope. A value near 3 certifies the second-order truncation.
    ``t = 1`` unless ``|H0|`` exceeds ``1e3``; then ``t |H0| = 1e3``, which
    keeps the rounding of the exponentials, about ``eps t |H0|``, far below
    the smallest truncation error, about ``1e-10``.
    """
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


# ---------------------------------------------------------------------------
# Closed forms on the commuting-scalar slice, over a beta grid
# ---------------------------------------------------------------------------


def _math_each(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """``fn`` of each element, one Python call each; NaN where it raises (an
    ``exp`` or ``pow`` past the float range, the ``log`` of a non-positive).

    numpy's ``exp``, ``expm1`` and ``log`` differ from ``math``'s in the last
    bit on a few percent of arguments, and Python's ``x ** 2`` is libm
    ``pow``, not numpy's ``x * x``; either would move printed digits. After
    a failure the map goes on from the next element: ``list.extend`` keeps
    the results it took before the error.
    """
    out, rest = [], iter(values.tolist())
    while True:
        try:
            out.extend(map(fn, rest))
            return np.array(out, dtype=float)
        except (OverflowError, ValueError):
            out.append(math.nan)


@np.errstate(all="ignore")
def _slice_kernel(p: EnergySliceParams, beta: np.ndarray, rederived: bool):
    """Shift ``m`` and ``P`` with its beta derivatives, ``Z1 = exp(-m beta) P``,
    at each ``beta``.

    With ``m = min(aE, bE)``, ``x = |aE - bE|`` and the signed coupling ``mu``
    of :func:`z1_formula`, ``P = 1 + exp(-x beta) + mu beta F`` where
    ``F = beta phi(x beta)``, ``phi(y) = -expm1(-y)/y`` and ``phi(0) = 1``, so
    a subnormal ``x`` still gives ``F = beta``. Nothing cancels or overflows.
    """
    mu = p.kappa if rederived else -p.kappa
    m, x = min(p.aE, p.bE), abs(p.aE - p.bE)
    y = x * beta
    e = _math_each(math.exp, -y)
    f = np.where(y != 0.0, beta * (-_math_each(math.expm1, -y) / y), beta)
    bracket = 1.0 + e + mu * beta * f
    return m, bracket, -x * e + mu * (f + beta * e), e * (x * x + mu * (2.0 - y))


@np.errstate(all="ignore")
def _shifted(m: float, beta: np.ndarray, bracket: np.ndarray) -> np.ndarray:
    """``exp(-m beta) * bracket``, or its signed infinity past the float range."""
    scale = _math_each(math.exp, -m * beta)
    return np.where(np.isnan(scale), np.copysign(np.inf, bracket), scale * bracket)


def z1_formula(p: EnergySliceParams, beta: float, rederived: bool = False) -> float:
    """Single-particle partition function on the slice, to second order.

    With ``rederived=False`` the coupling term carries the conventional
    display sign, ``Z1 = Ea + Eb - kappa*beta*(Eb - Ea)/(aE - bE)``, which
    corresponds to an off-diagonal product ``c*d = -kappa`` (real coupling).
    With ``rederived=True`` the sign follows from carrying this module's
    own second-order time-ordered integral with the anti-Hermiticity
    constraint ``d = -(alpha/gamma) conj(c)`` for purely imaginary
    quaternionic coupling, where ``c*d = +kappa``. The two branches differ;
    comparisons between them belong in the discrepancy log. It is one point
    of :func:`closed_form_grid`'s ``Z1`` column.
    """
    grid = np.array([float(beta)])
    m, bracket, _, _ = _slice_kernel(p, grid, rederived)
    return _shifted(m, grid, bracket)[0].item()


def _require_distinct(p: EnergySliceParams):
    if abs(p.aE - p.bE) < DEGENERACY_TOL:
        raise DegenerateLevels(
            f"display form requires distinct energies, got aE = {p.aE}, bE = {p.bE}"
        )


def printed_grid(p: EnergySliceParams, beta: Sequence[float], n_particles: float = 1,
                 k: float = 1.0) -> dict[str, np.ndarray]:
    """The slice display forms ``U``, ``S`` and ``Cv`` at each beta, in log order.

    Literal transcriptions: ``exp(beta bE)``, ``exp(beta aE)`` and the common
    denominator are computed once for all three. The specific heat keeps its
    overall sign and its stray ``1/N`` factor; its disagreement with the
    derivation chain is a reported finding. A form is NaN where its literal
    formula fails (an exponential or a square past the float range, the log
    of a ``Z1`` that is not positive) and everywhere for degenerate levels.
    """
    beta = np.asarray(beta, dtype=float)
    if abs(p.aE - p.bE) < DEGENERACY_TOL:
        return {q: np.full(beta.shape, np.nan) for q in ("U", "S", "Cv")}
    n, a, b, kp = float(n_particles), p.aE, p.bE, p.kappa
    delta = a - b
    with np.errstate(all="ignore"):
        m, z_bracket, _, _ = _slice_kernel(p, beta, rederived=False)
        log_z1 = _math_each(math.log, _shifted(m, beta, z_bracket))
        xb, xa = _math_each(math.exp, beta * b), _math_each(math.exp, beta * a)
        plus, minus = delta + kp * beta, delta - kp * beta
        den = xb * plus + xa * minus
        u_num = xb * (a * plus - kp) + xa * (b * minus + kp)
        s_num = (a * delta - kp + kp * beta * a) * xb + (b * delta + kp - kp * beta * b) * xa
        kb2 = _math_each(lambda v: v ** 2, kp * beta)
        bracket = delta * delta * (delta * delta - kb2 - 4.0 * kp)
        cv_num = -_math_each(math.exp, beta * (a + b)) * (bracket + 2.0 * kp * kp) + kp * kp * (
            _math_each(math.exp, 2.0 * beta * a) + _math_each(math.exp, 2.0 * beta * b)
        )
        return {"U": n * u_num / den,
                "S": n * k * log_z1 + n * k * beta * s_num / den,
                "Cv": (beta * beta * k / n) * cv_num / _math_each(lambda v: v ** 2, den)}


def printed_internal_energy(p: EnergySliceParams, beta: float, n_particles: int = 1) -> float:
    """:func:`printed_grid` of ``U`` at one beta; degenerate levels raise."""
    _require_distinct(p)
    return printed_grid(p, [beta], n_particles)["U"][0].item()


def printed_entropy(p: EnergySliceParams, beta: float, n_particles: int = 1,
                    k: float = 1.0) -> float:
    """:func:`printed_grid` of ``S`` at one beta; degenerate levels raise."""
    _require_distinct(p)
    return printed_grid(p, [beta], n_particles, k)["S"][0].item()


def printed_specific_heat(p: EnergySliceParams, beta: float, n_particles: int = 1,
                          k: float = 1.0) -> float:
    """:func:`printed_grid` of ``Cv`` at one beta; degenerate levels raise."""
    _require_distinct(p)
    return printed_grid(p, [beta], n_particles, k)["Cv"][0].item()


def discrepancies(
    checks: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    beta: Sequence[float],
    tol: float,
) -> DiscrepancyLog:
    """The one rule for when a printed display value is a discrepancy.

    ``checks`` holds ``(quantity, printed, derived)`` columns with one value
    per ``beta``. A printed value that is not finite, NaN for a display form
    that failed included, gives no record. Otherwise the pair is recorded
    when ``|printed - derived| > tol * max(1, |derived|)``; a gap exactly at
    the threshold, or a NaN derived value, is none. Records come in grid
    order, and at each beta in the order of ``checks``.
    """
    if not checks:
        return DiscrepancyLog()
    printed = np.array([column for _, column, _ in checks], dtype=float)
    derived = np.array([column for _, _, column in checks], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(printed - derived)
        found = np.isfinite(printed) & (gap > tol * np.maximum(1.0, np.abs(derived)))
    at, which = np.nonzero(found.T)
    names = [quantity for quantity, _, _ in checks]
    return DiscrepancyLog(list(map(names.__getitem__, which.tolist())),
                          printed[which, at].tolist(), derived[which, at].tolist(),
                          np.asarray(beta, dtype=float)[at].tolist(), at.tolist())


def discrepancy(
    quantity: str, printed: Callable[[], float], derived: float, beta: float, tol: float
) -> DiscrepancyRecord | None:
    """One point of :func:`discrepancies`; ``printed`` is evaluated here, and a
    display form that fails with ``OverflowError`` or a :class:`QuatstatError`
    gives no record."""
    try:
        value = printed()
    except (OverflowError, QuatstatError):
        return None
    found = discrepancies([(quantity, [value], [derived])], [beta], tol)
    return found.records()[0] if found else None


@np.errstate(all="ignore")
def closed_form_grid(
    p: EnergySliceParams,
    beta: Sequence[float],
    n_particles: int = 1,
    k: float = 1.0,
    rederived: bool = False,
    diff_tol: float = 1e-8,
    quantities: Sequence[str] = ("U", "S", "Cv"),
) -> ThermoGrid:
    """Slice thermodynamics generated from ``Z1`` by analytic differentiation.

    ``A = -(N/beta) ln Z1``; ``U``, ``S`` and ``Cv`` come from the first two
    beta derivatives of the chosen ``Z1`` branch, so every row satisfies
    ``A = U - T S`` and ``Cv = (1/N) dU/dT`` by construction. The display
    forms of :func:`printed_grid` named in ``quantities`` are logged, in that
    order at each beta, wherever :func:`discrepancies` finds them apart from
    the derivation chain at ``diff_tol``.
    """
    beta = np.asarray(beta, dtype=float)
    if (beta <= 0.0).any():
        raise ValueError("beta must be positive on the thermodynamic branch")
    n = float(int(n_particles))
    m, bracket, d1, d2 = _slice_kernel(p, beta, rederived)
    z1 = _shifted(m, beta, bracket).tolist()
    log_p = _math_each(math.log, bracket)
    ratio = d1 / bracket
    a_free = -(n / beta) * (log_p - m * beta)
    u = n * (m - ratio)
    s = n * k * (log_p - beta * ratio)
    cv = k * beta * beta * (d2 * bracket - d1 * d1) / (bracket * bracket)
    bad = np.flatnonzero(~(bracket > 0.0)).tolist()
    u[bad] = cv[bad] = np.nan  # A and S are already NaN there, through log_p
    derived = {"U": u, "S": s, "Cv": cv}
    printed = printed_grid(p, beta, n, k) if quantities else {}
    checks = [(q, printed[q], derived[q]) for q in quantities]
    error = UnphysicalZ(f"Z1 = {z1[bad[0]]:.6g} is not positive at beta = "
                        f"{beta[bad[0]]:.6g}") if bad else None
    return ThermoGrid(beta.tolist(), z1, a_free.tolist(), s.tolist(), u.tolist(),
                      cv.tolist(), discrepancies(checks, beta, diff_tol), error)


def thermo_closed_form(p: EnergySliceParams, beta: float, *args, **kwargs) -> ThermoReport:
    """One point of :func:`closed_form_grid`, which takes the same arguments
    after ``beta``; raises its error."""
    return closed_form_grid(p, [beta], *args, **kwargs).one_point()


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
        return thermo_closed_form(vm.slice_at(vol), beta, n_particles, 1.0, rederived,
                                  quantities=()).A

    def central(step: float) -> float:
        return (free_energy(volume + step) - free_energy(volume - step)) / (2.0 * step)

    coarse, fine = central(h), central(h / 2.0)
    derivative = (4.0 * fine - coarse) / 3.0
    return -derivative


# ---------------------------------------------------------------------------
# Spectral path, over a beta grid
# ---------------------------------------------------------------------------


def _boltzmann_sums(e: SpectralEnsemble, beta: np.ndarray):
    """The shift, the weight total, the mean energy and the energy variance
    per beta, from one set of shifted Boltzmann weights, which are stable
    against overflow for any beta sign.

    Each dot product is a stacked ``(1, n) @ (n, 1)`` matmul, BLAS ``ddot``
    per row like the 1-D ``@`` at one beta; gemv, ``einsum`` and row sums of
    products round differently.
    """
    energies = e.energies
    exponents = np.multiply.outer(-beta, energies)
    shift = exponents.max(axis=1)
    w = e.degeneracies * np.exp(exponents - shift[:, None])
    total = w.sum(axis=1)
    prob = (w / total[:, None])[:, None, :]
    mean = (prob @ energies[:, None])[:, 0, 0]
    return shift, total, mean, (prob @ ((energies - mean[:, None]) ** 2)[..., None])[:, 0, 0]


def _sums_at(e: SpectralEnsemble, beta: float) -> tuple[float, float, float]:
    """``ln Z1``, the mean energy and the energy variance at one beta."""
    shift, total, mean, var = _boltzmann_sums(e, np.array([float(beta)]))
    return float(shift[0] + np.log(total[0])), float(mean[0]), float(var[0])


@np.errstate(all="ignore")
def z_spectral_grid(e: SpectralEnsemble, beta: Sequence[float]) -> list[float]:
    """Single-particle partition function ``sum g_r exp(-beta E_r)`` per beta."""
    shift, total, _, _ = _boltzmann_sums(e, np.asarray(beta, dtype=float))
    return (np.exp(shift) * total).tolist()


def z_spectral(e: SpectralEnsemble, beta: float) -> float:
    return z_spectral_grid(e, [beta])[0]


def log_z_spectral(e: SpectralEnsemble, beta: float) -> float:
    return _sums_at(e, beta)[0]


def log_z_total(e: SpectralEnsemble, beta: float) -> float:
    """Log partition function of N independent particles: ``N ln Z1``."""
    return e.n_particles * log_z_spectral(e, beta)


@np.errstate(all="ignore")
def spectral_grid(e: SpectralEnsemble, beta: Sequence[float]) -> ThermoGrid:
    """Exact thermodynamics from the Boltzmann sum over real energies.

    ``U`` is the extensive mean energy, ``A = -(N/beta) ln Z1``, ``S``
    follows from ``A = U - T S``, and the specific heat per particle is
    ``k beta^2`` times the single-particle energy variance.
    """
    beta = np.asarray(beta, dtype=float)
    if (beta == 0.0).any():
        raise ValueError("beta must be nonzero for the free-energy branch")
    n, k = float(e.n_particles), e.k
    shift, total, mean, var = _boltzmann_sums(e, beta)
    log_z1 = shift + np.log(total)
    a_free = -(n / beta) * log_z1
    u = n * mean
    s = k * beta * (u - a_free)
    cv = k * beta * beta * var
    return ThermoGrid(beta.tolist(), np.exp(log_z1).tolist(), a_free.tolist(), s.tolist(),
                      u.tolist(), cv.tolist())


def thermo_spectral(e: SpectralEnsemble, beta: float) -> ThermoReport:
    """One point of :func:`spectral_grid`."""
    return spectral_grid(e, [beta]).one_point()


def energy_variance(e: SpectralEnsemble, beta: float) -> float:
    """Single-particle energy variance ``<E^2> - <E>^2`` from the weights."""
    return _sums_at(e, beta)[2]


def relative_rms(e: SpectralEnsemble, beta: float) -> float:
    """Relative r.m.s. energy fluctuation of the N-particle system.

    Independent particles add variances, so the ratio carries an explicit
    ``1/sqrt(N)`` prefactor: quadrupling ``N`` halves the result exactly.
    """
    _, mean, var = _sums_at(e, beta)
    scale = max(1.0, float(np.abs(e.energies).max()))
    if abs(mean) <= 1e-12 * scale:
        raise ZeroMeanEnergy("mean energy vanishes; relative fluctuation undefined")
    return math.sqrt(var) / mean / math.sqrt(e.n_particles)
