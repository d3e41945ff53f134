"""Two-level gases, negative temperature, and the concrete physical models.

The combinatorial route to negative temperature: a gas of ``N``
distinguishable particles on two levels ``E- < E+`` reaches total energy
``E`` in ``Omega = N! / (N+! N-!)`` ways. Entropy grows with ``E`` up to the
midpoint ``N (E+ + E-) / 2`` where it peaks at ``N k ln 2``, then falls, so
``1/T = dS/dE`` changes sign there: above the midpoint the temperature is
negative, shrinking in magnitude toward the top of the band.

Two concrete models are provided: a spin-half particle in a constant
quaternionic potential (levels ``omega/2 +- v``) and the reduced two-level
form of a two-qubit entangling interaction (levels ``2`` and ``0``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConstraintViolation, EnergyOutOfRange, InfiniteTemperature
from .linalg import QMatrix, dagger, fro_norm, mat_vec, vec_scale_right
from .metric import MetricOperator, build_metric, is_quasi_anti_hermitian
from .quaternion import I, J, Quaternion, Value
from .thermo import SpectralEnsemble, ToyModelParams, _math_each, build_toy_hamiltonian


# ---------------------------------------------------------------------------
# Generic two-level gas
# ---------------------------------------------------------------------------


def xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * ln(y)`` at each pair, and ``0`` where ``x == 0`` and ``y`` is not NaN.

    Bit for bit ``scipy.special.xlogy`` on float arrays: ``y == 0`` gives
    ``x * -inf`` and ``y < 0`` gives NaN; every ``log`` is ``math``'s.
    """
    with np.errstate(all="ignore"):
        log_y = np.where(y == 0, -math.inf, _math_each(math.log, y))
        return np.where((x == 0) & ~np.isnan(y), 0.0, x * log_y)


def lgamma(x: float) -> float:
    """``math.lgamma``, but ``inf`` where the result passes the float range
    (``x`` above about 2.6e305), as ``scipy.special.gammaln`` gives."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


class TwoLevelGas(Value, frozen=True):
    """``N`` distinguishable particles on two strictly ordered levels."""

    n_particles: int
    e_plus: float
    e_minus: float

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConstraintViolation("particle count must be at least 1")
        if not (self.e_plus > self.e_minus):
            raise ConstraintViolation("levels must satisfy e_plus > e_minus")
        if not math.isfinite(self.e_max - self.e_min):
            raise ConstraintViolation(f"band [{self.e_min}, {self.e_max}] past the float range")

    @property
    def e_min(self) -> float:
        return self.n_particles * self.e_minus

    @property
    def e_max(self) -> float:
        return self.n_particles * self.e_plus

    @property
    def midpoint(self) -> float:
        return 0.5 * self.n_particles * (self.e_plus + self.e_minus)

    def _slack(self) -> float:
        """``1e-12`` of the band's larger end, but never below the smallest
        positive float, so that a narrow band keeps its edges apart from its
        midpoint."""
        return max(1e-12 * max(abs(self.e_min), abs(self.e_max)), math.ulp(0.0))


#: ``ln(2 pi) / 2``, the constant of Stirling's formula.
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_log_multiplicity(n: float, n_plus: float, n_minus: float) -> float:
    """``ln N!/(N+! N-!)`` where ``ln N!`` passes the float range (``N`` above
    about 2.5e305), so it is not formed.

    With ``N = N+ + N-``, Stirling's formula for ``ln N!`` splits into one
    term per population ``m``, ``m ln N - m - ln m!``, which stays below
    ``N``. A population under 100 takes ``ln m!`` from log-gamma; a larger one
    is ``-m ln(m/N) - ln(2 pi m)/2`` less Stirling's series
    ``1/(12 m) - 1/(360 m^3) + 1/(1260 m^5)``. ``ln(2 pi N)/2`` is added once;
    the series term of ``N`` is below the last digit.
    """
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


@np.errstate(all="ignore")
def negtemp_grid(g: TwoLevelGas, energies, k: float = 1.0) -> tuple[list, ...]:
    """Columns ``(E, N+, N-, S_stirling, S_exact, 1/T, T)`` over the energies,
    in order, each a list of Python floats.

    ``N+ + N- = N`` exactly; ``S_exact`` is ``k ln Omega``; ``1/T = dS/dE`` is
    zero at the midpoint, positive below it, negative above it and ``+-inf``
    at the edges, and ``T`` is None where it is zero. The populations serve
    both entropies; the arithmetic is numpy's and every ``log`` and ``lgamma``
    is ``math``'s (numpy's differ in the last bit), one pass over the grid
    each. The first energy outside the band raises EnergyOutOfRange; a NaN
    energy gives NaN.
    """
    n, e_min, e_max, mid, slack = float(g.n_particles), g.e_min, g.e_max, g.midpoint, g._slack()
    energy = np.asarray(energies, dtype=float)
    out = (energy < e_min - slack) | (energy > e_max + slack)
    if out.any():
        bad = energies[int(out.argmax())]
        raise EnergyOutOfRange(f"E = {bad} outside [{e_min}, {e_max}] for this gas", bad)
    # N+ = (E - N E-)/(E+ - E-), clamped as min(max(N+, 0), N) clamps it (-0.0
    # stays); N- = N - N+, so the pair sums to N exactly
    n_plus = (energy - e_min) / (g.e_plus - g.e_minus)
    n_plus = np.where(n < n_plus, n, np.where(n_plus < 0.0, 0.0, n_plus))
    n_minus = n - n_plus
    # + 0.0 normalizes -0.0 at the band edges
    stirling = -k * (xlogy(n_plus, n_plus / n) + xlogy(n_minus, n_minus / n)) + 0.0
    log_total = lgamma(n + 1.0)
    if log_total < math.inf:
        exact = (log_total - _math_each(math.lgamma, n_plus + 1.0)
                 - _math_each(math.lgamma, n_minus + 1.0))
    else:
        exact = np.array([_stirling_log_multiplicity(n, *pair)
                          for pair in zip(n_plus.tolist(), n_minus.tolist())])
    inverse = np.select(
        [abs(energy - mid) <= slack, energy <= e_min + slack, energy >= e_max - slack],
        [0.0, math.inf, -math.inf],
        k / (g.e_minus - g.e_plus) * _math_each(math.log, -(energy - e_min) / (energy - e_max)))
    t = (1.0 / inverse).tolist()  # 1/(+-inf) is the edges' +-0.0
    for i in np.flatnonzero(inverse == 0.0).tolist():
        t[i] = None
    return (energy.tolist(), n_plus.tolist(), n_minus.tolist(), stirling.tolist(),
            (k * exact).tolist(), inverse.tolist(), t)


def entropy_stirling(g: TwoLevelGas, energy: float, k: float = 1.0) -> float:
    """Stirling entropy ``k [N ln N - N+ ln N+ - N- ln N-]``, exact at the band
    edges (zero) and at the midpoint (``N k ln 2``)."""
    return negtemp_grid(g, [energy], k)[3][0]


def log_multiplicity(g: TwoLevelGas, energy: float) -> float:
    """``ln N!/(N+! N-!)`` via log-gamma; exact for non-integer populations
    by analytic continuation, and Stirling's formula past ``N`` near 2.5e305."""
    return negtemp_grid(g, [energy])[4][0]


def temperature(g: TwoLevelGas, energy: float, k: float = 1.0) -> float:
    """Combinatorial temperature; sign flips across the entropy maximum. At the
    band edges it is ``+0.0`` and ``-0.0``; where ``1/T`` is zero (the midpoint)
    :class:`InfiniteTemperature` is raised, which keeps a float overflow apart."""
    t = negtemp_grid(g, [energy], k)[6][0]
    if t is None:
        raise InfiniteTemperature(f"E = {energy} is the entropy maximum of this gas; |T| diverges")
    return t


# ---------------------------------------------------------------------------
# Spin-half particle in a constant quaternionic potential
# ---------------------------------------------------------------------------


class SpinModelParams(Value, frozen=True):
    """Level splitting ``omega``, potential strength ``v``, metric parameter ``x``."""

    omega: float
    v: float
    x: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ConstraintViolation("omega must be positive")
        if self.v == 0.0 or self.x == 0.0:
            raise ConstraintViolation("v and x must be nonzero")


def spin_toy_params(p: SpinModelParams) -> ToyModelParams:
    """The spin model as a special case of the general two-level model."""
    return ToyModelParams(
        a=I * (p.omega / 2.0),
        b=I * (-p.omega / 2.0),
        c=J * (p.v / p.x),
        alpha=p.x * p.x,
        gamma=1.0,
    )


def spin_eigenvectors(p: SpinModelParams):
    """Biorthonormal right eigenvectors ``(psi+, psi-, phi+, phi-)``.

    ``psi+- = (+-i/x, j)/sqrt(2)`` satisfy ``H psi = psi * iE`` with
    ``E+- = omega/2 +- v``; ``phi+- = (+-ix, j)/sqrt(2)`` are their duals.
    Any right-scalar rescaling is an equally valid representative.
    """
    s = 1.0 / math.sqrt(2.0)
    psi_plus = (I * (s / p.x), J * s)
    psi_minus = (I * (-s / p.x), J * s)
    phi_plus = (I * (s * p.x), J * s)
    phi_minus = (I * (-s * p.x), J * s)
    return psi_plus, psi_minus, phi_plus, phi_minus


def _certify_levels(h: QMatrix, pairs) -> None:
    """Raise :class:`ConstraintViolation` unless ``H psi = psi * iE`` holds for
    each ``(psi, E)`` of ``pairs``."""
    for psi, energy in pairs:
        left, right = mat_vec(h, psi), vec_scale_right(psi, I * energy)
        residual = max(abs(a - b) for a, b in zip(left, right))
        if residual > 1e-10 * max(1.0, fro_norm(h)):
            raise ConstraintViolation(f"eigenvector residual {residual:.3e} exceeds tolerance")


def build_spin_model(
    p: SpinModelParams,
) -> tuple[QMatrix, MetricOperator, SpectralEnsemble]:
    """Hamiltonian, metric ``diag(x^2, 1)`` and energy ensemble of the spin model.

    The energies are the closed form ``omega/2 +- v``; the lower one is
    negative when ``|v| > omega/2``. Construction certifies each by the relation
    ``H psi = psi * iE`` for its closed-form eigenvector, which does not
    depend on ``v``, so each signed level is continuous in ``v``.
    """
    toy = spin_toy_params(p)
    h = build_toy_hamiltonian(toy)
    metric = build_metric(abs(p.x), 1.0, 0.0)
    expected = [p.omega / 2.0 + p.v, p.omega / 2.0 - p.v]
    psi_plus, psi_minus, _, _ = spin_eigenvectors(p)
    _certify_levels(h, ((psi_plus, expected[0]), (psi_minus, expected[1])))
    ensemble = SpectralEnsemble(((expected[0], 1), (expected[1], 1)))
    return h, metric, ensemble


def spin_negative_temperature(p: SpinModelParams, n_particles: int = 1) -> TwoLevelGas:
    """Two-level gas with the spin model's levels ``omega/2 +- |v|``."""
    v = abs(p.v)
    return TwoLevelGas(
        n_particles=n_particles,
        e_plus=p.omega / 2.0 + v,
        e_minus=p.omega / 2.0 - v,
    )


#: The closed-form levels of :func:`build_qubit_model`, the upper one first.
QUBIT_LEVELS = (2.0, 0.0)


def qubit_negative_temperature(n_particles: int = 1) -> TwoLevelGas:
    """Two-level gas with the reduced two-qubit levels :data:`QUBIT_LEVELS`."""
    return TwoLevelGas(n_particles, *QUBIT_LEVELS)


def spin_mean_energy_grid(omega: float, v: float, beta: Sequence[float],
                          n_particles: float = 1) -> np.ndarray:
    """Mean energy of ``N`` particles from the spectral path, ``N (omega/2 - v tanh(beta v))``,
    at each beta (``inf`` past the float range); every ``tanh`` is ``math``'s."""
    with np.errstate(all="ignore"):
        return float(n_particles) * (
            omega / 2.0 - v * _math_each(math.tanh, np.asarray(beta, dtype=float) * v))


def spin_entropy_per_particle(v: float, beta: float, k: float = 1.0) -> float:
    """Entropy per particle from the spectral path; the splitting center drops out."""
    x = beta * v
    log_2cosh = abs(x) + math.log1p(math.exp(-2.0 * abs(x)))
    return k * (log_2cosh - x * math.tanh(x))


# -- display forms of the spin thermodynamics -------------------------------
#
# The following transcribe the specialized spin-model expressions in their
# conventional display form, including a sin-vs-sinh mixup in the internal
# energy; their disagreement with the spectral path is a reported finding.


def printed_spin_grid(omega: float, v: float, beta: Sequence[float], n_particles: float = 1,
                      k: float = 1.0) -> dict[str, np.ndarray]:
    """Display forms of the spin internal energy ``U`` and entropy ``S`` at each
    beta (literal transcriptions).

    Both share ``half``, its sin, sinh and cosh, the numerator and the
    denominator; every transcendental is ``math``'s, one call per element.
    A form is NaN where its literal formula fails (a sinh or cosh past the
    float range, the log of an argument that is not positive) and is not
    finite where the denominator is zero.
    """
    beta, n = np.asarray(beta, dtype=float), float(n_particles)
    with np.errstate(all="ignore"):
        half = 0.5 * omega * beta
        sin, sinh, cosh = (_math_each(fn, half) for fn in (math.sin, math.sinh, math.cosh))
        num = omega * omega * sin + 2.0 * v * v * sinh + beta * omega * v * v * cosh
        den = 2.0 * omega * cosh - 2.0 * beta * v * v * sinh
        log_arg = _math_each(math.log, 2.0 * (cosh - (v * v * beta / omega) * sinh))
        return {"U": n * num / den, "S": n * k * log_arg + n * k * beta * num / den}


def printed_spin_entropy(
    omega: float, v: float, beta: float, n_particles: int = 1, k: float = 1.0
) -> float:
    """:func:`printed_spin_grid` of ``S`` at one beta."""
    return printed_spin_grid(omega, v, [beta], n_particles, k)["S"][0].item()


def printed_spin_internal_energy(
    omega: float, v: float, beta: float, n_particles: int = 1
) -> float:
    """:func:`printed_spin_grid` of ``U`` at one beta."""
    return printed_spin_grid(omega, v, [beta], n_particles)["U"][0].item()


def printed_spin_log_multiplicity(
    omega: float, v: float, energy: float, n_particles: int
) -> float:
    """Display form of the spin gas multiplicity (log), via log-gamma.

    The display writes the upper-population factorial with a leading minus
    inside its argument; both arguments below are the manifestly positive
    populations, which is the same number.
    """
    n_minus = -(energy - n_particles * (omega / 2.0 + v)) / (2.0 * v)
    n_plus = (energy - n_particles * (omega / 2.0 - v)) / (2.0 * v)
    if n_plus < -1e-12 or n_minus < -1e-12:
        raise EnergyOutOfRange(f"E = {energy} outside the spin gas band")
    return (
        lgamma(n_particles + 1.0)
        - lgamma(max(n_minus, 0.0) + 1.0)
        - lgamma(max(n_plus, 0.0) + 1.0)
    )


def printed_spin_entropy_combinatorial(
    omega: float, v: float, energy: float, n_particles: int, k: float = 1.0
) -> float:
    """Display form of the spin gas Stirling entropy (literal transcription)."""
    upper = energy - n_particles * (omega / 2.0 + v)
    lower = energy - n_particles * (omega / 2.0 - v)
    plus, minus = upper / (2.0 * v), lower / (2.0 * v)
    term_plus, term_minus = xlogy(np.array([plus, minus]), np.array([-plus, minus])).tolist()
    return float(
        k * (n_particles * math.log(n_particles) + term_plus - term_minus)
    )


def printed_spin_inverse_temperature(
    omega: float, v: float, energy: float, n_particles: int, k: float = 1.0
) -> float:
    """Display form of the spin gas inverse temperature (literal transcription)."""
    num = energy - n_particles * (omega / 2.0 - v)
    den = energy - n_particles * (omega / 2.0 + v)
    return -(k / (2.0 * v)) * math.log(-num / den)


# ---------------------------------------------------------------------------
# Reduced two-qubit entangling interaction
# ---------------------------------------------------------------------------


class QubitModelParams(Value, frozen=True):
    """Phase ``phi`` of the reduced two-qubit interaction.

    The model is the ``zeta = (0, 0, 1)`` instance of the two-qubit coupling.
    """

    phi: float = 0.0


def build_qubit_model(
    p: QubitModelParams,
) -> tuple[QMatrix, MetricOperator, SpectralEnsemble]:
    """Hamiltonian ``diag(-2 j e^{-i phi}, 0)``, identity metric, energies ``{2, 0}``.

    The nonzero entry ``q`` is a purely imaginary quaternion of norm 2 for
    every phase, so the spectrum is phase independent and the matrix is
    exactly anti-Hermitian. The energies are the closed form, certified as
    the spin levels are, by ``H psi = psi * iE`` for ``psi = (u, 0)`` with
    ``E = 2``, where the unit quaternion ``u = (1 + (i x q)/2)/sqrt(2)``,
    with ``x`` the cross product of vector parts, turns ``i`` into ``q/2``,
    and for ``psi = (0, 1)`` with ``E = 0``.
    """
    entry = Quaternion(0.0, 0.0, -2.0 * math.cos(p.phi), -2.0 * math.sin(p.phi))
    h = QMatrix.diag([entry, Quaternion()])
    residual = fro_norm(h + dagger(h))
    if residual > 1e-12:
        raise ConstraintViolation(f"anti-Hermiticity residual {residual:.3e}")
    metric = MetricOperator.identity(2)
    if not is_quasi_anti_hermitian(h, metric):
        raise ConstraintViolation("qubit Hamiltonian failed certification")
    s = 1.0 / math.sqrt(2.0)
    u = Quaternion(s, 0.0, s * math.sin(p.phi), -s * math.cos(p.phi))
    upper, lower = QUBIT_LEVELS
    _certify_levels(h, (((u, Quaternion()), upper), ((Quaternion(), Quaternion(1.0)), lower)))
    ensemble = SpectralEnsemble(((upper, 1), (lower, 1)))
    return h, metric, ensemble
