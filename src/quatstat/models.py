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
from dataclasses import dataclass

from .errors import ConstraintViolation, EnergyOutOfRange, InfiniteTemperature, UnphysicalZ
from .linalg import (
    QMatrix,
    dagger,
    energies_by_continuity,
    fro_norm,
    mat_vec,
    vec_scale_right,
)
from .metric import MetricOperator, build_metric, is_quasi_anti_hermitian
from .quaternion import I, J, Quaternion
from .thermo import SpectralEnsemble, ToyModelParams, build_toy_hamiltonian


# ---------------------------------------------------------------------------
# Generic two-level gas
# ---------------------------------------------------------------------------


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


def lgamma(x: float) -> float:
    """``math.lgamma``, but ``inf`` where the result passes the float range
    (``x`` above about 2.6e305), as ``scipy.special.gammaln`` gives."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TwoLevelGas:
    """``N`` distinguishable particles on two strictly ordered levels."""

    n_particles: int
    e_plus: float
    e_minus: float

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConstraintViolation("particle count must be at least 1")
        if not (self.e_plus > self.e_minus):
            raise ConstraintViolation("levels must satisfy e_plus > e_minus")

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
        return 1e-12 * max(1.0, abs(self.e_min), abs(self.e_max))


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


def log_multiplicity(g: TwoLevelGas, energy: float) -> float:
    """``ln N!/(N+! N-!)`` via log-gamma; exact for non-integer populations
    by analytic continuation."""
    n_plus, n_minus = occupation_numbers(g, energy)
    return (
        lgamma(g.n_particles + 1.0)
        - lgamma(n_plus + 1.0)
        - lgamma(n_minus + 1.0)
    )


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


# ---------------------------------------------------------------------------
# Spin-half particle in a constant quaternionic potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinModelParams:
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
    for psi, energy in ((psi_plus, expected[0]), (psi_minus, expected[1])):
        left = mat_vec(h, psi)
        right = vec_scale_right(psi, I * energy)
        residual = max(abs(a - b) for a, b in zip(left, right))
        if residual > 1e-10 * max(1.0, fro_norm(h)):
            raise ConstraintViolation(
                f"eigenvector residual {residual:.3e} exceeds tolerance"
            )
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


def qubit_negative_temperature(n_particles: int = 1) -> TwoLevelGas:
    """Two-level gas with the reduced two-qubit levels exactly ``2`` and ``0``;
    :func:`build_qubit_model` tracks the upper one to a few ulps above 2."""
    return TwoLevelGas(n_particles=n_particles, e_plus=2.0, e_minus=0.0)


def spin_mean_energy(omega: float, v: float, beta: float) -> float:
    """Mean energy per particle from the spectral path: ``omega/2 - v tanh(beta v)``."""
    return omega / 2.0 - v * math.tanh(beta * v)


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
    term_plus = xlogy(upper / (2.0 * v), -upper / (2.0 * v))
    term_minus = xlogy(lower / (2.0 * v), lower / (2.0 * v))
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


@dataclass(frozen=True)
class QubitModelParams:
    """Phase ``phi`` of the reduced two-qubit interaction.

    The model is the ``zeta = (0, 0, 1)`` instance of the two-qubit coupling.
    """

    phi: float = 0.0


def build_qubit_model(
    p: QubitModelParams,
) -> tuple[QMatrix, MetricOperator, SpectralEnsemble]:
    """Hamiltonian ``diag(-2 j e^{-i phi}, 0)``, identity metric, energies ``{2, 0}``.

    The nonzero entry is a purely imaginary quaternion of norm 2 for every
    phase, so the spectrum is phase independent and the matrix is exactly
    anti-Hermitian.
    """
    entry = Quaternion(0.0, 0.0, -2.0 * math.cos(p.phi), -2.0 * math.sin(p.phi))
    h = QMatrix.diag([entry, Quaternion()])
    residual = fro_norm(h + dagger(h))
    if residual > 1e-12:
        raise ConstraintViolation(f"anti-Hermiticity residual {residual:.3e}")
    metric = MetricOperator.identity(2)
    if not is_quasi_anti_hermitian(h, metric):
        raise ConstraintViolation("qubit Hamiltonian failed certification")
    energies = energies_by_continuity(h, QMatrix.zeros(2))
    ensemble = SpectralEnsemble(tuple((e, 1) for e in energies))
    return h, metric, ensemble
