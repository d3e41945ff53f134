"""Metric operators, adjoint symmetry classification, and expectation values.

A metric operator is an invertible Hermitian complex matrix ``eta`` defining
the physical inner product ``<u, eta v>``. When ``eta`` is positive definite
it factors as ``eta = theta^2`` with ``theta`` Hermitian, and the adjoint of
an operator ``Q`` with respect to the metric inner product is
``eta^-1 Q^dag eta``. Hamiltonians of interest satisfy
``eta H eta^-1 = -H^dag`` (pseudo-anti-Hermitian; quasi-anti-Hermitian when
``eta > 0``), observables satisfy ``eta Q eta^-1 = Q^dag``.

Metrics are restricted to complex (zero j, k components) matrices: that is
the only class compatible with quasistationary complex projections of the
dynamics, and it is all the two-level models need.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ConstraintViolation, DimensionMismatch, NotDensity, NotPositive,
                     SingularTheta)
from .linalg import QMatrix, dagger, embed, fro_norm, inverse, mat_mul, re_trace
from .quaternion import Value

DEFAULT_REL_TOL = 1e-10


def _is_complex_matrix(m: QMatrix) -> bool:
    return float(np.abs(m.comp[..., 2:]).max()) <= DEFAULT_REL_TOL * max(1.0, fro_norm(m))


class MetricOperator(Value, frozen=True):
    """Hermitian invertible metric ``eta``, with square-root factor when positive.

    ``theta`` is the Hermitian factor with ``eta = theta^2``; it exists only
    for positive-definite metrics and is ``None`` otherwise.
    """

    eta: QMatrix
    theta: QMatrix | None
    positive: bool

    @property
    def n(self) -> int:
        return self.eta.n

    @property
    def eta_inv(self) -> QMatrix:
        return inverse(self.eta)

    @classmethod
    def identity(cls, n: int) -> "MetricOperator":
        eye = QMatrix.identity(n)
        return cls(eta=eye, theta=eye, positive=True)

    @classmethod
    def from_matrix(cls, eta: QMatrix, require_positive: bool = True) -> "MetricOperator":
        """Wrap an explicit Hermitian metric, verifying its invariants.

        With ``require_positive=False`` an invertible indefinite Hermitian
        metric is accepted (pseudo- but not quasi-classification); no
        square-root factor is available in that case.
        """
        if not _is_complex_matrix(eta):
            raise ConstraintViolation("metric must be complex (zero j, k parts)")
        scale = max(1.0, fro_norm(eta))
        if fro_norm(eta - dagger(eta)) > DEFAULT_REL_TOL * scale:
            raise ConstraintViolation("metric must be Hermitian")
        eigenvalues = np.linalg.eigvalsh(embed(eta))
        if np.abs(eigenvalues).min() <= DEFAULT_REL_TOL * scale:
            raise NotPositive("metric is numerically singular")
        positive = bool(eigenvalues.min() > 0.0)
        if require_positive and not positive:
            raise NotPositive(
                f"metric has non-positive eigenvalue {eigenvalues.min():.6g}"
            )
        theta = None
        if positive:
            z1, _ = eta.complex_pair()
            values, vectors = np.linalg.eigh(z1)
            root = (vectors * np.sqrt(values)) @ vectors.conj().T
            theta = QMatrix.from_complex(root)
        return cls(eta=eta, theta=theta, positive=positive)


def build_metric(x: float, y: float, z: complex) -> MetricOperator:
    """General 2-dimensional positive metric from its factor parameters.

    Builds ``theta = [[x, z], [conj(z), y]]`` and ``eta = theta^2``, i.e.
    ``eta = [[x^2+|z|^2, (x+y) z], [(x+y) conj(z), y^2+|z|^2]]``. Requires
    ``x*y != |z|^2`` so that ``theta`` is invertible, and a finite ``eta``.
    """
    x, y, z = float(x), float(y), complex(z)
    r = math.hypot(z.real, z.imag)  # abs(z), which raises past the float range
    sq, r2 = max(x * x, y * y), r * r
    if not math.isfinite(sq + r2):
        raise ConstraintViolation(f"x^2 + |z|^2 or y^2 + |z|^2 passes the float range (x = "
                                  f"{x:.3e}, y = {y:.3e}, |z| = {r:.3e})")
    det = x * y - r2
    scale = max(1.0, sq, r2)
    if abs(det) <= 1e-12 * scale:
        raise SingularTheta(f"x*y - |z|^2 = {det:.3e} is numerically zero")
    theta = QMatrix.from_complex(np.array([[x, z], [np.conj(z), y]]))
    eta = mat_mul(theta, theta)
    eigenvalues = np.linalg.eigvalsh(embed(eta))
    if eigenvalues.min() <= 0.0:
        raise NotPositive("constructed metric failed the positivity check")
    return MetricOperator(eta=eta, theta=theta, positive=True)


def eta_adjoint(q: QMatrix, m: MetricOperator) -> QMatrix:
    """Metric adjoint ``eta^-1 Q^dag eta``; an involution that reverses products."""
    _check_dimension(q, m)
    return mat_mul(m.eta_inv, mat_mul(dagger(q), m.eta))


def _check_dimension(q: QMatrix, m: MetricOperator):
    if q.n != m.n:
        raise DimensionMismatch(f"operator is {q.n}-dim but metric is {m.n}-dim")


def _relative_residual(h: QMatrix, m: MetricOperator, sign: float) -> float:
    """``|eta H eta^-1 + sign H^dag| / |H|``: every verdict compares it with ``tol``."""
    _check_dimension(h, m)
    # a power of two keeps the ratio's bits and the products below the float
    # range; ldexp scales exactly where the power itself would overflow
    h = QMatrix(np.ldexp(h.comp, -math.frexp(np.abs(h.comp).max())[1]))
    lhs = mat_mul(m.eta, mat_mul(h, m.eta_inv))
    return fro_norm(lhs + sign * dagger(h)) / max(fro_norm(h), 1e-300)


def is_pseudo_anti_hermitian(
    h: QMatrix, m: MetricOperator, tol: float = DEFAULT_REL_TOL
) -> bool:
    """True when ``eta H eta^-1 == -H^dag`` within ``tol`` (relative)."""
    return _relative_residual(h, m, +1.0) <= tol


def is_quasi_anti_hermitian(
    h: QMatrix, m: MetricOperator, tol: float = DEFAULT_REL_TOL
) -> bool:
    """Pseudo-anti-Hermitian with a positive-definite metric."""
    return m.positive and is_pseudo_anti_hermitian(h, m, tol)


def is_pseudo_hermitian(
    q: QMatrix, m: MetricOperator, tol: float = DEFAULT_REL_TOL
) -> bool:
    """True when ``eta Q eta^-1 == Q^dag`` within ``tol`` (relative)."""
    return _relative_residual(q, m, -1.0) <= tol


def classification_report(h: QMatrix, m: MetricOperator, tol: float = DEFAULT_REL_TOL):
    """Verdicts plus residual norms for the three symmetry classes."""
    anti = _relative_residual(h, m, +1.0)
    herm = _relative_residual(h, m, -1.0)
    return {
        "pseudo_anti_hermitian": {"verdict": anti <= tol, "residual": anti},
        "quasi_anti_hermitian": {
            "verdict": m.positive and anti <= tol,
            "residual": anti,
        },
        "pseudo_hermitian": {"verdict": herm <= tol, "residual": herm},
        "metric_positive": m.positive,
    }


def generalized_density(rho: QMatrix, m: MetricOperator) -> QMatrix:
    """Generalized density matrix ``rho * eta``.

    Requires ``rho`` Hermitian positive definite; the result is
    pseudo-Hermitian with respect to the metric.
    """
    _check_dimension(rho, m)
    scale = max(1.0, fro_norm(rho))
    if fro_norm(rho - dagger(rho)) > DEFAULT_REL_TOL * scale:
        raise NotDensity("density matrix must be Hermitian")
    eigenvalues = np.linalg.eigvalsh(embed(rho))
    if eigenvalues.min() <= -DEFAULT_REL_TOL * scale:
        raise NotDensity(f"density matrix has negative eigenvalue {eigenvalues.min():.6g}")
    return mat_mul(rho, m.eta)


def expectation(q: QMatrix, rho: QMatrix, m: MetricOperator) -> float:
    """Metric expectation value ``Re Tr(rho eta Q)``."""
    return re_trace(mat_mul(generalized_density(rho, m), q))
