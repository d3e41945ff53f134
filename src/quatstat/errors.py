"""Exception hierarchy for quatstat.

Every domain error derives from :class:`QuatstatError` so callers can catch
library failures with a single except clause. Numeric failures that Python
already names well (``ZeroDivisionError``, ``OverflowError``) are raised as
the builtins.
"""


class QuatstatError(Exception):
    """Base class for all quatstat domain errors."""


class DimensionMismatch(QuatstatError):
    """Operands have incompatible matrix dimensions."""


class NotSymplectic(QuatstatError):
    """A 2n x 2n complex matrix violates the quaternionic block symmetry."""


class NotNormal(QuatstatError):
    """Matrix is too far from normal for a reliable spectral decomposition."""


class ConstraintViolation(QuatstatError):
    """Model parameters violate a structural constraint."""


class SingularTheta(QuatstatError):
    """Metric square-root factor is singular (x*y == |z|^2)."""


class NotPositive(QuatstatError):
    """Candidate metric operator is not positive definite."""


class NotDensity(QuatstatError):
    """Candidate density matrix is not Hermitian positive definite."""


class SelfCheckFailed(QuatstatError):
    """A fast path disagrees with its independent oracle beyond its allowance."""


class DegenerateLevels(QuatstatError):
    """Display-form expression requires two distinct energy levels."""


class UnphysicalZ(QuatstatError):
    """Partition function is non-positive at the requested temperature."""


class EnergyOutOfRange(QuatstatError):
    """Total energy lies outside the reachable band of the two-level gas."""

    def __init__(self, message: str, energy: float | None = None):
        super().__init__(message)
        self.energy = energy


class InfiniteTemperature(QuatstatError):
    """Requested energy sits exactly at the entropy maximum (1/T == 0)."""


class ZeroMeanEnergy(QuatstatError):
    """Relative fluctuation is undefined when the mean energy vanishes."""


class DomainError(QuatstatError):
    """Volume argument lies outside the volume model's domain."""
