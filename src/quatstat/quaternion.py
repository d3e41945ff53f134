"""Exact quaternion arithmetic.

A quaternion is stored as four real components ``q = q0 + i*q1 + j*q2 + k*q3``
with the defining relations ``i^2 = j^2 = k^2 = ijk = -1`` and ``ij = -ji = k``.
The complex-pair view ``q = z1 + z2*j`` with ``z1 = q0 + i*q1`` and
``z2 = q2 + i*q3`` (j on the right) round-trips exactly and is the basis of
the complex matrix representation in :mod:`quatstat.linalg`.
"""

from __future__ import annotations

import math

import numpy as np

#: Absolute tolerance used by equality and zero tests throughout the package.
DEFAULT_TOL = 1e-12


class Value:
    """Base of the value classes: what the dataclass decorator gave them, with
    no code generated. A subclass's annotated names are its ``_fields``, in
    order, their class attributes its defaults (a class is called for each
    instance). Arguments bind as a dataclass's do, then ``__post_init__`` runs;
    ``repr`` and ``==`` (same class only) read the fields. ``frozen=True``
    refuses assignment and hashes the fields; others are unhashable."""

    def __init_subclass__(cls, frozen: bool = False):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {key: vars(cls)[key] for key in cls._fields if key in vars(cls)}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Value._refuse
            cls.__hash__ = lambda self: hash(tuple(self._asdict().values()))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):  # else nothing to check or fill
            name, given = type(self).__qualname__, dict(zip(self._fields, args))
            extra = [*args[len(given):],
                     *(key for key in kwargs if key in given or key not in self._fields)]
            if extra:
                raise TypeError(f"{name}() got extra, repeated or unknown arguments {extra!r}")
            given.update(kwargs)
            for key in self._fields:
                if key not in given:
                    if key not in self._defaults:
                        raise TypeError(f"{name}() missing argument {key!r}")
                    default = self._defaults[key]
                    given[key] = default() if isinstance(default, type) else default
            args = [given[key] for key in self._fields]
        vars(self).update(zip(self._fields, args))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _refuse(self, key, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {key!r}")

    def _asdict(self) -> dict:
        return {key: getattr(self, key) for key in self._fields}

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._asdict() == other._asdict() if same else NotImplemented


def hamilton_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise quaternion product on arrays shaped ``(..., 4)``.

    Broadcasts like ``numpy`` arithmetic. This is the single multiplication
    kernel shared by scalar quaternions and matrix code, written out from
    the defining relations rather than routed through any complex
    representation, so the two paths stay independently checkable.
    """
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


class Quaternion(Value, frozen=True):
    """Immutable quaternion with real components ``q0, q1, q2, q3``."""

    q0: float = 0.0
    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0

    def __post_init__(self):
        for name in ("q0", "q1", "q2", "q3"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"quaternion component {name} is not finite: {value}")
            object.__setattr__(self, name, value)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_complex(cls, z: complex) -> "Quaternion":
        """Embed a complex number in the i plane."""
        z = complex(z)
        return cls(z.real, z.imag, 0.0, 0.0)

    @classmethod
    def from_complex_pair(cls, z1: complex, z2: complex) -> "Quaternion":
        """Build ``q = z1 + z2*j`` from its complex pair."""
        z1, z2 = complex(z1), complex(z2)
        return cls(z1.real, z1.imag, z2.real, z2.imag)

    @classmethod
    def from_list(cls, values) -> "Quaternion":
        """Parse the 4-array serialization ``[q0, q1, q2, q3]``."""
        if len(values) != 4:
            raise ValueError(f"expected 4 components, got {len(values)}")
        return cls(*(float(v) for v in values))

    # -- views -------------------------------------------------------------

    def to_complex_pair(self) -> tuple[complex, complex]:
        """Return ``(z1, z2)`` with ``q = z1 + z2*j``; exact round trip."""
        return complex(self.q0, self.q1), complex(self.q2, self.q3)

    def to_list(self) -> list[float]:
        return [self.q0, self.q1, self.q2, self.q3]

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(
            self.q0 + other.q0,
            self.q1 + other.q1,
            self.q2 + other.q2,
            self.q3 + other.q3,
        )

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return self + (-other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return qmul(self, other)
        if isinstance(other, (int, float)):
            return Quaternion(
                self.q0 * other, self.q1 * other, self.q2 * other, self.q3 * other
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __abs__(self) -> float:
        return math.hypot(self.q0, self.q1, self.q2, self.q3)

    def conjugate(self) -> "Quaternion":
        return qconj(self)

    def isclose(self, other: "Quaternion", tol: float = DEFAULT_TOL) -> bool:
        return abs(self - other) <= tol


#: Basis quaternions.
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Non-commutative quaternion product."""
    c = hamilton_product(p.as_array(), q.as_array())
    return Quaternion(*c)


def qconj(q: Quaternion) -> Quaternion:
    """Conjugation ``q -> q0 - i*q1 - j*q2 - k*q3``; reverses products."""
    return Quaternion(q.q0, -q.q1, -q.q2, -q.q3)


def qinv(q: Quaternion) -> Quaternion:
    """Multiplicative inverse ``conj(q) / |q|^2``.

    Raises ``ZeroDivisionError`` when ``|q|`` falls below :data:`DEFAULT_TOL`.
    """
    n = abs(q)
    if n < DEFAULT_TOL:
        raise ZeroDivisionError(f"quaternion norm {n} below epsilon {DEFAULT_TOL}")
    s = 1.0 / (n * n)
    return qconj(q) * s


def is_imaginary(q: Quaternion) -> bool:
    """True when the real component vanishes within :data:`DEFAULT_TOL`."""
    return abs(q.q0) <= DEFAULT_TOL
