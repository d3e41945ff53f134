"""Dense quaternionic matrices and their faithful complex representation.

An n x n quaternionic matrix ``M = M1 + M2*j`` (entrywise complex pair) is
represented faithfully by the 2n x 2n complex matrix::

    chi(M) = [[ M1,        M2       ],
              [-conj(M2),  conj(M1) ]]

``chi`` is an algebra homomorphism that turns quaternionic spectral problems
into complex ones: the matrix exponential and all eigenvalue work happen in
the embedding, while products, adjoints and traces are computed directly in
quaternion components so the two routes stay independently verifiable.

Vectors of a right quaternionic Hilbert space are plain sequences of
:class:`~quatstat.quaternion.Quaternion`; column vectors take scalars on the
right, so the right-eigenvalue relation reads ``M v = v * lam``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConstraintViolation, DimensionMismatch, NotNormal, NotSymplectic
from .quaternion import Quaternion, hamilton_product, qconj


def _complex_pair(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return comp[..., 0] + 1j * comp[..., 1], comp[..., 2] + 1j * comp[..., 3]


class QMatrix:
    """Square quaternionic matrix over the right module convention.

    Stores a real array of shape ``(n, n, 4)`` holding the four components
    of every entry. Instances are treated as immutable values; all
    operations return new matrices.
    """

    __slots__ = ("comp",)

    def __init__(self, comp: np.ndarray):
        comp = np.asarray(comp, dtype=float)
        if comp.ndim != 3 or comp.shape[0] != comp.shape[1] or comp.shape[2] != 4:
            raise DimensionMismatch(f"expected shape (n, n, 4), got {comp.shape}")
        if not np.all(np.isfinite(comp)):
            raise ValueError("matrix entries must be finite")
        self.comp = comp
        self.comp.setflags(write=False)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "QMatrix":
        return cls(np.zeros((n, n, 4)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        comp = np.zeros((n, n, 4))
        comp[np.arange(n), np.arange(n), 0] = 1.0
        return cls(comp)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Quaternion]]) -> "QMatrix":
        n = len(rows)
        comp = np.zeros((n, n, 4))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DimensionMismatch("matrix rows must all have length n")
            for j, q in enumerate(row):
                comp[i, j] = q.as_array()
        return cls(comp)

    @classmethod
    def diag(cls, entries: Sequence[Quaternion]) -> "QMatrix":
        n = len(entries)
        comp = np.zeros((n, n, 4))
        for i, q in enumerate(entries):
            comp[i, i] = q.as_array()
        return cls(comp)

    @classmethod
    def from_complex(cls, z1: np.ndarray, z2: np.ndarray | None = None) -> "QMatrix":
        """Build ``M = Z1 + Z2*j`` from complex component matrices."""
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.zeros_like(z1) if z2 is None else np.asarray(z2, dtype=complex)
        if z1.shape != z2.shape:
            raise DimensionMismatch("component matrices must share a shape")
        comp = np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)
        return cls(comp)

    @classmethod
    def from_json_dict(cls, data: dict) -> "QMatrix":
        """Parse the ``{"n": int, "entries": [[[q0,q1,q2,q3], ...], ...]}`` schema."""
        try:
            n = int(data["n"])
            entries = data["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix object: {exc}") from exc
        if len(entries) != n:
            raise ValueError(f"expected {n} rows, got {len(entries)}")
        rows = []
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError(f"ragged row {i}: expected {n} entries, got {len(row)}")
            rows.append([Quaternion.from_list(cell) for cell in row])
        return cls.from_rows(rows)

    # -- views -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.comp.shape[0]

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion(*self.comp[i, j])

    def complex_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(M1, M2)`` with ``M = M1 + M2*j``; exact round trip."""
        return _complex_pair(self.comp)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "entries": self.comp.tolist()}

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_dim(other)
        return QMatrix(self.comp + other.comp)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_dim(other)
        return QMatrix(self.comp - other.comp)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.comp)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return QMatrix(self.comp * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def _check_same_dim(self, other: "QMatrix"):
        if self.n != other.n:
            raise DimensionMismatch(f"dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self):
        return f"QMatrix(n={self.n})"


def embed(m: QMatrix | np.ndarray) -> np.ndarray:
    """``chi(M)`` as a ``(2n, 2n)`` complex array; an algebra homomorphism.

    A ``(..., n, n, 4)`` stack of components is embedded matrix by matrix.
    """
    comp = m.comp if isinstance(m, QMatrix) else np.asarray(m, dtype=float)
    z1, z2 = _complex_pair(comp)
    return np.block([[z1, z2], [-z2.conj(), z1.conj()]])


def unembed(x: np.ndarray) -> QMatrix:
    """Invert :func:`embed`; raises ``OverflowError`` where an entry is not
    finite and :class:`NotSymplectic` off the subalgebra."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2:
        raise DimensionMismatch(f"expected even square matrix, got {x.shape}")
    if not np.isfinite(x).all():
        raise OverflowError("matrix entries overflowed the floating range")
    n = x.shape[0] // 2
    a, b = x[:n, :n], x[:n, n:]
    c, d = x[n:, :n], x[n:, n:]
    scale = max(1.0, np.abs(x).max())
    residual = max(np.abs(c + b.conj()).max(), np.abs(d - a.conj()).max())
    if residual > 1e-10 * scale:
        raise NotSymplectic(
            f"block symmetry residual {residual:.3e} exceeds 1.0e-10 * {scale:.3e}"
        )
    return QMatrix.from_complex(a, b)


def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Quaternionic matrix product, computed in real components.

    Expanding every entry product by the defining relations turns the
    quaternionic product into sixteen real matrix products, with no detour
    through the complex embedding.
    """
    a._check_same_dim(b)
    a0, a1, a2, a3 = (a.comp[..., s] for s in range(4))
    b0, b1, b2, b3 = (b.comp[..., s] for s in range(4))
    c0 = a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3
    c1 = a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2
    c2 = a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1
    c3 = a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0
    return QMatrix(np.stack([c0, c1, c2, c3], axis=-1))


def dagger(m: QMatrix) -> QMatrix:
    """Adjoint: transpose with entrywise quaternionic conjugation."""
    comp = m.comp.transpose(1, 0, 2).copy()
    comp[..., 1:] *= -1.0
    return QMatrix(comp)


def re_trace(m: QMatrix) -> float:
    """Sum of the real parts of the diagonal; the quaternionic trace functional."""
    return float(np.trace(m.comp[..., 0]))


def fro_norm(m: QMatrix) -> float:
    """Frobenius norm ``sqrt(sum |entry|^2)``."""
    return float(np.sqrt(np.sum(m.comp**2)))


def require_finite_norm(m: QMatrix) -> None:
    """Raise :class:`ConstraintViolation` where the squared :func:`fro_norm`
    of ``m`` passes the float range, without a numpy warning."""
    with np.errstate(over="ignore"):
        if not math.isfinite(fro_norm(m)):
            raise ConstraintViolation("entries too large: the squared Frobenius "
                                      "norm overflows the float range")


def inverse(m: QMatrix) -> QMatrix:
    """Matrix inverse via the complex embedding."""
    return unembed(np.linalg.inv(embed(m)))


#: Coefficients ``b_0 .. b_13`` of the degree-13 Pade approximant to ``exp``
#: and the 1-norm up to which it alone is accurate to double precision
#: (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3). They are
#: divided by ``b_0``, so that ``V`` starts at the identity and ``exp(0)``
#: comes out as the exact identity.
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
_THETA_13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """``exp(A)`` of a finite complex matrix, or of each in a stack, by scaling
    and squaring.

    Each ``A`` of the ``(..., n, n)`` stack is scaled by its own ``2**-s``
    into the 1-norm ball of radius :data:`_THETA_13`, the degree-13 Pade
    approximant ``(V - U)^-1 (V + U)`` is evaluated from ``A^2``, ``A^4`` and
    ``A^6`` as Higham writes it, and the result is squared ``s`` times.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    # s = ceil(log2(norm / theta)), exactly: frexp gives m * 2**e, 0.5 <= m < 1
    mant, expo = np.frexp(norm / _THETA_13)
    s = np.where(norm > _THETA_13, expo - (mant == 0.5), 0)
    a = a / np.ldexp(1.0, s)[..., None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for done in range(s.max(initial=0)):
        more = s > done
        r[more] = r[more] @ r[more]
    return r


def _embedded_exp(m: QMatrix, t: float) -> np.ndarray:
    """``_expm(chi(M)*t)``; non-finite where ``chi(M)*t`` or the result
    leaves the representable range."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = embed(m) * float(t)
        return _expm(a) if np.isfinite(a).all() else a


def mat_exp(m: QMatrix, t: float = 1.0) -> QMatrix:
    """Matrix exponential ``exp(M*t)``.

    Computed as ``unembed(_expm(chi(M)*t))``: numpy scaling and squaring
    with the degree-13 Pade approximant. It shares nothing with the
    eigendecomposition of :func:`quatstat.thermo.formal_trace`, so it stays
    that path's oracle. :func:`unembed` raises ``OverflowError`` when
    ``chi(M)*t`` or the result leaves the representable range.
    """
    return unembed(_embedded_exp(m, t))


def exp_re_trace(m: QMatrix, t: float = 1.0) -> float:
    """``Re Tr exp(M*t)``, read as ``1/2 Re tr _expm(chi(M)*t)`` from the embedding.

    The exponential is :func:`mat_exp`'s, but no :func:`unembed` follows, so
    its block-symmetry bound, which does not grow with ``t |M|``, refuses
    nothing. A result past the floating range is not finite.
    """
    return float(0.5 * np.trace(_embedded_exp(m, t)).real)


def _normality_residual(m: QMatrix) -> float:
    md = dagger(m)
    return fro_norm(mat_mul(m, md) - mat_mul(md, m))


def standard_spectrum(m: QMatrix) -> list[tuple[complex, int]]:
    """Right-eigenvalue classes of a normal quaternionic matrix.

    The eigenvalues of the complex embedding occur in conjugate pairs; each
    quaternionic eigenvalue class is reported once through its standard
    representative (non-negative imaginary part) with its multiplicity.
    Raises :class:`NotNormal` when ``M M^dag - M^dag M`` is too large.
    """
    scale = fro_norm(m)
    if _normality_residual(m) > 1e-10 * max(scale**2, 1e-30):
        raise NotNormal("matrix is not normal within tolerance")
    eig = np.linalg.eigvals(embed(m))
    reps = eig.real + 1j * np.abs(eig.imag)
    cluster_tol = 1e-8 * max(1.0, np.abs(eig).max())
    # single linkage: a point joins, and merges, every group with a member
    # within cluster_tol, so the groups do not depend on the eigenvalue order
    # and the two nearly coincident members of a class always meet
    groups: list[list[complex]] = []
    for point in reps.tolist():
        joined, apart = [point], []
        for group in groups:
            if any(abs(point - member) <= cluster_tol for member in group):
                joined += group
            else:
                apart.append(group)
        groups = apart + [joined]
    out = []
    for group in groups:
        if len(group) % 2:
            raise NotNormal(
                "eigenvalues failed to pair into conjugate classes; "
                "matrix may be too close to a clustering boundary"
            )
        out.append((sum(group) / len(group), len(group) // 2))
    out.sort(key=lambda item: (item[0].real, item[0].imag))
    return out


def _assign(cost: Sequence[Sequence[float]]) -> list[int]:
    """Column of each row in a least-total-cost matching of a square cost.

    The Hungarian method with dual potentials: each row in turn enters along
    one shortest augmenting path (Jonker & Volgenant, Computing 38, 1987).
    Raises :class:`ConstraintViolation` on a NaN or infinite cost, on which
    the path search would never pick a column.
    """
    if not all(math.isfinite(c) for row in cost for c in row):
        raise ConstraintViolation("branch matching cost is not finite")
    n = len(cost)
    # 1-based columns; column 0 holds the row being inserted
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    owner = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        slack = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    cols = [0] * n
    for j in range(1, n + 1):
        cols[owner[j] - 1] = j - 1
    return cols


def _class_order(z: complex) -> tuple[float, float]:
    return abs(z.imag), z.real


def _nearer(target: complex, up: complex, lo: complex) -> tuple[float, complex]:
    """Distance to, and value of, the member of a class nearer ``target``."""
    to_up, to_lo = abs(target - up), abs(target - lo)
    return (to_up, up) if to_up <= to_lo else (to_lo, lo)


def energies_by_continuity(h0: QMatrix, hp: QMatrix) -> list[float]:
    """Signed energies of ``H0 + Hp`` tracked from the unperturbed spectrum.

    Starts from the standard representatives ``i*E`` of ``H0`` and follows
    the ``n`` branches through the eigenvalues of ``chi(H0 + tau*Hp)`` as
    ``tau`` walks from 0 to 1 in 16 steps. At each step the ``2n``
    eigenvalues split into conjugate classes: the ``n`` with the smallest
    imaginary parts (stable order) form the lower half, each half is ordered
    by ``(|imag|, real)``, and the k-th members of the two halves make class
    k. Every branch takes one class, matched by least total distance to its
    linear prediction, and within it the member nearer that prediction (the
    upper one on a tie), so no two branches share a class. This keeps the
    sign of an energy that crosses zero, which the standard representative
    alone would fold back to positive.
    """
    h0._check_same_dim(hp)
    current: list[complex] = []
    for lam, mult in standard_spectrum(h0):
        current.extend([lam] * mult)
    n = len(current)
    velocity = [0j] * n
    e0, ep = embed(h0), embed(hp)
    for step in range(1, 17):
        tau = step / 16
        eig = sorted(np.linalg.eigvals(e0 + tau * ep).tolist(), key=lambda z: z.imag)
        classes = list(zip(sorted(eig[n:], key=_class_order),
                           sorted(eig[:n], key=_class_order)))
        near = [[_nearer(now + move, up, lo) for up, lo in classes]
                for now, move in zip(current, velocity)]
        cost = [[distance for distance, _ in row] for row in near]
        new = [row[k][1] for row, k in zip(near, _assign(cost))]
        velocity = [z - now for z, now in zip(new, current)]
        current = new
    scale = max(1.0, max(abs(z) for z in current))
    if max(abs(z.real) for z in current) > 1e-8 * scale:
        raise ConstraintViolation(
            "tracked eigenvalues are not purely imaginary; "
            "energy assignment requires an anti-Hermitian total matrix"
        )
    return [z.imag for z in current]


# -- vectors ----------------------------------------------------------------


def _vec_comp(v: Sequence[Quaternion]) -> np.ndarray:
    return np.stack([q.as_array() for q in v])


def mat_vec(m: QMatrix, v: Sequence[Quaternion]) -> tuple[Quaternion, ...]:
    """Apply ``M`` to a column vector (scalars act on the right)."""
    if len(v) != m.n:
        raise DimensionMismatch(f"vector length {len(v)} does not match n={m.n}")
    vc = _vec_comp(v)
    prod = hamilton_product(m.comp, vc[None, :, :])
    out = prod.sum(axis=1)
    return tuple(Quaternion(*row) for row in out)


def vec_scale_right(v: Sequence[Quaternion], q: Quaternion) -> tuple[Quaternion, ...]:
    return tuple(Quaternion(*hamilton_product(u.as_array(), q.as_array())) for u in v)


def vec_inner(u: Sequence[Quaternion], v: Sequence[Quaternion]) -> Quaternion:
    """Right Hilbert space inner product ``sum conj(u_i) v_i``."""
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    acc = np.zeros(4)
    for a, b in zip(u, v):
        acc += hamilton_product(qconj(a).as_array(), b.as_array())
    return Quaternion(*acc)


def vec_outer(u: Sequence[Quaternion], v: Sequence[Quaternion]) -> QMatrix:
    """Outer product ``|u><v| = u v^dag`` as a quaternionic matrix."""
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    uc = _vec_comp(u)
    vc = np.stack([qconj(q).as_array() for q in v])
    comp = hamilton_product(uc[:, None, :], vc[None, :, :])
    return QMatrix(comp)
