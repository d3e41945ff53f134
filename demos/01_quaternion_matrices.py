"""Tour of the quaternion and matrix layer.

Walks through the basis algebra, the complex-pair view, the faithful
complex representation of a quaternionic matrix, the matrix exponential,
and right-eigenvalue spectra.
"""

import numpy as np

from quatstat import (
    I,
    J,
    K,
    ONE,
    QMatrix,
    Quaternion,
    embed,
    mat_exp,
    mat_mul,
    qconj,
    qinv,
    qmul,
    re_trace,
    standard_spectrum,
    unembed,
)

print("== basis algebra ==")
print("i*j  =", qmul(I, J))
print("j*i  =", qmul(J, I))
print("i*j*k =", qmul(qmul(I, J), K))

q = Quaternion(1.0, 2.0, -0.5, 0.25)
print("\nq              =", q)
print("conj(q)        =", qconj(q))
print("q * q^-1       =", qmul(q, qinv(q)))
z1, z2 = q.to_complex_pair()
print("complex pair   =", z1, z2, "->", Quaternion.from_complex_pair(z1, z2))

print("\n== complex representation ==")
m = QMatrix.from_rows([[I, J * 0.5], [J * 2.0, -1.0 * I]])
x = embed(m)
print("2x2 quaternionic matrix embeds as a", x.shape, "complex matrix")
print(np.array_str(x, precision=3))
print("round trip is exact:", np.allclose(unembed(x).comp, m.comp, atol=0))

n = QMatrix.diag([Quaternion(0.0, 0.3, -0.1, 0.7), K])
lhs = embed(mat_mul(m, n))
rhs = embed(m) @ embed(n)
print("product homomorphism residual:", np.abs(lhs - rhs).max())

print("\n== exponential and spectrum ==")
# spin-type anti-Hermitian matrix: levels omega/2 +- v show up as i*E
omega, v = 2.0, 0.5
h = QMatrix.from_rows([[I * (omega / 2), J * v], [J * v, I * (-omega / 2)]])
print("standard spectrum:", standard_spectrum(h))
for t in (0.5, 1.0, 2.0):
    formal = re_trace(mat_exp(-1.0 * h, t))
    print(
        f"Re Tr exp(-H t) at t={t}: {formal:+.6f}"
        f"  (analytic 2 cos(t) cos(t/2) = {2*np.cos(omega*t/2)*np.cos(v*t):+.6f})"
    )
