import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatstat import I, J, K, ONE, Quaternion, is_imaginary, qconj, qinv, qmul
from quatstat.quaternion import hamilton_product

# hand-expanded multiplication table of the basis {1, i, j, k}
BASIS = {"1": ONE, "i": I, "j": J, "k": K}
TABLE = {
    ("1", "1"): ONE, ("1", "i"): I, ("1", "j"): J, ("1", "k"): K,
    ("i", "1"): I, ("i", "i"): -ONE, ("i", "j"): K, ("i", "k"): -J,
    ("j", "1"): J, ("j", "i"): -K, ("j", "j"): -ONE, ("j", "k"): I,
    ("k", "1"): K, ("k", "i"): J, ("k", "j"): -I, ("k", "k"): -ONE,
}


def test_multiplication_table_exact():
    for (left, right), expected in TABLE.items():
        assert qmul(BASIS[left], BASIS[right]) == expected


def test_identity_and_defining_relations():
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    assert qmul(q, ONE) == q
    assert qmul(ONE, q) == q
    assert qmul(qmul(I, J), K) == -ONE


def test_off_diagonal_square_is_negative_real():
    # (j v/x)^2 = -v^2/x^2, the effective coupling of the spin model
    v, x = 0.5, 2.0
    c = J * (v / x)
    assert qmul(c, c) == Quaternion(-(v / x) ** 2, 0.0, 0.0, 0.0)


def test_conjugation():
    q = Quaternion(1.0, 1.0, 1.0, 1.0)
    assert qconj(q) == Quaternion(1.0, -1.0, -1.0, -1.0)
    assert qconj(qconj(q)) == q
    # conjugation of the spin coupling flips its sign
    c = J * 0.25
    assert qconj(c) == -c


def test_conjugation_reverses_products():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = Quaternion(*rng.normal(size=4))
        q = Quaternion(*rng.normal(size=4))
        assert qconj(qmul(p, q)).isclose(qmul(qconj(q), qconj(p)), tol=1e-12)


def test_inverse():
    assert qinv(Quaternion(2.0)).isclose(Quaternion(0.5))
    assert qinv(I).isclose(-I)
    assert qinv(Quaternion(1, 1, 1, 1)).isclose(Quaternion(0.25, -0.25, -0.25, -0.25))
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = Quaternion(*rng.normal(size=4))
        assert qmul(q, qinv(q)).isclose(ONE, tol=1e-12)
    with pytest.raises(ZeroDivisionError):
        qinv(Quaternion(0.0, 1e-14, 0.0, 0.0))


def test_is_imaginary():
    omega = 3.0
    assert is_imaginary(I * (omega / 2))
    assert not is_imaginary(ONE)
    assert is_imaginary(J + K)


def test_norm_of_components_past_the_square_range():
    # each square overflows from about 1.3e154 on; the norm does not
    assert abs(Quaternion(3e300, 4e300)) == pytest.approx(5e300, rel=1e-15)
    assert abs(Quaternion(0.0, 0.0, 3e-200, 4e-200)) == pytest.approx(5e-200, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=12, max_size=12))
def test_norm_multiplicativity_hypothesis(values):
    p = Quaternion(*values[:4])
    q = Quaternion(*values[4:8])
    assert abs(qmul(p, q)) == pytest.approx(abs(p) * abs(q), rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=12, max_size=12))
def test_associativity_hypothesis(values):
    p = Quaternion(*values[:4])
    q = Quaternion(*values[4:8])
    r = Quaternion(*values[8:])
    lhs = qmul(qmul(p, q), r)
    rhs = qmul(p, qmul(q, r))
    scale = max(1.0, abs(p) * abs(q) * abs(r))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_bulk_norm_and_associativity():
    rng = np.random.default_rng(11)
    a, b, c = rng.normal(size=(3, 10_000, 4))
    ab = hamilton_product(a, b)
    norms = np.linalg.norm(ab, axis=-1)
    np.testing.assert_allclose(
        norms, np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1), rtol=1e-12
    )
    lhs = hamilton_product(ab, c)
    rhs = hamilton_product(a, hamilton_product(b, c))
    scale = np.linalg.norm(lhs, axis=-1) + 1.0
    assert np.max(np.linalg.norm(lhs - rhs, axis=-1) / scale) < 1e-12


def test_conjugation_flip_rule():
    # for complex z: j z == conj(z) j
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = complex(*rng.normal(size=2))
        lhs = qmul(J, Quaternion.from_complex(z))
        rhs = qmul(Quaternion.from_complex(z.conjugate()), J)
        assert lhs.isclose(rhs, tol=1e-15)


def test_complex_pair_roundtrip_bit_exact():
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = Quaternion(*rng.normal(size=4))
        z1, z2 = q.to_complex_pair()
        assert Quaternion.from_complex_pair(z1, z2) == q


def test_serialization_roundtrip():
    q = Quaternion(0.1, -0.2, 0.3, -0.4)
    assert Quaternion.from_list(q.to_list()) == q
    with pytest.raises(ValueError):
        Quaternion.from_list([1.0, 2.0])
    with pytest.raises(ValueError):
        Quaternion(math.nan, 0, 0, 0)
