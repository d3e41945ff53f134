import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

import quatstat.linalg
from quatstat import (
    ConstraintViolation,
    DimensionMismatch,
    I,
    J,
    K,
    NotNormal,
    NotSymplectic,
    ONE,
    QMatrix,
    Quaternion,
    ToyModelParams,
    build_toy_hamiltonian,
    dagger,
    embed,
    energies_by_continuity,
    fro_norm,
    inverse,
    mat_exp,
    mat_mul,
    mat_vec,
    qconj,
    re_trace,
    standard_spectrum,
    unembed,
    vec_inner,
    vec_outer,
    vec_scale_right,
)


def random_qmatrix(rng, n, scale=1.0):
    return QMatrix(rng.normal(size=(n, n, 4)) * scale)


def spin_hamiltonian(omega=2.0, v=0.5, x=1.0):
    return QMatrix.from_rows(
        [
            [I * (omega / 2), J * (v / x)],
            [J * (v * x), I * (-omega / 2)],
        ]
    )


# -- products ----------------------------------------------------------------


def test_mat_mul_identity():
    rng = np.random.default_rng(0)
    m = random_qmatrix(rng, 3)
    assert fro_norm(mat_mul(QMatrix.identity(3), m) - m) == 0.0


def test_mat_mul_diagonal_units():
    lhs = QMatrix.diag([I, -I])
    rhs = QMatrix.diag([J, J])
    expected = QMatrix.diag([K, -K])
    assert fro_norm(mat_mul(lhs, rhs) - expected) == 0.0


def test_spin_off_diagonal_squares_to_minus_v_squared():
    v, x = 0.5, 2.0
    hp = QMatrix.from_rows(
        [[Quaternion(), J * (v / x)], [J * (v * x), Quaternion()]]
    )
    expected = QMatrix.identity(2) * (-(v**2))
    assert fro_norm(mat_mul(hp, hp) - expected) < 1e-15


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(QMatrix.identity(2), QMatrix.identity(3))


# -- adjoint -----------------------------------------------------------------


def test_dagger_spin_diagonal():
    omega = 2.0
    m = QMatrix.diag([I * (omega / 2), I * (-omega / 2)])
    expected = QMatrix.diag([I * (-omega / 2), I * (omega / 2)])
    assert fro_norm(dagger(m) - expected) == 0.0


def test_dagger_involution_and_identity():
    rng = np.random.default_rng(1)
    m = random_qmatrix(rng, 3)
    assert fro_norm(dagger(dagger(m)) - m) == 0.0
    assert fro_norm(dagger(QMatrix.identity(3)) - QMatrix.identity(3)) == 0.0


def test_dagger_qubit_entry():
    # conj(-2 j e^{-i phi}) == 2 j e^{-i phi}
    phi = 0.8
    entry = Quaternion(0, 0, -2 * np.cos(phi), -2 * np.sin(phi))
    m = QMatrix.diag([entry, Quaternion()])
    assert dagger(m).entry(0, 0) == qconj(entry)
    assert qconj(entry) == Quaternion(0, 0, 2 * np.cos(phi), 2 * np.sin(phi))


# -- embedding ---------------------------------------------------------------


def test_embed_identity():
    np.testing.assert_array_equal(embed(QMatrix.identity(3)), np.eye(6))


def test_embed_takes_a_stack_of_components():
    rng = np.random.default_rng(1)
    ms = [random_qmatrix(rng, 2) for _ in range(3)]
    stack = embed(np.stack([m.comp for m in ms]))
    assert stack.shape == (3, 4, 4)
    for m, chi in zip(ms, stack):
        np.testing.assert_array_equal(chi, embed(m))


def test_embedding_homomorphism_random():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        for _ in range(50):
            a, b = random_qmatrix(rng, n), random_qmatrix(rng, n)
            lhs = embed(mat_mul(a, b))
            rhs = embed(a) @ embed(b)
            bound = 1e-12 * max(fro_norm(a) * fro_norm(b), 1e-30)
            assert np.linalg.norm(lhs - rhs) <= bound


def test_embed_dagger_is_conjugate_transpose():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_qmatrix(rng, 3)
        np.testing.assert_allclose(
            embed(dagger(m)), embed(m).conj().T, atol=1e-14
        )


def test_unembed_roundtrip_and_rejection():
    rng = np.random.default_rng(4)
    m = random_qmatrix(rng, 3)
    assert fro_norm(unembed(embed(m)) - m) == 0.0
    bad = embed(m)
    bad[0, 0] += 0.1  # breaks the conjugate block symmetry
    with pytest.raises(NotSymplectic):
        unembed(bad)


def test_json_schema_roundtrip_and_ragged_rejection():
    rng = np.random.default_rng(5)
    m = random_qmatrix(rng, 2)
    again = QMatrix.from_json_dict(m.to_json_dict())
    assert fro_norm(again - m) == 0.0
    with pytest.raises(ValueError):
        QMatrix.from_json_dict({"n": 2, "entries": [[[0, 0, 0, 0]], [[0, 0, 0, 0]]]})
    with pytest.raises(ValueError):
        QMatrix.from_json_dict({"n": 2, "entries": [[[0, 0, 0], [0] * 4]] * 2})


# -- trace -------------------------------------------------------------------


def test_re_trace_examples():
    assert re_trace(QMatrix.identity(2)) == 2.0
    assert re_trace(QMatrix.diag([I, -I])) == 0.0


def test_re_trace_matches_embedding_trace():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = random_qmatrix(rng, 3)
        assert re_trace(m) == pytest.approx(
            np.trace(embed(m)).real / 2.0, rel=1e-12, abs=1e-12
        )


# -- exponential -------------------------------------------------------------


def test_mat_exp_zero_matrix():
    # the zero matrix, and any matrix at t = 0, give the exact identity
    rng = np.random.default_rng(3)
    assert np.array_equal(embed(mat_exp(QMatrix.zeros(2), 1.7)), np.eye(4))
    assert np.array_equal(embed(mat_exp(random_qmatrix(rng, 3), 0.0)), np.eye(6))


@pytest.mark.parametrize("kind", ["anti-hermitian", "general"])
@pytest.mark.parametrize("n", range(2, 9))
def test_mat_exp_matches_scipy_expm(n, kind):
    # scipy is the test-only oracle; 1-norms of chi(M) up to 50 force up to
    # four squarings past the Pade radius 5.37
    rng = np.random.default_rng(100 + n)
    for norm in np.geomspace(1e-6, 50.0, 12):
        m = random_qmatrix(rng, n)
        if kind == "anti-hermitian":
            m = 0.5 * (m - dagger(m))
        t = norm / np.abs(embed(m)).sum(axis=0).max()
        want = expm(embed(m) * t)
        got = embed(mat_exp(m, t))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), norm


def test_mat_exp_complex_diagonal():
    a, b, t = 0.3 + 0.9j, -0.4 - 0.2j, 1.3
    m = QMatrix.diag(
        [Quaternion.from_complex(a), Quaternion.from_complex(b)]
    )
    expected = QMatrix.diag(
        [
            Quaternion.from_complex(np.exp(a * t)),
            Quaternion.from_complex(np.exp(b * t)),
        ]
    )
    assert fro_norm(mat_exp(m, t) - expected) < 1e-12


def test_mat_exp_spin_trace_oracle():
    # spectrum {omega/2 +- v} gives Re Tr exp(-H t) = 2 cos(omega t/2) cos(v t)
    omega, v, x = 2.0, 0.5, 1.5
    h = spin_hamiltonian(omega, v, x)
    for t in (0.3, 1.0, 2.7):
        got = re_trace(mat_exp(-1.0 * h, t))
        assert got == pytest.approx(2 * np.cos(omega * t / 2) * np.cos(v * t), abs=1e-12)


def test_mat_exp_semigroup():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_qmatrix(rng, 2, scale=0.5)
        lhs = mat_exp(m, 0.7 + 0.4)
        rhs = mat_mul(mat_exp(m, 0.7), mat_exp(m, 0.4))
        assert fro_norm(lhs - rhs) < 1e-10


def rk4_propagator(a, t, steps):
    """Fixed-step 4th-order integration of dU/dt = A U on the embedding."""
    u = np.eye(a.shape[0], dtype=complex)
    h = t / steps
    for _ in range(steps):
        k1 = a @ u
        k2 = a @ (u + 0.5 * h * k1)
        k3 = a @ (u + 0.5 * h * k2)
        k4 = a @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def test_mat_exp_vs_rk4_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = random_qmatrix(rng, 2)
        m = m * (rng.uniform(0.1, 2.0) / fro_norm(m))
        got = embed(mat_exp(m, 1.0))
        want = rk4_propagator(embed(m), 1.0, 400)
        assert np.abs(got - want).max() < 1e-8


def test_mat_exp_overflow():
    m = QMatrix.diag([Quaternion(1000.0), Quaternion(1000.0)])
    with pytest.raises(OverflowError):
        mat_exp(m, 1.0)


@pytest.mark.parametrize("t", [1.0, 1e308, float("inf"), float("nan")])
def test_mat_exp_overflow_warns_nothing(t):
    # exp(1000) overflows; from t = 1e308 on, chi(M)*t itself is not finite.
    # Either way the error is an OverflowError, with no numpy warning first.
    m = QMatrix.diag([Quaternion(1000.0), Quaternion(1000.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="overflowed the floating range"):
            mat_exp(m, t)


# -- spectra -----------------------------------------------------------------


def test_standard_spectrum_spin():
    spectrum = standard_spectrum(spin_hamiltonian(2.0, 0.5, 1.0))
    values = sorted(lam.imag for lam, _ in spectrum)
    assert values == pytest.approx([0.5, 1.5], abs=1e-10)
    assert all(abs(lam.real) < 1e-10 for lam, _ in spectrum)
    assert all(mult == 1 for _, mult in spectrum)


def test_standard_spectrum_zero_and_qubit():
    assert standard_spectrum(QMatrix.zeros(3)) == [(0j, 3)]
    phi = 0.9
    entry = Quaternion(0, 0, -2 * np.cos(phi), -2 * np.sin(phi))
    spectrum = standard_spectrum(QMatrix.diag([entry, Quaternion()]))
    got = sorted(spectrum, key=lambda item: item[0].imag)
    assert abs(got[0][0]) < 1e-10
    assert got[1][0].imag == pytest.approx(2.0, abs=1e-10)
    assert abs(got[1][0].real) < 1e-10


def test_standard_spectrum_rejects_non_normal():
    m = QMatrix.from_rows([[ONE, ONE], [Quaternion(), ONE]])
    with pytest.raises(NotNormal):
        standard_spectrum(m)


def near_degenerate_diagonals(seed, count):
    """Diagonal anti-Hermitian matrices, n = 2..6, whose levels lie within
    about 1e-8 (relative) of each other; every other entry is on the i-axis,
    the rest point along random imaginary directions."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        levels = rng.uniform(0.1, 2.0) * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, n))
        entries = []
        for i, level in enumerate(levels):
            axis = np.array([1.0, 0.0, 0.0]) if i % 2 == 0 else rng.normal(size=3)
            entries.append(Quaternion(0.0, *(level * axis / np.linalg.norm(axis))))
        yield QMatrix.diag(entries)


def test_standard_spectrum_pairs_near_degenerate_classes():
    for m in near_degenerate_diagonals(31, 500):
        assert sum(mult for _, mult in standard_spectrum(m)) == m.n


def test_standard_spectrum_does_not_depend_on_the_eigenvalue_order(monkeypatch):
    rng = np.random.default_rng(32)
    matrices = [*near_degenerate_diagonals(33, 200),
                *(b - dagger(b) for b in (random_qmatrix(rng, n) for n in (2, 3, 4)))]
    forward = [standard_spectrum(m) for m in matrices]
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(quatstat.linalg.np.linalg, "eigvals", lambda a: eigvals(a)[::-1])
    for m, want in zip(matrices, forward):
        got = standard_spectrum(m)
        assert [mult for _, mult in got] == [mult for _, mult in want]
        for (value, _), (expected, _) in zip(got, want):
            assert abs(value - expected) <= 1e-15 * abs(expected)


def test_embedding_eigenvalues_pair_under_conjugation():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = random_qmatrix(rng, 3)
        eig = np.linalg.eigvals(embed(m))
        conjugates = eig.conj()
        # multiset match: every eigenvalue finds a distinct conjugate partner
        cost = np.abs(eig[:, None] - conjugates[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10 * max(1.0, np.abs(eig).max())


def test_anti_hermitian_spectra_are_imaginary():
    rng = np.random.default_rng(9)
    for _ in range(20):
        b = random_qmatrix(rng, 2)
        m = b - dagger(b)  # anti-Hermitian by construction
        for lam, _ in standard_spectrum(m):
            assert abs(lam.real) <= 1e-10


def test_energies_by_continuity_signed_branch():
    omega = 2.0
    for v, expected in ((0.5, [0.5, 1.5]), (1.5, [-0.5, 2.5])):
        h = spin_hamiltonian(omega, v, 1.0)
        h0 = QMatrix.diag([I * (omega / 2), I * (-omega / 2)])
        energies = sorted(energies_by_continuity(h0, h - h0))
        assert energies == pytest.approx(expected, abs=1e-9)


def reference_energies_by_continuity(h0, hp):
    """The branch tracking of :func:`energies_by_continuity` with scipy's
    assignment solver as the matching: the oracle of the fast matching."""
    current = np.array([lam for lam, mult in standard_spectrum(h0) for _ in range(mult)])
    velocity = np.zeros_like(current)
    e0, ep = embed(h0), embed(hp)
    for step in range(1, 17):
        candidates = np.linalg.eigvals(e0 + step / 16 * ep)
        cost = np.abs((current + velocity)[:, None] - candidates[None, :])
        rows, cols = linear_sum_assignment(cost)
        new = np.empty_like(current)
        new[rows] = candidates[cols]
        velocity, current = new - current, new
    return [float(v) for v in current.imag]


@pytest.mark.parametrize("n", range(1, 9))
def test_matcher_agrees_with_scipy(n):
    rng = np.random.default_rng(n)
    for trial in range(40):
        if trial % 2:
            cost = rng.random((n, n))
        else:  # small integers: many exact ties
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
        got = quatstat.linalg._assign(cost.tolist())
        rows, want = linear_sum_assignment(cost)
        assert sorted(got) == list(range(n))
        assert cost[rows, got].sum() == cost[rows, want].sum()
        if trial % 2:
            assert got == list(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matcher_refuses_a_non_finite_cost(bad):
    cost = [[1.0, 2.0, 0.5], [0.0, 3.0, 1.0], [2.0, 1.0, 4.0]]
    cost[1][2] = bad
    with pytest.raises(ConstraintViolation, match="not finite"):
        quatstat.linalg._assign(cost)


@pytest.mark.parametrize("n", range(2, 8))
def test_energies_by_continuity_matches_the_assignment_oracle(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        b = random_qmatrix(rng, n)
        h = b - dagger(b)  # anti-Hermitian, so the tracked energies are real
        h0 = QMatrix.diag([h.entry(i, i) for i in range(n)])
        got = energies_by_continuity(h0, h - h0)
        assert got == reference_energies_by_continuity(h0, h - h0)


def test_near_degenerate_toy_levels_are_the_classes_of_the_total_matrix():
    # levels p, q near zero and a strong coupling c on the j-k plane: the
    # branches cross close to zero, where matching single eigenvalues let two
    # branches take +iE and -iE of one class and lose the other class
    rng = np.random.default_rng(14)
    for _ in range(300):
        p, q = rng.uniform(-0.3, 0.3, size=2)
        theta, size = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 3.0)
        toy = ToyModelParams(a=Quaternion(0.0, p, 0.0, 0.0), b=Quaternion(0.0, q, 0.0, 0.0),
                             c=Quaternion(0.0, 0.0, size * np.cos(theta), size * np.sin(theta)),
                             alpha=rng.uniform(0.5, 2.0), gamma=rng.uniform(0.5, 2.0))
        h = build_toy_hamiltonian(toy)
        h0 = QMatrix.diag([toy.a, toy.b])
        levels = sorted(abs(e) for e in energies_by_continuity(h0, h - h0))
        classes = np.sort(np.abs(np.linalg.eigvals(embed(h)).imag))[::2]
        assert levels == pytest.approx(classes, rel=1e-9, abs=1e-12)


# -- inverse and vectors -----------------------------------------------------


def test_inverse():
    rng = np.random.default_rng(10)
    m = random_qmatrix(rng, 3) + QMatrix.identity(3) * 4.0
    assert fro_norm(mat_mul(m, inverse(m)) - QMatrix.identity(3)) < 1e-12


def test_vector_operations():
    rng = np.random.default_rng(11)
    m = random_qmatrix(rng, 2)
    u = tuple(Quaternion(*rng.normal(size=4)) for _ in range(2))
    v = tuple(Quaternion(*rng.normal(size=4)) for _ in range(2))
    # <u, M v> == <M^dag u, v>
    lhs = vec_inner(u, mat_vec(m, v))
    rhs = vec_inner(mat_vec(dagger(m), u), v)
    assert lhs.isclose(rhs, tol=1e-12)
    # outer product reproduces the inner product under the real trace
    rho = vec_outer(u, u)
    assert re_trace(rho) == pytest.approx(abs(vec_inner(u, u)), rel=1e-12)
    # right scaling commutes through mat_vec
    q = Quaternion(0.2, -0.3, 0.5, 0.1)
    lhs_vec = mat_vec(m, vec_scale_right(v, q))
    rhs_vec = vec_scale_right(mat_vec(m, v), q)
    assert all(a.isclose(b, tol=1e-12) for a, b in zip(lhs_vec, rhs_vec))
