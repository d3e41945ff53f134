import math

import numpy as np
import pytest

from quatstat import (
    ConstraintViolation,
    I,
    J,
    MetricOperator,
    NotDensity,
    NotPositive,
    ONE,
    QMatrix,
    Quaternion,
    SingularTheta,
    build_metric,
    classification_report,
    dagger,
    embed,
    eta_adjoint,
    expectation,
    fro_norm,
    generalized_density,
    is_pseudo_anti_hermitian,
    is_pseudo_hermitian,
    is_quasi_anti_hermitian,
    mat_mul,
    mat_vec,
    re_trace,
    vec_inner,
    vec_outer,
)
from quatstat.metric import _relative_residual


def spin_hamiltonian(omega=2.0, v=0.5, x=2.0):
    return QMatrix.from_rows(
        [[I * (omega / 2), J * (v / x)], [J * (v * x), I * (-omega / 2)]]
    )


def random_metric(rng):
    x = rng.uniform(0.5, 2.0)
    y = rng.uniform(0.5, 2.0)
    z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
    return build_metric(x, y, z)


def random_qmatrix(rng, n=2, scale=1.0):
    return QMatrix(rng.normal(size=(n, n, 4)) * scale)


# -- construction ------------------------------------------------------------


def test_build_metric_diagonal():
    alpha, gamma = 2.25, 0.49
    m = build_metric(math.sqrt(alpha), math.sqrt(gamma), 0.0)
    expected = QMatrix.from_complex(np.diag([alpha, gamma]))
    assert fro_norm(m.eta - expected) < 1e-12
    assert m.positive


def test_build_metric_identity():
    m = build_metric(1.0, 1.0, 0.0)
    assert fro_norm(m.eta - QMatrix.identity(2)) == 0.0


def test_build_metric_general_entry():
    # theta = [[1, i], [-i, 2]] squares to [[2, 3i], [-3i, 5]]
    m = build_metric(1.0, 2.0, 1j)
    z1, z2 = m.eta.complex_pair()
    np.testing.assert_allclose(z1, np.array([[2.0, 3.0j], [-3.0j, 5.0]]), atol=1e-14)
    assert np.abs(z2).max() == 0.0
    eigenvalues = np.linalg.eigvalsh(embed(m.eta))
    assert eigenvalues.min() > 0.0
    assert fro_norm(m.eta - dagger(m.eta)) < 1e-14


def test_build_metric_singular_theta():
    with pytest.raises(SingularTheta):
        build_metric(1.0, 1.0, 1.0 + 0.0j)


@pytest.mark.parametrize("x, y, z", [(1.0, 1.0, 1e200), (1e200, 1.0, 0.0), (1e160, 1e160, 0.0),
                                     (1e154, 1.0, 1e154), (1.0, 1.0, complex(1.5e308, 1.5e308))])
def test_build_metric_past_the_float_range(x, y, z):
    # an x^2, y^2 or |z|^2, or an entry of eta, past the float range is named as
    # such: not a float-power OverflowError, nor a theta "numerically zero"
    with pytest.raises(ConstraintViolation, match="passes the float range"):
        build_metric(x, y, z)
    # just inside the range the metric is built
    assert build_metric(9e153, 1.0, 9e153).positive


def test_metric_square_root_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_metric(rng)
        assert fro_norm(mat_mul(m.theta, m.theta) - m.eta) <= 1e-12 * fro_norm(m.eta)
        assert np.linalg.eigvalsh(embed(m.eta)).min() > 0.0


def test_from_matrix_indefinite():
    eta = QMatrix.from_complex(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositive):
        MetricOperator.from_matrix(eta)
    m = MetricOperator.from_matrix(eta, require_positive=False)
    assert not m.positive and m.theta is None
    with pytest.raises(ConstraintViolation):
        MetricOperator.from_matrix(QMatrix.diag([J, J]), require_positive=False)


def test_from_matrix_takes_the_positive_square_root():
    built = build_metric(1.3, 0.7, 0.2 + 0.1j)
    m = MetricOperator.from_matrix(built.eta)
    assert m.positive
    assert fro_norm(m.theta - dagger(m.theta)) <= 1e-15 * fro_norm(m.theta)
    assert fro_norm(mat_mul(m.theta, m.theta) - m.eta) <= 1e-15 * fro_norm(m.eta)
    assert fro_norm(m.theta - built.theta) <= 1e-15 * fro_norm(built.theta)
    # theta = [[-1.3, 0.2], [0.2, -0.7]] is negative definite: its square's
    # positive root is -theta
    negative = build_metric(-1.3, -0.7, 0.2)
    root = MetricOperator.from_matrix(negative.eta).theta
    assert fro_norm(root + negative.theta) <= 1e-15 * fro_norm(negative.theta)
    assert np.linalg.eigvalsh(embed(root)).min() > 0.0


# -- metric adjoint ----------------------------------------------------------


def test_eta_adjoint_identity_metric_is_dagger():
    rng = np.random.default_rng(1)
    q = random_qmatrix(rng)
    m = MetricOperator.identity(2)
    assert fro_norm(eta_adjoint(q, m) - dagger(q)) < 1e-14


def test_eta_adjoint_involution_and_product_reversal():
    rng = np.random.default_rng(2)
    m = random_metric(rng)
    for _ in range(10):
        q = random_qmatrix(rng)
        r = random_qmatrix(rng)
        assert fro_norm(eta_adjoint(eta_adjoint(q, m), m) - q) < 1e-10
        lhs = eta_adjoint(mat_mul(q, r), m)
        rhs = mat_mul(eta_adjoint(r, m), eta_adjoint(q, m))
        assert fro_norm(lhs - rhs) < 1e-10


def pseudo_hermitian_sample(rng, m):
    """eta Q eta^-1 == Q^dag iff eta*Q is Hermitian; build Q = eta^-1 A."""
    b = random_qmatrix(rng)
    a = b + dagger(b)
    return mat_mul(m.eta_inv, a)


def test_fixed_points_of_eta_adjoint_are_observables():
    rng = np.random.default_rng(3)
    m = random_metric(rng)
    q = pseudo_hermitian_sample(rng, m)
    assert is_pseudo_hermitian(q, m)
    assert fro_norm(eta_adjoint(q, m) - q) < 1e-10


# -- classification ----------------------------------------------------------


def test_spin_model_is_quasi_anti_hermitian():
    x = 2.0
    h = spin_hamiltonian(x=x)
    metric = build_metric(x, 1.0, 0.0)  # eta' = diag(x^2, 1)
    assert is_pseudo_anti_hermitian(h, metric)
    assert is_quasi_anti_hermitian(h, metric)


def test_hermitian_matrix_is_not_anti_hermitian():
    h = QMatrix.identity(2)
    metric = build_metric(1.3, 0.7, 0.2 + 0.1j)
    assert not is_pseudo_anti_hermitian(h, metric)
    assert not is_quasi_anti_hermitian(h, metric)


def test_corrupted_constraint_is_rejected():
    # breaking d = -(alpha/gamma) conj(c) destroys pseudo-anti-Hermiticity
    alpha, gamma, omega = 4.0, 1.0, 2.0
    c = J * 0.25
    good_d = (-alpha / gamma) * Quaternion(c.q0, -c.q1, -c.q2, -c.q3)
    bad_d = good_d * 1.1
    metric = build_metric(2.0, 1.0, 0.0)
    good = QMatrix.from_rows([[I * (omega / 2), c], [good_d, I * (-omega / 2)]])
    bad = QMatrix.from_rows([[I * (omega / 2), c], [bad_d, I * (-omega / 2)]])
    assert is_pseudo_anti_hermitian(good, metric)
    assert not is_pseudo_anti_hermitian(bad, metric)
    report = classification_report(bad, metric)
    assert report["pseudo_anti_hermitian"]["residual"] > 0.0


def test_pseudo_hermitian_checks():
    rng = np.random.default_rng(4)
    m = random_metric(rng)
    assert is_pseudo_hermitian(QMatrix.identity(2), m)
    b = random_qmatrix(rng)
    anti = b - dagger(b)
    assert not is_pseudo_hermitian(anti, MetricOperator.identity(2))


def test_pseudo_anti_hermitian_iff_eta_h_anti_hermitian():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_metric(rng)
        # forward: certified Hamiltonian gives anti-Hermitian eta*H
        b = random_qmatrix(rng)
        anti = b - dagger(b)
        h = mat_mul(m.eta_inv, anti)  # eta*H = anti by construction
        assert is_pseudo_anti_hermitian(h, m)
        eta_h = mat_mul(m.eta, h)
        assert fro_norm(eta_h + dagger(eta_h)) <= 1e-10 * max(1.0, fro_norm(eta_h))
        # reverse: a generic matrix fails both sides
        g = random_qmatrix(rng)
        eta_g = mat_mul(m.eta, g)
        anti_residual = fro_norm(eta_g + dagger(eta_g))
        assert is_pseudo_anti_hermitian(g, m) == (
            anti_residual <= 1e-10 * max(fro_norm(g), 1e-300)
        )
        # the report's verdicts are the predicates', also at a tolerance equal
        # to a residual, where rounding decides the edge
        for q in (h, g, pseudo_hermitian_sample(rng, m)):
            report = classification_report(q, m)
            for tol in (1e-10, report["pseudo_anti_hermitian"]["residual"],
                        report["pseudo_hermitian"]["residual"]):
                report = classification_report(q, m, tol)
                assert [report[key]["verdict"] for key in (
                    "pseudo_anti_hermitian", "quasi_anti_hermitian", "pseudo_hermitian"
                )] == [is_pseudo_anti_hermitian(q, m, tol), is_quasi_anti_hermitian(q, m, tol),
                       is_pseudo_hermitian(q, m, tol)]


# -- densities and expectations ----------------------------------------------


def test_generalized_density_diagonal():
    alpha, gamma = 3.0, 0.5
    m = build_metric(math.sqrt(alpha), math.sqrt(gamma), 0.0)
    rho = QMatrix.identity(2) * 0.5
    rho_tilde = generalized_density(rho, m)
    expected = QMatrix.from_complex(np.diag([alpha / 2, gamma / 2]))
    assert fro_norm(rho_tilde - expected) < 1e-12


def test_generalized_density_identity_metric():
    rng = np.random.default_rng(6)
    b = random_qmatrix(rng)
    rho = mat_mul(b, dagger(b))
    assert fro_norm(generalized_density(rho, MetricOperator.identity(2)) - rho) == 0.0


def test_generalized_density_pure_state_is_pseudo_hermitian():
    x = 2.0
    m = build_metric(x, 1.0, 0.0)
    s = 1 / math.sqrt(2.0)
    psi = (I * (s / x), J * s)
    rho = vec_outer(psi, psi)
    rho_tilde = generalized_density(rho, m)
    assert is_pseudo_hermitian(rho_tilde, m)
    # rank 1: embedding has exactly two nonzero singular values (pair structure)
    umat = embed(rho_tilde)
    singular = np.linalg.svd(umat, compute_uv=False)
    assert (singular > 1e-10).sum() == 2


def test_generalized_density_rejects_bad_input():
    rng = np.random.default_rng(7)
    m = MetricOperator.identity(2)
    with pytest.raises(NotDensity):
        generalized_density(random_qmatrix(rng), m)
    with pytest.raises(NotDensity):
        generalized_density(QMatrix.identity(2) * (-1.0), m)


def test_expectation_normalized_identity():
    rng = np.random.default_rng(8)
    m = random_metric(rng)
    b = random_qmatrix(rng)
    rho = mat_mul(b, dagger(b))
    norm = re_trace(mat_mul(rho, m.eta))
    rho = rho * (1.0 / norm)
    assert expectation(QMatrix.identity(2), rho, m) == pytest.approx(1.0, rel=1e-12)


def test_expectation_matches_state_vector_form():
    rng = np.random.default_rng(9)
    m = random_metric(rng)
    for _ in range(10):
        psi = tuple(Quaternion(*rng.normal(size=4)) for _ in range(2))
        q = random_qmatrix(rng)
        rho = vec_outer(psi, psi)
        # <psi| eta Q |psi> against Re Tr(|psi><psi| eta Q)
        braket = vec_inner(psi, mat_vec(mat_mul(m.eta, q), psi))
        assert expectation(q, rho, m) == pytest.approx(braket.q0, rel=1e-10, abs=1e-10)


def test_expectation_of_observable_is_real_valued():
    rng = np.random.default_rng(10)
    m = random_metric(rng)
    q = pseudo_hermitian_sample(rng, m)
    psi = tuple(Quaternion(*rng.normal(size=4)) for _ in range(2))
    braket = vec_inner(psi, mat_vec(mat_mul(m.eta, q), psi))
    # eta*Q is Hermitian, so the quadratic form has no imaginary parts
    assert max(abs(braket.q1), abs(braket.q2), abs(braket.q3)) < 1e-12
    rho = vec_outer(psi, psi)
    assert expectation(q, rho, m) == pytest.approx(braket.q0, rel=1e-10, abs=1e-10)


def test_similarity_trace_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_metric(rng)
        b = random_qmatrix(rng)
        rho = mat_mul(b, dagger(b))
        conjugated = mat_mul(m.eta, mat_mul(rho, m.eta_inv))
        assert re_trace(conjugated) == pytest.approx(re_trace(rho), rel=1e-10, abs=1e-10)


@pytest.mark.filterwarnings("error")
def test_residual_of_a_subnormal_matrix():
    # the largest entry is subnormal, so the power of two that rescales it,
    # 2**1074, is past the float range; the scaling itself is exact
    m = build_metric(0.5, 2.0, 0.0)
    tiny = spin_hamiltonian(omega=1e-310, v=5e-324, x=0.5)
    assert _relative_residual(tiny, m, +1.0) <= 1e-10
    assert is_quasi_anti_hermitian(tiny, m)
    # where the power is a float, the scaled matrix has the same bits as before
    rng = np.random.default_rng(3)
    for scale in (1e-300, 1.0, 1e300):
        h = QMatrix(rng.normal(size=(2, 2, 4)) * scale)
        power = 2.0 ** -math.frexp(np.abs(h.comp).max())[1]
        old = h * power
        lhs = mat_mul(m.eta, mat_mul(old, m.eta_inv))
        want = fro_norm(lhs + dagger(old)) / max(fro_norm(old), 1e-300)
        assert _relative_residual(h, m, +1.0) == want
