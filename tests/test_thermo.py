import json
import math
import re

import mpmath
import numpy as np
import pytest
import scalar_oracle as oracle
from click.testing import CliRunner
from scipy.linalg import expm

from quatstat import (
    ConstraintViolation,
    DegenerateLevels,
    DiscrepancyLog,
    DomainError,
    EnergySliceParams,
    I,
    J,
    K,
    NotNormal,
    QMatrix,
    Quaternion,
    QubitModelParams,
    SelfCheckFailed,
    SpectralEnsemble,
    SpinModelParams,
    ToyModelParams,
    UnphysicalZ,
    VolumeModel,
    ZeroMeanEnergy,
    bloch_propagator,
    build_qubit_model,
    build_spin_model,
    build_toy_hamiltonian,
    closed_form_grid,
    discrepancies,
    dyson_convergence_slope,
    dyson_second_order,
    dyson_trace,
    embed,
    energy_variance,
    exp_re_trace,
    formal_trace,
    fro_norm,
    mat_mul,
    pressure,
    printed_entropy,
    printed_grid,
    printed_internal_energy,
    printed_pressure,
    printed_specific_heat,
    re_trace,
    relative_rms,
    spectral_grid,
    thermo_closed_form,
    thermo_spectral,
    toy_metric,
    trace_columns,
    van_loan_trace,
    z1_formula,
    z_spectral,
)
from quatstat import thermo as thermo_module
from quatstat.cli import cli
from quatstat.linalg import _expm
from quatstat.metric import is_quasi_anti_hermitian

OMEGA, V, X = 2.0, 0.5, 1.0


def spin_toy(omega=OMEGA, v=V, x=X):
    return ToyModelParams(
        a=I * (omega / 2), b=I * (-omega / 2), c=J * (v / x), alpha=x * x, gamma=1.0
    )


# -- model construction -------------------------------------------------------


def test_build_toy_hamiltonian_spin_entries():
    toy = spin_toy(x=2.0)
    h = build_toy_hamiltonian(toy)
    assert h.entry(0, 0) == I * 1.0
    assert h.entry(0, 1) == J * 0.25
    assert h.entry(1, 0) == J * 1.0  # -(alpha/gamma) conj(j v/x) = j v x
    assert h.entry(1, 1) == I * (-1.0)
    assert is_quasi_anti_hermitian(h, toy_metric(toy))


def test_build_toy_hamiltonian_decoupled():
    toy = ToyModelParams(a=I * 0.4, b=K * 0.9, c=Quaternion(), alpha=1.0, gamma=2.0)
    h = build_toy_hamiltonian(toy)
    assert fro_norm(h - QMatrix.diag([toy.a, toy.b])) == 0.0


def test_build_toy_hamiltonian_qubit_instance():
    phi = 0.6
    a = Quaternion(0, 0, -2 * math.cos(phi), -2 * math.sin(phi))
    toy = ToyModelParams(a=a, b=Quaternion(), c=Quaternion(), alpha=1.0, gamma=1.0)
    h = build_toy_hamiltonian(toy)
    assert h.entry(0, 0) == a
    assert re_trace(h) == 0.0


def test_toy_params_reject_real_diagonal():
    with pytest.raises(ConstraintViolation):
        ToyModelParams(a=Quaternion(1.0), b=I, c=J, alpha=1.0, gamma=1.0)
    with pytest.raises(ConstraintViolation):
        ToyModelParams(a=I, b=I, c=J, alpha=-1.0, gamma=1.0)
    with pytest.raises(ConstraintViolation, match="must be finite"):
        ToyModelParams(a=I, b=I, c=J, alpha=math.inf, gamma=1.0)


def test_toy_hamiltonian_past_the_frobenius_range_is_refused():
    toy = ToyModelParams(a=I * 1e154, b=I * -1e154, c=J * 1e154, alpha=1.0, gamma=1.0)
    with pytest.raises(ConstraintViolation, match="squared Frobenius norm overflows"):
        build_toy_hamiltonian(toy)


def test_slice_from_toy_and_spin():
    sl = EnergySliceParams.from_toy(spin_toy(x=2.0))
    assert sl == EnergySliceParams(aE=1.0, bE=-1.0, kappa=-0.25)
    assert EnergySliceParams.from_spin(OMEGA, V) == EnergySliceParams(1.0, -1.0, -0.25)
    complex_toy = ToyModelParams(a=I, b=-1.0 * I, c=I * 0.3, alpha=2.0, gamma=1.0)
    sl2 = EnergySliceParams.from_toy(complex_toy)
    assert sl2.kappa == pytest.approx(-0.18, rel=1e-12)
    with pytest.raises(ConstraintViolation):
        EnergySliceParams.from_toy(
            ToyModelParams(a=J, b=I, c=J, alpha=1.0, gamma=1.0)
        )
    with pytest.raises(ConstraintViolation, match="c\\^2 is past the float range"):
        EnergySliceParams.from_toy(ToyModelParams(a=I, b=-1.0 * I, c=J * 1e200,
                                                  alpha=1.0, gamma=1.0))


@pytest.mark.parametrize("ae, be, kappa", [(1e200, -1e200, 1.0), (0.5, -0.5, -math.inf),
                                           (1.0, 0.0, math.nan), (1e308, -1e308, 0.0)])
def test_slice_past_the_float_range_is_refused(ae, be, kappa):
    # the closed forms square aE - bE and scale kappa by beta
    with pytest.raises(ConstraintViolation, match="slice past the float range"):
        EnergySliceParams(ae, be, kappa)


# -- propagators ---------------------------------------------------------------


def test_bloch_propagator_initial_condition():
    h = build_toy_hamiltonian(spin_toy())
    assert fro_norm(bloch_propagator(h, 0.0) - QMatrix.identity(2)) < 1e-15


def test_bloch_propagator_diagonal():
    toy = ToyModelParams(a=I * 0.7, b=I * (-0.2), c=Quaternion(), alpha=1.0, gamma=1.0)
    h = build_toy_hamiltonian(toy)
    u = bloch_propagator(h, 1.4)
    expected = QMatrix.diag(
        [
            Quaternion.from_complex(np.exp(-0.7j * 1.4)),
            Quaternion.from_complex(np.exp(0.2j * 1.4)),
        ]
    )
    assert fro_norm(u - expected) < 1e-12


def test_bloch_propagator_satisfies_equation():
    h = build_toy_hamiltonian(spin_toy())
    beta, step = 0.9, 1e-6
    lhs = (bloch_propagator(h, beta + step) - bloch_propagator(h, beta - step)) * (
        1.0 / (2 * step)
    )
    rhs = -1.0 * mat_mul(h, bloch_propagator(h, beta))
    assert fro_norm(lhs - rhs) < 1e-8


def test_bloch_spin_trace_oracle():
    h = build_toy_hamiltonian(spin_toy())
    for beta in (0.3, 1.1, 2.6):
        assert re_trace(bloch_propagator(h, beta)) == pytest.approx(
            2 * math.cos(OMEGA * beta / 2) * math.cos(V * beta), abs=1e-12
        )


# -- perturbative propagator ---------------------------------------------------


def test_dyson_zero_perturbation():
    h0 = QMatrix.diag([I, -1.0 * I])
    ui = dyson_second_order(h0, QMatrix.zeros(2), 1.3)
    assert fro_norm(ui - QMatrix.identity(2)) < 1e-12


def test_dyson_requires_diagonal_reference():
    h = build_toy_hamiltonian(spin_toy())
    h0 = QMatrix.diag([I, -1.0 * I])
    with pytest.raises(ConstraintViolation):
        dyson_second_order(h, h - h0, 1.0)
    with pytest.raises(ConstraintViolation):
        dyson_trace(h, h - h0, 1.0)


def test_dyson_spin_small_v_trace():
    # second-order trace 2 cos(omega beta/2)(1 - v^2 beta^2/2), error O(v^3)
    omega, beta = 2.0, 1.2
    for v in (1e-2, 1e-3):
        toy = spin_toy(omega=omega, v=v)
        h = build_toy_hamiltonian(toy)
        h0 = QMatrix.diag([toy.a, toy.b])
        ui = dyson_second_order(h0, h - h0, beta)
        got = re_trace(mat_mul(bloch_propagator(h0, beta), ui))
        expected = 2 * math.cos(omega * beta / 2) * (1 - v * v * beta * beta / 2)
        assert abs(got - expected) < 1e-8 + 10 * v**3


def test_dyson_error_is_third_order():
    toy = spin_toy()
    h = build_toy_hamiltonian(toy)
    h0 = QMatrix.diag([toy.a, toy.b])
    slope = dyson_convergence_slope(h0, h - h0)
    assert slope == pytest.approx(3.0, abs=0.2)


@pytest.mark.filterwarnings("error")
def test_dyson_kernel_at_subnormal_nodes():
    # t g = 2e-310 i: expm1(z) / z overflows there, and phi1 is 1 in double precision
    toy = spin_toy()
    h = build_toy_hamiltonian(toy)
    h0 = QMatrix.diag([toy.a, toy.b])
    ui = dyson_second_order(h0, h - h0, 1e-310)
    assert fro_norm(ui - QMatrix.identity(2)) == pytest.approx(1e-310 * fro_norm(h - h0))
    assert dyson_trace(h0, h - h0, [1e-310, 1e-308]).tolist() == [2.0, 2.0]
    # a subnormal level puts a subnormal gap in every node, whatever t
    sub = ToyModelParams(a=I * 0.5, b=I * 1e-310, c=J * 0.5, alpha=1.0, gamma=1.0)
    h = build_toy_hamiltonian(sub)
    h0 = QMatrix.diag([sub.a, sub.b])
    assert dyson_convergence_slope(h0, h - h0) == pytest.approx(3.0, abs=0.2)


@pytest.mark.filterwarnings("error")
def test_dyson_kernel_past_the_float_range():
    # the propagator raises the OverflowError of mat_exp and bloch_propagator,
    # and the trace is a non-finite value, as the grids' are
    toy = spin_toy()
    h = build_toy_hamiltonian(toy)
    h0 = QMatrix.diag([toy.a, toy.b])
    with pytest.raises(OverflowError, match="overflowed the floating range"):
        dyson_second_order(h0, h - h0, 1e300)
    assert math.isnan(dyson_trace(h0, h - h0, 1e300))


def test_dyson_error_is_third_order_generic_toy():
    rng = np.random.default_rng(12)
    a = Quaternion(0.0, *rng.normal(size=3))
    b = Quaternion(0.0, *rng.normal(size=3))
    c = Quaternion(*rng.normal(size=4))
    toy = ToyModelParams(a=a, b=b, c=c, alpha=1.7, gamma=0.6)
    h = build_toy_hamiltonian(toy)
    h0 = QMatrix.diag([a, b])
    slope = dyson_convergence_slope(h0, h - h0)
    assert slope == pytest.approx(3.0, abs=0.2)


def generic_split(scale=0.3, seed=12):
    """Diagonal reference and a scaled coupling of a random quaternionic toy."""
    rng = np.random.default_rng(seed)
    a = Quaternion(0.0, *rng.normal(size=3))
    b = Quaternion(0.0, *rng.normal(size=3))
    c = Quaternion(*rng.normal(size=4))
    h = build_toy_hamiltonian(ToyModelParams(a=a, b=b, c=c, alpha=1.7, gamma=0.6))
    h0 = QMatrix.diag([a, b])
    return h0, (h - h0) * scale


def van_loan_terms(h0, hp, t):
    """Exact ``U0 * first`` and ``U0 * second`` Dyson terms in the embedding.

    The upper blocks of ``exp(t [[A, B, 0], [0, A, B], [0, 0, A]])`` with
    ``A = -H0``, ``B = -Hp`` are ``exp(A t)`` and the first- and second-order
    time-ordered integrals (Van Loan, IEEE TAC 23(3), 1978).
    """
    a, b = -embed(h0), -embed(hp)
    n = a.shape[0]
    z = np.zeros((n, n))
    e = expm(t * np.block([[a, b, z], [z, a, b], [z, z, a]]))
    return e[:n, :n], e[:n, n:2 * n], e[:n, 2 * n:]


def random_split(n, gap, rng):
    """Diagonal quaternionic ``H0`` whose first two entries are ``gap`` apart,
    and a dense random quaternionic ``Hp`` of norm about 1."""
    diag = [Quaternion(0.0, *rng.normal(size=3)) for _ in range(n)]
    diag[1] = diag[0] + Quaternion(0.0, *rng.normal(size=3)) * gap
    hp = QMatrix(rng.normal(size=(n, n, 4)) / n)
    return QMatrix.diag(diag), hp


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("gap", [1.0, 1e-9, 1e-12, 0.0])
def test_dyson_kernel_matches_van_loan(n, gap):
    # near-coincident levels, where a naive divided difference cancels, and
    # dense couplings in every quaternion direction
    h0, hp = random_split(n, gap, np.random.default_rng(n))
    ts = [0.3, 1.7, 6.0]
    grid = dyson_second_order(h0, hp, ts)
    traces = dyson_trace(h0, hp, ts)
    for t, ui, z in zip(ts, grid, traces):
        u0, first, second = van_loan_terms(h0, hp, t)
        want = u0 + first + second
        got = embed(mat_mul(bloch_propagator(h0, t), ui))
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
        want_z = 0.5 * np.trace(want).real
        assert abs(z - want_z) <= 1e-13 * max(1.0, abs(want_z))
        assert van_loan_trace(h0, hp, t) == pytest.approx(want_z, rel=1e-13, abs=1e-13)


def test_dyson_stiff_reference_matches_van_loan():
    # gaps of 80 over t up to 10: the nodes of the divided differences reach 800
    h0 = QMatrix.diag([I * 40.0, I * (-40.0)])
    hp = QMatrix.from_rows([[Quaternion(), I], [I, Quaternion()]])
    for t in (1.0, 3.0, 10.0):
        u0, first, second = van_loan_terms(h0, hp, t)
        got = embed(mat_mul(bloch_propagator(h0, t), dyson_second_order(h0, hp, t)))
        assert np.abs(got - (u0 + first + second)).max() <= 1e-13 * max(1.0, t * t)


def symmetric_split():
    """Levels ``a = i 0.9`` and ``-a`` coupled by ``c = [0, .3, .3, .4]``: the j-k part
    of the coupling links coincident eigenvalues of ``chi(H0)`` and gives
    divided-difference nodes that are exactly ``(0, 0)``."""
    a, c = I * 0.9, Quaternion(0.0, 0.3, 0.3, 0.4)
    h = build_toy_hamiltonian(ToyModelParams(a=a, b=-a, c=c, alpha=1.3, gamma=0.8))
    h0 = QMatrix.diag([a, -a])
    return h0, h - h0


def spin_split():
    toy = spin_toy()
    h0 = QMatrix.diag([toy.a, toy.b])
    return h0, build_toy_hamiltonian(toy) - h0


def test_dyson_grid_matches_scalar_calls(monkeypatch):
    # zeros and a negative time included; blocks of 7 divided differences
    # straddle the entries and must give the bits of one unblocked call. The
    # share of (0, 0) nodes at the nonzero times is 4 of 64 for the generic
    # split (the rounding residue of B_aa), all of them for the spin model and
    # 4 of 16 for the symmetric toy
    ts = [0.3, 0.0, 1.1, -0.4, 0.9, 0.7, 0.05, 1.3, 0.6, 0.0, 0.4]
    nodes, block = [], thermo_module._NODE_BLOCK
    kernel = thermo_module._exp_divided_differences
    monkeypatch.setattr(thermo_module, "_exp_divided_differences",
                        lambda x, y: nodes.append((x, y)) or kernel(x, y))
    for split, zero_share in ((generic_split, 4 / 64), (spin_split, 1.0),
                              (symmetric_split, 4 / 16)):
        h0, hp = split()
        monkeypatch.setattr(thermo_module, "_NODE_BLOCK", block)
        nodes.clear()
        unblocked = dyson_second_order(h0, hp, ts)
        x, y = (v.reshape(len(ts), -1)[np.array(ts) != 0.0] for v in nodes[0])
        assert np.mean((x == 0.0) & (y == 0.0)) == zero_share
        monkeypatch.setattr(thermo_module, "_NODE_BLOCK", 7)
        grid = dyson_second_order(h0, hp, ts)
        assert isinstance(grid, list) and len(grid) == len(ts)
        for ui, whole in zip(grid, unblocked):
            np.testing.assert_array_equal(ui.comp, whole.comp)
        for t, ui in zip(ts, grid):
            single = dyson_second_order(h0, hp, t)
            assert isinstance(single, QMatrix)
            assert np.abs(ui.comp - single.comp).max() <= 1e-14


def own_divided_differences(x, y):
    """Each node's ``exp[0, x, y]`` from its own 3x3 exponential."""
    out = []
    for xk, yk in zip(x, y):
        node = np.array([[0, 1, 0], [0, xk, 1], [0, 0, yk]], dtype=complex)
        out.append(_expm(node[None])[0, 0, 2])
    return np.array(out, dtype=complex)


@pytest.mark.parametrize("block", [1024, 3])
def test_shared_zero_node_has_each_nodes_own_bits(monkeypatch, block):
    monkeypatch.setattr(thermo_module, "_NODE_BLOCK", block)
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    # zero and nonzero pairs alternate so that both straddle every block
    x = np.array(zeros + [0.3j, 0j, -0.0, 1.5 - 2j, 0j, 1e-12j, complex(-0.0, 4.0),
                          0j, 0j, -7.5j, 2.0, complex(-0.0, -0.0)])
    y = np.array(zeros[::-1] + [0j, 0.3j, -0.0, 0j, 1.5 - 2j, 1e-12j, 0j,
                                -0.0, 0j, 7.5j, 2.0, 0j])
    got = thermo_module._exp_divided_differences(x, y)
    want = own_divided_differences(x, y)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert ((x == 0) & (y == 0)).sum() == 8
    empty = np.zeros(0, dtype=complex)  # no coupling: no node at all
    out = thermo_module._exp_divided_differences(empty, empty)
    assert out.shape == (0,) and out.dtype == complex


def test_zero_node_constant_is_the_nodes_own_exponential():
    got = thermo_module._node_exps(np.zeros(1), np.zeros(1))
    want = np.array([thermo_module._ZERO_NODE_EXP])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def order_study_models():
    """Seeded spin models (x from 1e-3 to 1e3, |H0| past 1e3 included) and
    generic quaternionic toys, each split into ``H0`` and ``Hp``."""
    rng = np.random.default_rng(26)
    for _ in range(12):
        toy = spin_toy(omega=10.0 ** rng.uniform(-1, 4), v=10.0 ** rng.uniform(-2, 1),
                       x=10.0 ** rng.uniform(-3, 3))
        h0 = QMatrix.diag([toy.a, toy.b])
        yield h0, build_toy_hamiltonian(toy) - h0
    for seed in range(12):
        yield generic_split(scale=10.0 ** rng.uniform(-2, 1), seed=seed)
    yield symmetric_split()
    yield random_split(3, 1e-9, rng)


def test_order_study_and_van_loan_keep_the_per_scale_bits():
    # one frame, one stack of exponentials and no np.block give the floats
    # of one dyson_second_order and bloch_propagator per scale
    for h0, hp in order_study_models():
        assert repr(dyson_convergence_slope(h0, hp)) == repr(oracle.dyson_convergence_slope(h0, hp))
        for t in (0.3, 2.0, 17.0):
            assert repr(van_loan_trace(h0, hp, t)) == repr(oracle.van_loan_trace(h0, hp, t))


def test_dyson_at_zero_time_is_the_exact_identity():
    # the general path, with no branch on t == 0
    ts = [0.0, 0.5, -0.0]
    for h0, hp in (generic_split(), (QMatrix.diag([I, I * -1.0]), QMatrix.zeros(2))):
        grid = dyson_second_order(h0, hp, ts)
        for ui in [u for t, u in zip(ts, grid) if t == 0.0] + [dyson_second_order(h0, hp, 0.0)]:
            np.testing.assert_array_equal(ui.comp, QMatrix.identity(2).comp)
            assert not np.signbit(ui.comp).any()


@pytest.mark.parametrize("t", [0.4, 0.9, 1.3])
def test_dyson_terms_match_van_loan(t):
    h0, hp = generic_split()
    # U_I(+-Hp) = 1 +- T1 + T2 separates the orders exactly
    plus, minus = (
        embed(u)
        for u in dyson_second_order(h0, hp, [t]) + dyson_second_order(h0, -hp, [t])
    )
    first, second = (plus - minus) / 2.0, (plus + minus) / 2.0 - np.eye(4)
    u0, want_first, want_second = van_loan_terms(h0, hp, t)
    assert np.abs(u0 @ first - want_first).max() < 1e-13
    assert np.abs(u0 @ second - want_second).max() < 1e-13
    # the spin model as well, where the reference is the paper's qubit splitting
    toy = spin_toy()
    h0 = QMatrix.diag([toy.a, toy.b])
    hp = build_toy_hamiltonian(toy) - h0
    u0, e1, e2 = van_loan_terms(h0, hp, t)
    got = embed(mat_mul(bloch_propagator(h0, t), dyson_second_order(h0, hp, t)))
    assert np.abs(got - (u0 + e1 + e2)).max() < 1e-13


def test_dyson_zero_time_entries_are_the_identity():
    h0, hp = generic_split()
    grid = dyson_second_order(h0, hp, [0.0, 0.7, 0.0])
    assert np.array_equal(grid[0].comp, QMatrix.identity(2).comp)
    assert np.array_equal(grid[2].comp, QMatrix.identity(2).comp)
    assert fro_norm(grid[1] - QMatrix.identity(2)) > 0.1
    assert np.array_equal(dyson_second_order(h0, hp, 0.0).comp, QMatrix.identity(2).comp)


# -- traces from one diagonalisation ------------------------------------------

#: Hamiltonians whose traces are checked against the mat_exp oracle.
TRACE_MODELS = {
    "spin-weak": lambda: build_toy_hamiltonian(spin_toy(v=0.5)),
    "spin-strong": lambda: build_toy_hamiltonian(spin_toy(v=1.5)),
    # v = omega/2: one level is zero, so chi(H) has the double eigenvalue 0
    "spin-zero-level": lambda: build_toy_hamiltonian(spin_toy(v=OMEGA / 2, x=1.7)),
    "toy-jk": lambda: build_toy_hamiltonian(
        ToyModelParams(
            a=I * 0.4 + J * 0.2, b=I * (-0.3) + K * 0.2,
            c=Quaternion(0.0, 0.0, 0.4, 0.3), alpha=1.5, gamma=0.8,
        )
    ),
    "qubit": lambda: build_qubit_model(QubitModelParams(phi=0.7))[0],
}


@pytest.mark.parametrize("name", sorted(TRACE_MODELS))
def test_formal_trace_matches_mat_exp(name):
    h = TRACE_MODELS[name]()
    h0 = QMatrix.diag([h.entry(i, i) for i in range(h.n)])
    ts = np.concatenate([[0.0], np.linspace(0.05, 40.0, 200)])
    uis = dyson_second_order(h0, h - h0, ts)
    z_formal = formal_trace(h, ts)
    z_dyson = dyson_trace(h0, h - h0, ts)
    assert z_formal.shape == z_dyson.shape == ts.shape
    assert z_formal[0] == z_dyson[0] == h.n
    for t, zf, zd, ui in zip(ts, z_formal, z_dyson, uis):
        want_formal = re_trace(bloch_propagator(h, t))
        want_dyson = re_trace(mat_mul(bloch_propagator(h0, t), ui))
        assert abs(zf - want_formal) <= 1e-12 * max(1.0, abs(want_formal))
        assert abs(zd - want_dyson) <= 1e-12 * max(1.0, abs(want_dyson))
    t = 1.3
    ui = dyson_second_order(h0, h - h0, t)
    scalar = formal_trace(h, t)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(re_trace(bloch_propagator(h, t)), rel=1e-12, abs=1e-12)
    scalar = dyson_trace(h0, h - h0, t)
    assert isinstance(scalar, float)
    want = re_trace(mat_mul(bloch_propagator(h0, t), ui))
    assert scalar == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_formal_trace_is_the_cosine_sum():
    # quasi-anti-Hermitian H: Re Tr exp(-t H) = sum_r cos(t E_r), E = omega/2 +- v
    h = build_toy_hamiltonian(spin_toy(v=0.3, x=0.6))
    ts = np.linspace(0.0, 25.0, 51)
    want = np.cos(ts * (OMEGA / 2 - 0.3)) + np.cos(ts * (OMEGA / 2 + 0.3))
    assert np.abs(formal_trace(h, ts) - want).max() < 1e-12


def test_formal_trace_rejects_defective_and_mismatched_input():
    # quaternionic Jordan block: chi(H) has no basis of eigenvectors
    jordan = QMatrix.from_rows([[I, Quaternion(1.0)], [Quaternion(), I]])
    with pytest.raises(NotNormal):
        formal_trace(jordan, 1.0)
    with pytest.raises(NotNormal):
        formal_trace(jordan, [0.5, 1.0])
    h = build_toy_hamiltonian(spin_toy())
    with pytest.raises(ValueError):
        formal_trace(h, [[0.5, 1.0]])


@pytest.mark.filterwarnings("error")
def test_formal_trace_overflow_is_reported():
    # a real spectrum makes exp(-t H) grow like a Boltzmann weight; past the
    # float range the trace is data, as its oracle's is, and the propagator raises
    h = QMatrix.diag([Quaternion(-1.0), Quaternion(1.0)])
    assert formal_trace(h, 2.0) == pytest.approx(re_trace(bloch_propagator(h, 2.0)))
    values = formal_trace(h, [1.0, 800.0])
    assert math.isfinite(values[0]) and values[1] == math.inf == exp_re_trace(-h, 800.0)
    with pytest.raises(OverflowError, match="overflowed the floating range"):
        bloch_propagator(h, 800.0)


def test_trace_columns_are_the_checked_traces():
    h = TRACE_MODELS["spin-weak"]()
    h0 = QMatrix.diag([h.entry(i, i) for i in range(h.n)])
    betas = np.linspace(0.2, 2.0, 8).tolist()
    z_formal, z_dyson, slope = trace_columns(h, betas)
    assert z_formal == formal_trace(h, betas).tolist()
    assert z_dyson == dyson_trace(h0, h - h0, betas).tolist()
    assert slope == dyson_convergence_slope(h0, h - h0)
    # a diagonal H has no perturbation, and so no order study
    qubit = TRACE_MODELS["qubit"]()
    assert trace_columns(qubit, betas)[2] is None


def test_trace_columns_failed_evaluation_is_a_self_check_failure():
    # formal_trace cannot diagonalise a quaternionic Jordan block
    jordan = QMatrix.from_rows([[I, Quaternion(1.0)], [Quaternion(), I]])
    with pytest.raises(SelfCheckFailed, match=r"^oracle self-check failed: matrix could not "
                                              r"be diagonalized reliably \(residual "):
        trace_columns(jordan, [0.5, 1.0])


def test_trace_columns_refuse_a_last_beta_past_the_checks_resolution():
    h, _, _ = build_spin_model(SpinModelParams(omega=2.028194642310593, v=1.005896909426147,
                                               x=0.9629032177959622))
    with pytest.raises(OverflowError) as refused:
        trace_columns(h, np.linspace(1e17, 2e17, 3).tolist())
    assert str(refused.value) == ("spot checks cannot resolve beta = 2e+17: beta |H| = "
                                  "4.0428852987050554e+17 reaches 1/(256 eps)")


# -- slice closed forms ---------------------------------------------------------


def test_z1_formula_no_coupling():
    sl = EnergySliceParams(aE=0.9, bE=-0.3, kappa=0.0)
    beta = 1.7
    assert z1_formula(sl, beta) == pytest.approx(
        math.exp(-0.9 * beta) + math.exp(0.3 * beta), rel=1e-14
    )
    assert z1_formula(sl, beta) == z1_formula(sl, beta, rederived=True)


def test_z1_formula_spin_substitution():
    # printed branch has the coupling term with the opposite sign to the
    # rederived branch; both are exposed, neither silently corrected
    sl = EnergySliceParams.from_spin(OMEGA, V)
    beta = 1.3
    sinh_term = (2 * V * V * beta / OMEGA) * math.sinh(OMEGA * beta / 2)
    printed = 2 * math.cosh(OMEGA * beta / 2) + sinh_term
    rederived = 2 * math.cosh(OMEGA * beta / 2) - sinh_term
    assert z1_formula(sl, beta) == pytest.approx(printed, rel=1e-14)
    assert z1_formula(sl, beta, rederived=True) == pytest.approx(rederived, rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_z1_formula_past_the_float_range_is_infinite_without_a_warning():
    # x beta and m beta overflow; the grid builders and the one-point form alike
    assert z1_formula(EnergySliceParams.from_spin(1e10, V), 1e300) == math.inf


def test_z1_formula_beta_zero():
    sl = EnergySliceParams(aE=0.4, bE=-1.1, kappa=0.3)
    assert z1_formula(sl, 0.0) == 2.0


def test_z1_degenerate_limit_is_continuous():
    beta = 1.2
    near = EnergySliceParams(aE=0.5 + 1e-9, bE=0.5 - 1e-9, kappa=0.1)
    limit = EnergySliceParams(aE=0.5, bE=0.5, kappa=0.1)
    assert z1_formula(limit, beta) == pytest.approx(z1_formula(near, beta), rel=1e-7)
    expected = math.exp(-0.5 * beta) * (2.0 - 0.1 * beta * beta)
    assert z1_formula(limit, beta) == pytest.approx(expected, rel=1e-14)


def exact_slice(p, beta, n, k, rederived, dps=60):
    """``ln Z1``, ``U``, ``S`` and ``Cv`` of the slice from the linear form of
    ``Z1`` (the analytic limit at ``aE = bE``) in ``dps``-digit mpmath, with
    the bracket ``Z1 / (Ea + Eb)``; ``None`` in place of the four where
    ``Z1 <= 0``."""
    mp = mpmath.mp
    with mp.workdps(dps):
        a, b, bt, k = mp.mpf(p.aE), mp.mpf(p.bE), mp.mpf(beta), mp.mpf(k)
        mu = mp.mpf(p.kappa if rederived else -p.kappa)
        ea, eb = mp.exp(-a * bt), mp.exp(-b * bt)
        if a == b:
            z = ea * (2 + mu * bt**2)
            z1 = ea * (-a * (2 + mu * bt**2) + 2 * mu * bt)
            z2 = ea * (a * a * (2 + mu * bt**2) - 4 * a * mu * bt + 2 * mu)
        else:
            g = mu / (a - b)
            z = ea + eb + g * bt * (eb - ea)
            z1 = -a * ea - b * eb + g * ((eb - ea) + bt * (a * ea - b * eb))
            z2 = (a * a * ea + b * b * eb
                  + g * (2 * (a * ea - b * eb) + bt * (b * b * eb - a * a * ea)))
        bracket = float(z / (ea + eb))
        if z <= 0:
            return None, bracket
        u = -n * z1 / z
        values = (mp.log(z), u, n * k * mp.log(z) + k * bt * u,
                  k * bt**2 * (z2 * z - z1 * z1) / z**2)
        return tuple(float(v) for v in values), bracket


@pytest.mark.parametrize("rederived", [False, True], ids=["printed", "rederived"])
@pytest.mark.parametrize("kappa", [-0.2, 0.2])
def test_slice_kernel_matches_mpmath(kappa, rederived):
    # one kernel for every gap: no digits lost near degeneracy, nothing
    # overflows at large beta, and Z1 <= 0 exactly where the exact Z1 is
    n, k = 3, 1.3
    deltas = [0.0, *(10.0**-e for e in range(12, 2, -1)), 0.3, 2.0]
    betas = [10.0 ** (e / 2) for e in range(-6, 9)]
    for delta in deltas:
        sl = EnergySliceParams(aE=0.5 + delta, bE=0.5, kappa=kappa)
        for beta in betas:
            exact, bracket = exact_slice(sl, beta, n, k, rederived)
            if abs(bracket) < 1e-6:
                continue  # within 1e-6 of the root of Z1: ill-conditioned
            if exact is None:
                with pytest.raises(UnphysicalZ):
                    thermo_closed_form(sl, beta, n, k, rederived, quantities=())
                continue
            r = thermo_closed_form(sl, beta, n, k, rederived, quantities=())
            got = (-r.A * beta / n, r.U, r.S, r.Cv)
            for name, value, want in zip(("ln Z1", "U", "S", "Cv"), got, exact):
                assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), (
                    name, delta, beta, value, want)


def test_slice_kernel_subnormal_gap():
    # a gap of one subnormal ulp is the coincident pair to every digit
    sl = EnergySliceParams(aE=3e-308, bE=math.nextafter(3e-308, 1.0), kappa=0.2)
    for beta in (0.5, 1.5, 40.0):
        exact, _ = exact_slice(sl, beta, 3, 1.3, True, dps=400)
        r = thermo_closed_form(sl, beta, 3, 1.3, True, quantities=())
        got = (-r.A * beta / 3, r.U, r.S, r.Cv)
        assert got == pytest.approx(exact, rel=1e-14, abs=1e-14)


def test_slice_matches_numerical_time_ordered_integral():
    # commuting complex parameters: the closed form must reproduce the
    # second-order term of this module's own perturbation integral in both
    # coupling-sign conventions
    aE, bE, kappa, beta = 0.7, -0.4, -0.02, 1.1
    sl = EnergySliceParams(aE, bE, kappa)
    h0 = QMatrix.diag([Quaternion(aE), Quaternion(bE)])
    c = 0.1j
    for rederived in (True, False):
        d = (kappa if rederived else -kappa) / c
        hp = QMatrix.from_complex(np.array([[0, c], [d, 0]]))
        ui = dyson_second_order(h0, hp, beta)
        z_numeric = re_trace(mat_mul(bloch_propagator(h0, beta), ui))
        z_closed = z1_formula(sl, beta, rederived=rederived)
        assert abs(z_numeric - z_closed) < 1e-8 + 10 * abs(c) ** 3


def test_thermo_closed_form_two_level_limit():
    sl = EnergySliceParams(aE=1.2, bE=-0.4, kappa=0.0)
    beta, n = 0.9, 5
    report = thermo_closed_form(sl, beta, n_particles=n)
    ea, eb = math.exp(-1.2 * beta), math.exp(0.4 * beta)
    assert report.U == pytest.approx(n * (1.2 * ea - 0.4 * eb) / (ea + eb), rel=1e-12)
    assert report.Z1 == pytest.approx(ea + eb, rel=1e-14)


def test_thermo_closed_form_identities():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 40:
        aE, bE = rng.uniform(-1.5, 1.5, size=2)
        if abs(aE - bE) < 0.05:
            continue
        sl = EnergySliceParams(aE=aE, bE=bE, kappa=rng.uniform(-0.3, 0.3))
        beta = rng.uniform(0.1, 2.5)
        try:
            report = thermo_closed_form(sl, beta, n_particles=4)
        except UnphysicalZ:
            continue
        t = 1.0 / beta
        assert report.A == pytest.approx(report.U - t * report.S, rel=1e-9, abs=1e-9)
        dt = 1e-5 * t

        def u_at(temp):
            return thermo_closed_form(sl, 1.0 / temp, n_particles=4).U

        fd = (u_at(t + dt) - u_at(t - dt)) / (2 * dt) / 4
        assert report.Cv == pytest.approx(fd, rel=1e-6, abs=1e-9)
        checked += 1


def test_thermo_closed_form_unphysical_branch():
    sl = EnergySliceParams.from_spin(OMEGA, V)
    with pytest.raises(UnphysicalZ):
        thermo_closed_form(sl, 12.0, rederived=True)


def test_printed_forms_against_derivation_chain():
    # the displayed U and S are exact derivatives of the displayed Z1; the
    # displayed specific heat carries a sign flip and a stray 1/N
    sl = EnergySliceParams(aE=1.0, bE=-0.5, kappa=0.2)
    beta, n = 0.8, 3
    report = thermo_closed_form(sl, beta, n_particles=n)
    assert printed_internal_energy(sl, beta, n) == pytest.approx(report.U, rel=1e-12)
    assert report.discrepancies.quantity == ["Cv"]
    assert printed_specific_heat(sl, beta, n) == pytest.approx(
        -report.Cv / n, rel=1e-12
    )


def test_closed_form_checks_the_named_display_forms(monkeypatch):
    # a subset of the display forms logs the full check's records for its
    # quantities, in the order named; one call of the display forms gives
    # every form, and no quantity means no call
    sl = EnergySliceParams(aE=1.0, bE=-1.0, kappa=-0.25)
    full = thermo_closed_form(sl, 0.5, 3, 1.3, rederived=True)
    log = full.discrepancies
    assert log.quantity == ["U", "S", "Cv"]
    for quantities in (("Cv", "U"), ("S",), ()):
        report = thermo_closed_form(sl, 0.5, 3, 1.3, True, 1e-8, quantities)
        rows = [log.quantity.index(q) for q in quantities]
        assert report.discrepancies == DiscrepancyLog(
            *([column[i] for i in rows] for column in log._asdict().values()))
        assert (report.Z1, report.A, report.S, report.U, report.Cv) == (
            full.Z1, full.A, full.S, full.U, full.Cv)
    calls = []

    def forms(p, beta, n, k, terms):
        calls.append((p, beta.tolist(), n, k))
        return {q: np.full(beta.shape, getattr(full, q)) for q in ("U", "S", "Cv")}

    monkeypatch.setattr(thermo_module, "_printed_forms", forms)
    assert thermo_closed_form(sl, 0.5, 3, 1.3, True, 1e-8).discrepancies == DiscrepancyLog()
    assert thermo_closed_form(sl, 0.5, 3, 1.3, True, 1e-8, ()).discrepancies == DiscrepancyLog()
    assert calls == [(sl, [0.5], 3.0, 1.3)]


def test_printed_forms_reject_degenerate_levels():
    sl = EnergySliceParams(aE=0.5, bE=0.5, kappa=0.1)
    with pytest.raises(DegenerateLevels):
        printed_internal_energy(sl, 1.0)
    with pytest.raises(DegenerateLevels):
        printed_specific_heat(sl, 1.0)


# -- the discrepancy rule -------------------------------------------------------


def test_discrepancy_threshold_is_strict():
    # tol * max(1, |derived|) = 0.25 * 2 = 0.5, exactly representable
    past = math.nextafter(2.5, math.inf)
    log = discrepancies([("U", [2.5, 1.5, past], [2.0] * 3)], [0.7, 0.8, 0.9], 0.25)
    assert log == DiscrepancyLog(["U"], [past], [2.0], [0.9], [2])
    # below |derived| = 1 the threshold is tol itself
    log = discrepancies([("S", [0.35, 0.36], [0.1, 0.1])], [1.0, 2.0], 0.25)
    assert log == DiscrepancyLog(["S"], [0.36], [0.1], [2.0], [1])


def test_discrepancy_nan_is_no_record():
    # a NaN printed or derived value is none, nor is a display value past the
    # float range; the finite pair at the last beta is one
    printed = [math.nan, 1.0, math.inf, -math.inf, 2.0]
    derived = [1.0, math.nan, 1.0, 1.0, 1.0]
    log = discrepancies([("S", printed, derived)], [1.0, 2.0, 3.0, 4.0, 5.0], 1e-8)
    assert log == DiscrepancyLog(["S"], [2.0], [1.0], [5.0], [4])


def test_discrepancy_rule_on_real_display_forms():
    degenerate = EnergySliceParams(aE=0.5, bE=0.5, kappa=0.1)
    sl = EnergySliceParams.from_spin(OMEGA, V)
    # kappa > 0 drives the printed Z1 below zero
    steep = EnergySliceParams(aE=1.0, bE=-1.0, kappa=4.0)
    with pytest.raises(DegenerateLevels):
        printed_specific_heat(degenerate, 1.0)
    # a literal form that fails at one beta is NaN there: exp(beta * omega/2)
    # overflows, and the log of a negative Z1 has no value
    assert math.isnan(printed_specific_heat(sl, 800.0))
    assert math.isnan(printed_entropy(steep, 3.0))
    # the grid of each such form is NaN there, and a NaN logs no record
    for p, beta, quantity in ((degenerate, 1.0, "Cv"), (sl, 800.0, "Cv"), (steep, 3.0, "S")):
        printed = printed_grid(p, [beta])[quantity]
        assert math.isnan(printed[0])
        assert len(discrepancies([(quantity, printed, [0.0])], [beta], 1e-8)) == 0


def log_records(log):
    """A log's records as the objects of its JSON file."""
    fields = DiscrepancyLog._fields[:4]  # "at" indexes the grid and is not written
    return [dict(zip(fields, row)) for row in zip(*(getattr(log, f) for f in fields))]


@pytest.mark.parametrize(
    "argv, sl",
    [
        (["--model", "spin", "--omega", "2", "--v", "1.5", "--x", "1.3"],
         EnergySliceParams.from_spin(2.0, 1.5)),
        (["--model", "toy", "--params", "toy.json"],
         EnergySliceParams.from_toy(spin_toy(2.0, 0.5, 1.0))),
    ],
    ids=["spin", "toy"],
)
def test_compare_slice_records_are_the_reports_records(tmp_path, argv, sl):
    # compare's S and Cv records are exactly those of the rederived and the
    # printed closed-form reports, in grid order
    n, k, tol = 3, 1.3, 1e-8
    toy = {"a": [0, 1, 0, 0], "b": [0, -1, 0, 0], "c": [0, 0, 0.5, 0],
           "alpha": 1.0, "gamma": 1.0}
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("toy.json", "w") as handle:
            json.dump(toy, handle)
        result = runner.invoke(
            cli, ["compare", *argv, "--beta", "0.2:12:25", "--n-particles", str(n),
                  "--k", str(k), "--output", "json"], env={"QUATSTAT_TOL": None},
        )
        assert result.exit_code == 0, result.output
        with open("discrepancies.json") as handle:
            records = json.load(handle)
    betas = [row["beta"] for row in json.loads(result.stdout)]
    want = []
    for beta in betas:
        for rederived, quantity in ((True, "S"), (False, "Cv")):
            try:
                report = thermo_closed_form(sl, beta, n, k, rederived, diff_tol=tol)
            except UnphysicalZ:
                continue
            want += [r for r in log_records(report.discrepancies) if r["quantity"] == quantity]
    got = [r for r in records if r["quantity"] in ("S", "Cv")]
    assert got == want
    assert {r["quantity"] for r in got} == {"S", "Cv"}


# -- pressure -------------------------------------------------------------------


def two_level_volume_model(c0=0.8, h=1e-4):
    return VolumeModel(
        aE=lambda vol: c0 / vol,
        bE=lambda vol: -c0 / vol,
        kappa=lambda vol: 0.0,
        h=h,
        domain=(0.5, 4.0),
    )


def test_pressure_volume_independent_is_zero():
    vm = VolumeModel(aE=lambda _: 0.7, bE=lambda _: -0.7, kappa=lambda _: 0.1, h=1e-4)
    assert pressure(vm, beta=1.1, volume=2.0) == pytest.approx(0.0, abs=1e-10)


def test_pressure_matches_analytic_two_level():
    # at beta = 2000, exp(c0 beta / vol) is past the float range
    c0, vol, n = 0.8, 2.0, 7
    vm = two_level_volume_model(c0)
    for beta in (1.3, 2000.0):
        expected = -(n * c0 / vol**2) * math.tanh(c0 * beta / vol)
        assert pressure(vm, beta, vol, n_particles=n) == pytest.approx(expected, rel=1e-6)


def test_pressure_richardson_step_halving():
    vm = two_level_volume_model(h=1e-3)
    finer = two_level_volume_model(h=5e-4)
    p1 = pressure(vm, 1.3, 2.0)
    p2 = pressure(finer, 1.3, 2.0)
    assert abs(p2 - p1) < 1e-8 * max(1.0, abs(p2))


def pressure_log(vm, beta, volume, n=1):
    """The pressure and the log of its display form under the closed-form
    tolerance; a display form that raises is NaN, as in a grid."""
    value = pressure(vm, beta, volume, n_particles=n)
    try:
        printed = printed_pressure(vm, beta, volume, n)
    except DegenerateLevels:
        printed = math.nan
    return value, discrepancies([("P", [printed], [value])], [beta], 1e-8)


def test_pressure_domain_and_display_log():
    vm = two_level_volume_model()
    with pytest.raises(DomainError):
        pressure(vm, 1.0, 0.5)
    # the display form lands about 1e-10 from the derivation: below the tolerance
    value, log = pressure_log(vm, 1.3, 2.0, n=2)
    assert len(log) == 0
    assert printed_pressure(vm, 1.3, 2.0, 2) == pytest.approx(value, rel=1e-6)
    # a coarse step moves the display form's derivatives about 5e-6 away: a record
    coarse = two_level_volume_model(h=1e-2)
    value, log = pressure_log(coarse, 1.3, 2.0, n=2)
    assert log == DiscrepancyLog(["P"], [printed_pressure(coarse, 1.3, 2.0, 2)], [value],
                                 [1.3], [0])
    # a display form that cannot be evaluated gives no record, not an error
    degenerate = VolumeModel(aE=lambda vol: 0.8 / vol, bE=lambda vol: 0.8 / vol,
                             kappa=lambda vol: 0.0, h=1e-4)
    with pytest.raises(DegenerateLevels):
        printed_pressure(degenerate, 1.3, 2.0)
    assert len(pressure_log(degenerate, 1.3, 2.0)[1]) == 0


def test_printed_pressure_is_nan_past_the_float_range():
    # at the analytic test's beta = 2000, exp(c0 beta / vol) is past the float
    # range: the display form is NaN, as every grid display form is, and gives no record
    vm = two_level_volume_model()
    assert math.isnan(printed_pressure(vm, 2000.0, 2.0, 7))
    value, log = pressure_log(vm, 2000.0, 2.0, n=7)
    assert value == pytest.approx(-(7 * 0.8 / 4.0) * math.tanh(800.0), rel=1e-6)
    assert len(log) == 0


def test_pressure_raises_where_the_printed_z1_is_not_positive():
    # kappa > 0 drives the printed Z1 below zero at beta = 3 on both sides of
    # the volume; the first free energy taken, at volume + h, names the error
    vm = VolumeModel(aE=lambda vol: 1.0 / vol, bE=lambda vol: -1.0 / vol,
                     kappa=lambda vol: 4.0, h=1e-4)
    refused = closed_form_grid(vm.slice_at(1.0 + 1e-4), [3.0], quantities=()).error
    assert type(refused) is UnphysicalZ
    with pytest.raises(UnphysicalZ, match=f"^{re.escape(str(refused))}$"):
        pressure(vm, 3.0, 1.0)
    # the rederived branch of the same model is physical there
    assert math.isfinite(pressure(vm, 3.0, 1.0, rederived=True))


# -- spectral path ---------------------------------------------------------------


def spin_ensemble(omega=OMEGA, v=V, n=1):
    return SpectralEnsemble(((omega / 2 + v, 1), (omega / 2 - v, 1)), n_particles=n)


def test_z_spectral_examples():
    single = SpectralEnsemble(((1.7, 1),))
    assert z_spectral(single, 0.9) == pytest.approx(math.exp(-1.53), rel=1e-14)
    beta = 1.4
    assert z_spectral(spin_ensemble(), beta) == pytest.approx(
        2 * math.exp(-beta * OMEGA / 2) * math.cosh(beta * V), rel=1e-13
    )
    counts = SpectralEnsemble(((0.0, 2), (1.0, 3)))
    assert z_spectral(counts, 0.0) == 5.0


def test_z_spectral_overflow_safety():
    # Z1 = exp(2000) is past the float range; ln Z1 = -beta A is not
    huge = SpectralEnsemble(((-1000.0, 1), (-999.0, 1)))
    grid = spectral_grid(huge, [2.0])
    assert math.isinf(grid.Z1[0]) and grid.error is None
    assert -2.0 * grid.A[0] == pytest.approx(2000.0 + math.log1p(math.exp(-2.0)), rel=1e-14)


def test_thermo_spectral_limits():
    e = SpectralEnsemble(((0.0, 1), (1.0, 2), (3.0, 1)), n_particles=1)
    hot = thermo_spectral(e, 1e-9)
    assert hot.U == pytest.approx((0.0 + 2 * 1.0 + 3.0) / 4.0, rel=1e-6)
    cold = thermo_spectral(e, 60.0)
    assert cold.U == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        thermo_spectral(e, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("one, grid, source", [
    (thermo_spectral, spectral_grid, SpectralEnsemble(((2.0, 1), (0.0, 1)))),
    (thermo_closed_form, closed_form_grid, EnergySliceParams.from_spin(OMEGA, V)),
], ids=["spectral", "closed-form"])
def test_one_point_raises_where_its_grid_refuses(one, grid, source):
    # beta^2 overflows in Cv from beta ~ 1.3e154 on, where the variance is 0
    betas = [1.0, 1e237, 1e238]
    refused = grid(source, betas).error
    assert type(refused) is OverflowError
    assert str(refused) == "Cv = nan at beta = 9.9999999999999994e+236"
    assert list(one(source, 1.0)._asdict().values())[:6] == list(grid(source, betas).rows()[0])
    for beta in betas[1:]:
        with pytest.raises(OverflowError) as raised:
            one(source, beta)
        assert str(raised.value) == str(grid(source, [beta]).error)
        assert str(raised.value) == f"Cv = nan at beta = {beta:.17g}"


def test_thermo_spectral_weighs_the_levels_once(monkeypatch):
    calls = []
    sums = thermo_module._boltzmann_sums
    monkeypatch.setattr(thermo_module, "_boltzmann_sums",
                        lambda e, beta: calls.append(beta.tolist()) or sums(e, beta))
    e = SpectralEnsemble(((-0.5, 1), (1.0, 2), (3.0, 1)), n_particles=3, k=1.3)
    report = thermo_spectral(e, 0.7)
    assert calls == [[0.7]]
    # the public variance reads the same single pass, bit for bit
    assert report.Cv == 1.3 * 0.7 * 0.7 * energy_variance(e, 0.7)


def test_thermo_spectral_spin_oracle():
    for beta in (0.4, 1.0, 3.0):
        report = thermo_spectral(spin_ensemble(n=6), beta)
        assert report.U / 6 == pytest.approx(
            OMEGA / 2 - V * math.tanh(beta * V), rel=1e-12
        )
        assert report.A == pytest.approx(report.U - report.S / beta, rel=1e-10)
        assert report.S >= 0.0


def test_thermo_spectral_entropy_nonnegative():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n_levels = rng.integers(2, 6)
        levels = tuple(
            (float(e), int(g))
            for e, g in zip(
                rng.uniform(-2, 2, n_levels), rng.integers(1, 4, n_levels)
            )
        )
        beta = rng.uniform(0.05, 4.0)
        assert thermo_spectral(SpectralEnsemble(levels), beta).S >= 0.0


def test_z_spectral_monotone_for_positive_energies():
    e = spin_ensemble()
    betas = np.linspace(0.1, 4.0, 30)
    values = [z_spectral(e, b) for b in betas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_energy_variance():
    assert energy_variance(SpectralEnsemble(((2.0, 3),)), 1.3) == 0.0
    pm = SpectralEnsemble(((-1.0, 1), (1.0, 1)))
    assert energy_variance(pm, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_energy_variance_is_minus_du_dbeta():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n_levels = rng.integers(2, 6)
        levels = tuple(
            (float(e), int(g))
            for e, g in zip(
                rng.uniform(-2, 2, n_levels), rng.integers(1, 4, n_levels)
            )
        )
        e = SpectralEnsemble(levels)
        beta = rng.uniform(0.2, 2.0)
        step = 1e-5

        def u_one(b):
            return thermo_spectral(e, b).U

        fd = -(u_one(beta + step) - u_one(beta - step)) / (2 * step)
        assert energy_variance(e, beta) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_relative_rms():
    e1 = spin_ensemble(n=1)
    e4 = spin_ensemble(n=4)
    beta = 0.7
    assert relative_rms(e4, beta) * 2.0 == relative_rms(e1, beta)
    assert relative_rms(SpectralEnsemble(((2.0, 1),)), 1.0) == 0.0
    zero_one = SpectralEnsemble(((0.0, 1), (1.0, 1)), n_particles=1)
    assert relative_rms(zero_one, 0.0) == pytest.approx(1.0, rel=1e-14)
    symmetric = SpectralEnsemble(((-1.0, 1), (1.0, 1)))
    with pytest.raises(ZeroMeanEnergy):
        relative_rms(symmetric, 0.0)


def test_partition_function_factorizes_in_log():
    e = spin_ensemble()
    for n in (2, 3, 7):
        en = SpectralEnsemble(e.levels, n_particles=n)
        beta = 0.9
        direct = math.log(z_spectral(e, beta) ** n)
        # -beta A = N ln Z1
        assert -beta * spectral_grid(en, [beta]).A[0] == pytest.approx(direct, rel=1e-12)


def test_picture_invariance_of_formal_trace():
    # Re Tr exp(-beta H) is invariant under the metric similarity map
    from quatstat import build_metric, inverse

    h = build_toy_hamiltonian(spin_toy(x=2.0))
    metric = build_metric(2.0, 1.0, 0.0)
    beta = 1.1
    rho = bloch_propagator(h, beta)
    conjugated = mat_mul(metric.eta, mat_mul(rho, inverse(metric.eta)))
    assert re_trace(conjugated) == pytest.approx(re_trace(rho), abs=1e-10)
