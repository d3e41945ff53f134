"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion (the trailing print summarizes what was established).
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import quatstat as qs
from quatstat.models import negtemp_grid, spin_mean_energy_grid
from quatstat.quaternion import hamilton_product

BASIS = {"1": qs.ONE, "i": qs.I, "j": qs.J, "k": qs.K}
TABLE = {
    ("1", "1"): qs.ONE, ("1", "i"): qs.I, ("1", "j"): qs.J, ("1", "k"): qs.K,
    ("i", "1"): qs.I, ("i", "i"): -qs.ONE, ("i", "j"): qs.K, ("i", "k"): -qs.J,
    ("j", "1"): qs.J, ("j", "i"): -qs.K, ("j", "j"): -qs.ONE, ("j", "k"): qs.I,
    ("k", "1"): qs.K, ("k", "i"): qs.J, ("k", "j"): -qs.I, ("k", "k"): -qs.ONE,
}


def _report(line):
    print(f"PASS {line}")


def test_criterion_01_quaternion_algebra():
    for (left, right), expected in TABLE.items():
        assert qs.qmul(BASIS[left], BASIS[right]) == expected
    rng = np.random.default_rng(101)
    a, b, c = rng.uniform(-1, 1, size=(3, 10_000, 4))
    ab = hamilton_product(a, b)
    np.testing.assert_allclose(
        np.linalg.norm(ab, axis=-1),
        np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1),
        rtol=1e-12,
    )
    lhs = hamilton_product(ab, c)
    rhs = hamilton_product(a, hamilton_product(b, c))
    scale = np.maximum(np.linalg.norm(lhs, axis=-1), 1.0)
    assert np.max(np.linalg.norm(lhs - rhs, axis=-1) / scale) <= 1e-12
    _report("criterion 1: multiplication table exact; norm and associativity "
            "on 10^4 triples at 1e-12")


def test_criterion_02_embedding_homomorphism():
    rng = np.random.default_rng(102)
    for n in (2, 3):
        for _ in range(500):
            a = qs.QMatrix(rng.normal(size=(n, n, 4)))
            b = qs.QMatrix(rng.normal(size=(n, n, 4)))
            residual = np.linalg.norm(
                qs.embed(qs.mat_mul(a, b)) - qs.embed(a) @ qs.embed(b)
            )
            assert residual <= 1e-12 * qs.fro_norm(a) * qs.fro_norm(b)
    _report("criterion 2: embedding homomorphism at 1e-12 on 10^3 random "
            "2x2 and 3x3 matrices")


def _rk4(a, t, steps):
    u = np.eye(a.shape[0], dtype=complex)
    h = t / steps
    for _ in range(steps):
        k1 = a @ u
        k2 = a @ (u + 0.5 * h * k1)
        k3 = a @ (u + 0.5 * h * k2)
        k4 = a @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def test_criterion_03_exponential_vs_rk4():
    rng = np.random.default_rng(103)
    for trial in range(100):
        n = 2 if trial % 2 else 3
        m = qs.QMatrix(rng.normal(size=(n, n, 4)))
        m = m * (rng.uniform(0.2, 2.0) / qs.fro_norm(m))
        got = qs.embed(qs.mat_exp(m, 1.0))
        want = _rk4(qs.embed(m), 1.0, 500)
        assert np.abs(got - want).max() <= 1e-8
    _report("criterion 3: mat_exp matches fixed-step RK4 at 1e-8 for 100 "
            "random matrices with norm <= 2")


def test_criterion_04_spin_spectrum_and_eigenvectors():
    p = qs.SpinModelParams(omega=2.0, v=0.5, x=1.0)
    h, _, ensemble = qs.build_spin_model(p)
    energies = sorted(e for e, _ in ensemble.levels)
    assert abs(energies[0] - 0.5) <= 1e-10 and abs(energies[1] - 1.5) <= 1e-10
    psi_plus, psi_minus, _, _ = qs.spin_eigenvectors(p)
    for psi, energy in ((psi_plus, 1.5), (psi_minus, 0.5)):
        lhs = qs.mat_vec(h, psi)
        rhs = qs.vec_scale_right(psi, qs.I * energy)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-10
        # right-scalar rescaled representatives satisfy the conjugated relation
        q = qs.Quaternion(0.6, 0.1, -0.4, 0.2)
        scaled = qs.vec_scale_right(psi, q)
        lam = qs.qmul(qs.qinv(q), qs.qmul(qs.I * energy, q))
        lhs = qs.mat_vec(h, scaled)
        rhs = qs.vec_scale_right(scaled, lam)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-10
    _report("criterion 4: spin energies {1.5, 0.5} and eigenvector relation "
            "at 1e-10, up to right rescaling")


def test_criterion_05_dyson_order():
    toy = qs.ToyModelParams(
        a=qs.I, b=-1.0 * qs.I, c=qs.J * 0.5, alpha=1.0, gamma=1.0
    )
    h = qs.build_toy_hamiltonian(toy)
    h0 = qs.QMatrix.diag([toy.a, toy.b])
    slope = qs.dyson_convergence_slope(h0, h - h0)
    assert abs(slope - 3.0) <= 0.2
    _report(f"criterion 5: truncation-error slope {slope:.3f} within 3.0 +- 0.2 "
            "over three decades")


def test_criterion_06_slice_consistency(tmp_path, cli_env):
    aE, bE, kappa, beta = 0.8, -0.3, -0.04, 1.2
    sl = qs.EnergySliceParams(aE, bE, kappa)
    h0 = qs.QMatrix.diag([qs.Quaternion(aE), qs.Quaternion(bE)])
    c = 0.2j
    d = kappa / c  # c*d = +kappa: the re-derived coupling sign
    hp = qs.QMatrix.from_complex(np.array([[0, c], [d, 0]]))
    ui = qs.dyson_second_order(h0, hp, beta)
    z_numeric = qs.re_trace(qs.mat_mul(qs.bloch_propagator(h0, beta), ui))
    z_closed = qs.z1_formula(sl, beta, rederived=True)
    assert abs(z_numeric - z_closed) <= 1e-8 + 10.0 * abs(c) ** 3
    # the as-printed branch differs; running the comparison records it
    proc = subprocess.run(
        [sys.executable, "-m", "quatstat.cli", "compare", "--model", "spin",
         "--beta", "0.3:1.5:5"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads((tmp_path / "discrepancies.json").read_text())
    assert any(r["quantity"] == "Z1" for r in records)
    _report("criterion 6: re-derived slice form matches the exact second-order "
            "time-ordered integral at 1e-8; printed-branch deviation logged")


def test_criterion_07_thermodynamic_identities():
    rng = np.random.default_rng(107)

    def check(report, evaluate_u, n):
        t = 1.0 / report.beta
        assert report.A == pytest.approx(
            report.U - t * report.S, rel=1e-6, abs=1e-9
        )
        dt = 1e-5 * t
        fd = (evaluate_u(t + dt) - evaluate_u(t - dt)) / (2 * dt) / n
        assert report.Cv == pytest.approx(fd, rel=1e-6, abs=1e-9)

    closed = 0
    while closed < 100:
        aE, bE = rng.uniform(-1.5, 1.5, size=2)
        if abs(aE - bE) < 0.05:
            continue
        sl = qs.EnergySliceParams(aE, bE, rng.uniform(-0.3, 0.3))
        beta, n = rng.uniform(0.1, 2.5), 4
        try:
            report = qs.thermo_closed_form(sl, beta, n_particles=n)
        except qs.UnphysicalZ:
            continue
        check(report, lambda t: qs.thermo_closed_form(sl, 1.0 / t, n_particles=n).U, n)
        closed += 1

    for _ in range(100):
        n_levels = int(rng.integers(2, 6))
        levels = tuple(
            (float(e), int(g))
            for e, g in zip(rng.uniform(-2, 2, n_levels), rng.integers(1, 4, n_levels))
        )
        ensemble = qs.SpectralEnsemble(levels, n_particles=3)
        beta = rng.uniform(0.1, 2.5)
        report = qs.thermo_spectral(ensemble, beta)
        check(report, lambda t: qs.thermo_spectral(ensemble, 1.0 / t).U, 3)
    _report("criterion 7: A = U - T S and Cv = dU/dT at 1e-6 on 100 closed-form "
            "and 100 spectral points")


def test_criterion_08_fluctuation_dissipation():
    rng = np.random.default_rng(108)
    for _ in range(50):
        n_levels = int(rng.integers(2, 6))
        levels = tuple(
            (float(e), int(g))
            for e, g in zip(rng.uniform(-2, 2, n_levels), rng.integers(1, 4, n_levels))
        )
        ensemble = qs.SpectralEnsemble(levels)
        beta = rng.uniform(0.2, 2.0)
        var = qs.energy_variance(ensemble, beta)
        step = 1e-5
        fd = -(
            qs.thermo_spectral(ensemble, beta + step).U
            - qs.thermo_spectral(ensemble, beta - step).U
        ) / (2 * step)
        assert var == pytest.approx(fd, rel=1e-6, abs=1e-9)
        cv = qs.thermo_spectral(ensemble, beta).Cv
        assert var == pytest.approx(cv / (beta * beta), rel=1e-6, abs=1e-12)
    base = qs.SpectralEnsemble(((0.2, 1), (1.7, 2)), n_particles=5)
    quad = qs.SpectralEnsemble(((0.2, 1), (1.7, 2)), n_particles=20)
    assert qs.relative_rms(quad, 0.9) * 2.0 == qs.relative_rms(base, 0.9)
    _report("criterion 8: energy variance equals -dU/dbeta and k T^2 Cv at 1e-6; "
            "quadrupling N exactly halves the relative r.m.s.")


def test_criterion_09_picture_invariance_and_factorization():
    rng = np.random.default_rng(109)
    for _ in range(100):
        b = qs.QMatrix(rng.normal(size=(2, 2, 4)))
        rho = qs.mat_mul(b, qs.dagger(b))
        metric = qs.build_metric(
            rng.uniform(0.5, 2.0),
            rng.uniform(0.5, 2.0),
            complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
        )
        conjugated = qs.mat_mul(metric.eta, qs.mat_mul(rho, metric.eta_inv))
        assert abs(qs.re_trace(conjugated) - qs.re_trace(rho)) <= 1e-10 * max(
            1.0, abs(qs.re_trace(rho))
        )
    ensemble = qs.SpectralEnsemble(((0.5, 1), (1.5, 1)))
    for n in (2, 3, 7):
        many = qs.SpectralEnsemble(ensemble.levels, n_particles=n)
        beta = 0.9
        direct = math.log(qs.z_spectral(ensemble, beta) ** n)
        log_z = -beta * qs.spectral_grid(many, [beta]).A[0]  # N ln Z1
        assert abs(log_z - direct) <= 1e-12 * max(1.0, abs(direct))
    _report("criterion 9: similarity trace invariance at 1e-10 on 100 pairs; "
            "log-partition additivity at 1e-12")


def test_criterion_10_negative_temperature():
    n = 1000
    gas = qs.TwoLevelGas(n_particles=n, e_plus=1.0, e_minus=-1.0)
    assert qs.entropy_stirling(gas, gas.midpoint) == pytest.approx(
        n * math.log(2), rel=1e-12
    )
    assert qs.entropy_stirling(gas, gas.e_min) == 0.0
    rng = np.random.default_rng(110)
    for _ in range(20):
        energy = rng.uniform(gas.e_min * 0.9, gas.e_max * 0.9)
        if abs(energy - gas.midpoint) < 10.0:
            continue
        step = 1e-6 * (gas.e_max - gas.e_min)
        fd = (
            qs.entropy_stirling(gas, energy + step)
            - qs.entropy_stirling(gas, energy - step)
        ) / (2 * step)
        assert negtemp_grid(gas, [energy])[0][5] == pytest.approx(fd, rel=1e-6)
        assert qs.entropy_stirling(gas, energy) == pytest.approx(
            qs.log_multiplicity(gas, energy), rel=0.01
        )
    assert qs.temperature(gas, gas.midpoint - 1.0) > 0
    assert qs.temperature(gas, gas.midpoint + 1.0) < 0
    omega, v, n_spin = 2.0, 0.5, 10
    spin_gas = qs.spin_negative_temperature(qs.SpinModelParams(omega, v, 1.0), n_spin)
    for energy in np.linspace(spin_gas.e_min + 0.5, spin_gas.e_max - 0.5, 9):
        assert qs.printed_spin_entropy_combinatorial(
            omega, v, energy, n_spin
        ) == pytest.approx(qs.entropy_stirling(spin_gas, energy), rel=1e-12)
        if abs(energy - spin_gas.midpoint) > 1e-9:
            assert qs.printed_spin_inverse_temperature(
                omega, v, energy, n_spin
            ) == pytest.approx(negtemp_grid(spin_gas, [energy])[0][5], rel=1e-12)
    _report("criterion 10: entropy peak N k ln 2 at 1e-12, dS/dE identity at 1e-6, "
            "sign flip, Stirling within 1%, spin forms identical at 1e-12")


def test_criterion_11_qubit_model():
    for phi in np.linspace(0.0, 2 * math.pi, 20):
        h, _, ensemble = qs.build_qubit_model(qs.QubitModelParams(phi=float(phi)))
        energies = sorted(e for e, _ in ensemble.levels)
        assert abs(energies[0]) <= 1e-10 and abs(energies[1] - 2.0) <= 1e-10
        assert qs.fro_norm(h + qs.dagger(h)) <= 1e-12
    _report("criterion 11: qubit energies {2, 0} phase-independent at 1e-10; "
            "anti-Hermiticity residual <= 1e-12")


def test_criterion_12_discrepancy_reproducibility(tmp_path, cli_env):
    omega, v = 2.0, 0.5
    proc = subprocess.run(
        [sys.executable, "-m", "quatstat.cli", "compare", "--model", "spin",
         "--omega", str(omega), "--v", str(v), "--x", "1", "--beta", "0.2:2:10"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads((tmp_path / "discrepancies.json").read_text())
    assert records, "discrepancy log must be non-empty for the spin model"
    quantities = {r["quantity"] for r in records}
    # (a) the coupling-sign branch of the slice closed forms
    assert "Z1" in quantities and "S" in quantities
    # (b) the display forms against the spectral oracle
    assert "U" in quantities and "S_two_level" in quantities
    # the oracle itself is cross-validated between the spectral sum and the
    # closed-form expression re-derived from it
    _, _, ensemble = qs.build_spin_model(qs.SpinModelParams(omega, v, 1.0))
    for record in records:
        if record["quantity"] == "U":
            beta = record["beta"]
            spectral = qs.thermo_spectral(ensemble, beta).U
            formula = spin_mean_energy_grid(omega, v, [beta])[0]
            assert abs(spectral - formula) <= 1e-8
            assert record["derived_value"] == pytest.approx(formula, abs=1e-12)
    _report("criterion 12: compare --model spin reproduces the sign-branch and "
            "display-form findings; oracle routes agree at 1e-8")
