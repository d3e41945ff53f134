import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.special import xlogy as scipy_xlogy

from quatstat import (
    ConstraintViolation,
    EnergyOutOfRange,
    I,
    InfiniteTemperature,
    J,
    QMatrix,
    QubitModelParams,
    Quaternion,
    SpinModelParams,
    TwoLevelGas,
    build_metric,
    build_qubit_model,
    build_spin_model,
    dagger,
    entropy_stirling,
    fro_norm,
    inverse_temperature,
    is_quasi_anti_hermitian,
    log_multiplicity,
    mat_vec,
    occupation_numbers,
    printed_spin_entropy,
    printed_spin_entropy_combinatorial,
    printed_spin_internal_energy,
    printed_spin_inverse_temperature,
    printed_spin_log_multiplicity,
    qinv,
    qmul,
    spin_eigenvectors,
    spin_entropy_per_particle,
    spin_mean_energy,
    spin_negative_temperature,
    standard_spectrum,
    temperature,
    thermo_spectral,
    vec_inner,
    vec_scale_right,
)
from quatstat.models import lgamma, xlogy

GAS = TwoLevelGas(n_particles=10, e_plus=1.0, e_minus=-1.0)


# -- occupation and multiplicity ----------------------------------------------


def test_occupation_numbers():
    assert occupation_numbers(GAS, GAS.e_min) == (0.0, 10.0)
    assert occupation_numbers(GAS, GAS.midpoint) == (5.0, 5.0)
    assert occupation_numbers(GAS, 4.0) == (7.0, 3.0)
    n_plus, n_minus = occupation_numbers(GAS, 3.3)
    assert n_plus + n_minus == 10.0
    with pytest.raises(EnergyOutOfRange):
        occupation_numbers(GAS, 11.0)


def test_log_multiplicity():
    assert log_multiplicity(GAS, GAS.e_min) == 0.0
    four = TwoLevelGas(n_particles=4, e_plus=1.0, e_minus=-1.0)
    assert log_multiplicity(four, 0.0) == pytest.approx(math.log(6.0), rel=1e-14)
    big = TwoLevelGas(n_particles=1000, e_plus=1.0, e_minus=-1.0)
    assert log_multiplicity(big, 0.0) == pytest.approx(1000 * math.log(2), rel=0.01)


def test_log_multiplicity_matches_binomial_for_integers():
    gas = TwoLevelGas(n_particles=12, e_plus=1.0, e_minus=0.0)
    for occupied in range(13):
        energy = float(occupied)
        exact = (
            gammaln(13.0) - gammaln(occupied + 1.0) - gammaln(12.0 - occupied + 1.0)
        )
        assert log_multiplicity(gas, energy) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("n", [10, 100, 1000, 10**6])
def test_lgamma_multiplicities_stay_near_scipys_gammaln(n):
    # math.lgamma and scipy's gammaln differ in the last bits; bound the gap
    # by 8 ulp of ln N!, the largest of the three terms
    bound = 8 * math.ulp(math.lgamma(n + 1.0))
    gas = TwoLevelGas(n_particles=n, e_plus=1.0, e_minus=-1.0)
    for energy in np.linspace(gas.e_min, gas.e_max, 2001).tolist():
        n_plus, n_minus = occupation_numbers(gas, energy)
        want = gammaln(n + 1.0) - gammaln(n_plus + 1.0) - gammaln(n_minus + 1.0)
        assert abs(log_multiplicity(gas, energy) - want) <= bound, energy
    omega, v = 2.0, 0.5
    for energy in np.linspace(n * (omega / 2 - v), n * (omega / 2 + v), 2001).tolist():
        n_minus = -(energy - n * (omega / 2 + v)) / (2 * v)
        n_plus = (energy - n * (omega / 2 - v)) / (2 * v)
        want = (gammaln(n + 1.0) - gammaln(max(n_minus, 0.0) + 1.0)
                - gammaln(max(n_plus, 0.0) + 1.0))
        got = printed_spin_log_multiplicity(omega, v, energy, n)
        assert abs(got - want) <= bound, energy


def test_lgamma_past_the_float_range_is_gammalns_inf():
    assert lgamma(3.5) == math.lgamma(3.5)
    assert lgamma(1e306) == gammaln(1e306) == math.inf
    huge = TwoLevelGas(n_particles=10**306, e_plus=1.0, e_minus=-1.0)
    assert math.isnan(log_multiplicity(huge, huge.midpoint))
    assert math.isnan(printed_spin_log_multiplicity(2.0, 0.5, 1e306, 10**306))


# -- entropy --------------------------------------------------------------------


def test_xlogy_is_scipys_bit_for_bit():
    tiny = 5e-324  # the smallest subnormal
    edges = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, tiny, -tiny,
             2.2250738585072014e-308 / 3, 0.5, 2.0, 1e308]
    rng = np.random.default_rng(20261018)
    xs = rng.standard_normal(100_000) * 10.0 ** rng.integers(-320, 300, 100_000)
    ys = rng.standard_normal(100_000) * 10.0 ** rng.integers(-320, 300, 100_000)
    pairs = [(x, y) for x in edges for y in edges] + list(zip(xs.tolist(), ys.tolist()))
    for x, y in pairs:
        got, want = xlogy(x, y), float(scipy_xlogy(x, y))
        if math.isnan(want):
            assert math.isnan(got), (x, y)
        else:
            # the packed bytes tell -0.0 from 0.0
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x, y)


def test_entropy_midpoint_and_edges():
    n, k = 1000, 1.0
    gas = TwoLevelGas(n_particles=n, e_plus=1.0, e_minus=-1.0)
    assert entropy_stirling(gas, gas.midpoint, k) == pytest.approx(
        n * k * math.log(2), rel=1e-12
    )
    assert entropy_stirling(gas, gas.e_min, k) == 0.0
    assert entropy_stirling(gas, gas.e_max, k) == 0.0


def test_entropy_stirling_vs_exact_multiplicity():
    gas = TwoLevelGas(n_particles=1000, e_plus=1.0, e_minus=-1.0)
    for energy in np.linspace(gas.e_min * 0.8, gas.e_max * 0.8, 9):
        stirling = entropy_stirling(gas, energy)
        exact = log_multiplicity(gas, energy)
        assert stirling == pytest.approx(exact, rel=0.01)


def test_entropy_concave_and_symmetric():
    gas = TwoLevelGas(n_particles=50, e_plus=1.5, e_minus=-0.5)
    grid = np.linspace(gas.e_min, gas.e_max, 41)
    values = [entropy_stirling(gas, e) for e in grid]
    assert max(values) == pytest.approx(50 * math.log(2), rel=1e-12)
    second_diff = np.diff(values, 2)
    assert np.all(second_diff < 0)
    for delta in (0.3, 5.0, 11.0):
        assert entropy_stirling(gas, gas.midpoint + delta) == pytest.approx(
            entropy_stirling(gas, gas.midpoint - delta), rel=1e-12
        )


# -- temperature ------------------------------------------------------------------


def test_temperature_signs_and_midpoint():
    just_below = GAS.midpoint - 1e-6
    just_above = GAS.midpoint + 1e-6
    assert temperature(GAS, just_below) > 1e4
    assert temperature(GAS, just_above) < -1e4
    with pytest.raises(InfiniteTemperature):
        temperature(GAS, GAS.midpoint)


def test_temperature_endpoint_limits():
    bottom = temperature(GAS, GAS.e_min)
    top = temperature(GAS, GAS.e_max)
    assert bottom == 0.0 and math.copysign(1.0, bottom) == 1.0
    assert top == 0.0 and math.copysign(1.0, top) == -1.0


def test_temperature_magnitude_decreases_above_midpoint():
    grid = np.linspace(GAS.midpoint + 0.5, GAS.e_max - 0.5, 15)
    magnitudes = [abs(temperature(GAS, e)) for e in grid]
    assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))


def test_inverse_temperature_is_entropy_derivative():
    rng = np.random.default_rng(21)
    for _ in range(10):
        energy = rng.uniform(GAS.e_min + 1.0, GAS.e_max - 1.0)
        if abs(energy - GAS.midpoint) < 0.2:
            continue
        step = 1e-6 * (GAS.e_max - GAS.e_min)
        fd = (
            entropy_stirling(GAS, energy + step) - entropy_stirling(GAS, energy - step)
        ) / (2 * step)
        assert inverse_temperature(GAS, energy) == pytest.approx(fd, rel=1e-6)


# -- spin model --------------------------------------------------------------------


def test_build_spin_model_energies():
    h, metric, ensemble = build_spin_model(SpinModelParams(omega=2.0, v=0.5, x=1.0))
    assert [e for e, _ in ensemble.levels] == pytest.approx([0.5, 1.5], abs=1e-10)
    assert all(g == 1 for _, g in ensemble.levels)
    assert is_quasi_anti_hermitian(h, metric)


def test_build_spin_model_metric_matrix():
    x = 3.0
    _, metric, _ = build_spin_model(SpinModelParams(omega=2.0, v=0.5, x=x))
    z1, _ = metric.eta.complex_pair()
    np.testing.assert_allclose(z1, np.diag([x * x, 1.0]), atol=1e-12)


def test_build_spin_model_unperturbed_limit():
    p = SpinModelParams(omega=2.0, v=1e-12, x=1.0)
    h, _, ensemble = build_spin_model(p)
    assert [e for e, _ in ensemble.levels] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert abs(h.entry(0, 1)) < 1e-11 and abs(h.entry(1, 0)) < 1e-11


def test_build_spin_model_levels_are_the_closed_form_for_strong_potentials():
    # v far above omega/2: the lower level omega/2 - v is negative
    rng = np.random.default_rng(41)
    for _ in range(200):
        omega = rng.uniform(0.1, 3.0)
        v, x = omega * rng.uniform(8.0, 100.0), rng.uniform(0.5, 2.0)
        _, _, ensemble = build_spin_model(SpinModelParams(omega=omega, v=v, x=x))
        assert ensemble.levels == ((omega / 2 - v, 1), (omega / 2 + v, 1))


def test_spin_eigenvector_relation_with_rescaling():
    p = SpinModelParams(omega=2.0, v=0.5, x=2.0)
    h, _, _ = build_spin_model(p)
    psi_plus, psi_minus, phi_plus, phi_minus = spin_eigenvectors(p)
    for psi, energy in ((psi_plus, 1.5), (psi_minus, 0.5)):
        # an arbitrary right rescaling is an equally good representative,
        # with the eigenvalue conjugated into the same class
        q = Quaternion(0.3, -0.2, 0.8, 0.1)
        scaled = vec_scale_right(psi, q)
        lam = qmul(qinv(q), qmul(I * energy, q))
        lhs = mat_vec(h, scaled)
        rhs = vec_scale_right(scaled, lam)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-10
    # biorthonormality of the dual pair
    assert vec_inner(phi_plus, psi_plus).isclose(Quaternion(1.0), tol=1e-12)
    assert abs(vec_inner(phi_plus, psi_minus)) < 1e-12
    assert abs(vec_inner(phi_minus, psi_plus)) < 1e-12


def test_spin_standard_spectrum_folds_sign():
    h, _, _ = build_spin_model(SpinModelParams(omega=2.0, v=1.5, x=1.0))
    reps = sorted(lam.imag for lam, _ in standard_spectrum(h))
    assert reps == pytest.approx([0.5, 2.5], abs=1e-10)


def test_spin_spectral_thermodynamics_oracle():
    omega, v = 2.0, 0.5
    _, _, ensemble = build_spin_model(SpinModelParams(omega=omega, v=v, x=1.0))
    for beta in (0.3, 1.0, 2.4):
        report = thermo_spectral(ensemble, beta)
        assert report.U == pytest.approx(spin_mean_energy(omega, v, beta), rel=1e-12)
        assert report.S == pytest.approx(
            spin_entropy_per_particle(v, beta), rel=1e-10
        )


def test_spin_negative_temperature_gas():
    p = SpinModelParams(omega=2.0, v=0.5, x=1.0)
    gas = spin_negative_temperature(p, n_particles=10)
    assert (gas.e_plus, gas.e_minus) == (1.5, 0.5)
    assert entropy_stirling(gas, gas.e_min) == 0.0
    with pytest.raises(InfiniteTemperature):
        temperature(gas, 10 * p.omega / 2)


def test_spin_display_forms_match_generic_machinery():
    omega, v, n = 2.0, 0.5, 10
    gas = spin_negative_temperature(SpinModelParams(omega, v, 1.0), n)
    for energy in np.linspace(gas.e_min + 0.4, gas.e_max - 0.4, 7):
        assert printed_spin_log_multiplicity(omega, v, energy, n) == pytest.approx(
            log_multiplicity(gas, energy), rel=1e-12
        )
        assert printed_spin_entropy_combinatorial(
            omega, v, energy, n
        ) == pytest.approx(entropy_stirling(gas, energy), rel=1e-12)
        if abs(energy - gas.midpoint) > 1e-9:
            assert printed_spin_inverse_temperature(
                omega, v, energy, n
            ) == pytest.approx(inverse_temperature(gas, energy), rel=1e-12)


def test_spin_display_internal_energy_disagrees_with_spectral_path():
    # the display mixes a trigonometric term into a hyperbolic expression;
    # the spectral path is the oracle and the two visibly part ways
    omega, v, beta = 2.0, 0.5, 1.0
    display = printed_spin_internal_energy(omega, v, beta)
    oracle = spin_mean_energy(omega, v, beta)
    assert abs(display - oracle) > 0.05
    display_s = printed_spin_entropy(omega, v, beta)
    oracle_s = spin_entropy_per_particle(v, beta)
    assert abs(display_s - oracle_s) > 0.05


# -- qubit model --------------------------------------------------------------------


def test_qubit_model_phase_independent_spectrum():
    for phi in np.linspace(0.0, 2 * math.pi, 20):
        h, metric, ensemble = build_qubit_model(QubitModelParams(phi=float(phi)))
        energies = sorted(e for e, _ in ensemble.levels)
        assert energies == pytest.approx([0.0, 2.0], abs=1e-10)
        assert fro_norm(h + dagger(h)) <= 1e-12


def test_qubit_anti_hermitian_under_any_diagonal_metric():
    h, _, _ = build_qubit_model(QubitModelParams(phi=1.3))
    rng = np.random.default_rng(22)
    for _ in range(5):
        alpha, gamma = rng.uniform(0.2, 3.0, size=2)
        metric = build_metric(math.sqrt(alpha), math.sqrt(gamma), 0.0)
        assert is_quasi_anti_hermitian(h, metric)


def test_qubit_partition_function():
    from quatstat import z_spectral

    _, _, ensemble = build_qubit_model(QubitModelParams())
    for beta in (0.2, 1.0, 3.5):
        assert z_spectral(ensemble, beta) == pytest.approx(
            1.0 + math.exp(-2.0 * beta), rel=1e-12
        )


def test_two_level_gas_validation():
    with pytest.raises(ConstraintViolation):
        TwoLevelGas(n_particles=0, e_plus=1.0, e_minus=0.0)
    with pytest.raises(ConstraintViolation):
        TwoLevelGas(n_particles=5, e_plus=0.0, e_minus=0.0)
