"""Partition-function paths of the spin model, side by side.

The same two-level system admits several computational routes to its
partition function, and they do not agree:

* the spectral path sums Boltzmann weights over the real energies
  omega/2 +- v (hyperbolic in beta);
* the formal path traces exp(-beta H) for the anti-Hermitian H itself
  (oscillatory in beta);
* the second-order closed form on the commuting slice comes in two
  coupling-sign conventions ("printed" and "rederived") that differ.

This script prints all of them on one grid. The same table is available
from the command line via ``quatstat compare --model spin``.
"""

import numpy as np

from quatstat import (
    EnergySliceParams,
    QMatrix,
    SpinModelParams,
    bloch_propagator,
    build_spin_model,
    dyson_second_order,
    mat_mul,
    printed_spin_internal_energy,
    re_trace,
    spin_mean_energy,
    thermo_spectral,
    z1_formula,
    z_spectral,
)

omega, v, x = 2.0, 0.5, 1.0
h, metric, ensemble = build_spin_model(SpinModelParams(omega, v, x))
sl = EnergySliceParams.from_spin(omega, v)
h0 = QMatrix.diag([h.entry(0, 0), h.entry(1, 1)])
hp = h - h0

print(f"spin model: omega={omega}, v={v}, x={x}")
print(f"energies: {[e for e, _ in ensemble.levels]}")
print()
print(f"{'beta':>5} {'Z_spectral':>11} {'Z_formal':>11} {'Z1_printed':>11} "
      f"{'Z1_rederived':>13} {'Z1_dyson':>11}")
for beta in np.linspace(0.25, 2.5, 10):
    z_sp = z_spectral(ensemble, beta)
    z_formal = re_trace(bloch_propagator(h, beta))
    z_printed = z1_formula(sl, beta)
    z_rederived = z1_formula(sl, beta, rederived=True)
    ui = dyson_second_order(h0, hp, beta)
    z_dyson = re_trace(mat_mul(bloch_propagator(h0, beta), ui))
    print(f"{beta:5.2f} {z_sp:11.6f} {z_formal:11.6f} {z_printed:11.6f} "
          f"{z_rederived:13.6f} {z_dyson:11.6f}")

print()
print("observations:")
print(" * Z_formal oscillates (cos * cos) while Z_spectral decays (cosh),")
print("   and the second-order Dyson term tracks the formal path to O(v^3);")
print(" * the printed and rederived slice forms differ in the sign of the")
print("   coupling term, the reproducible sign-branch finding.")

print()
print("internal energy per particle at beta = 1:")
beta = 1.0
print(f"  spectral path          : {thermo_spectral(ensemble, beta).U:+.6f}")
print(f"  closed form (rederived): {spin_mean_energy(omega, v, beta):+.6f}")
print(f"  display form           : {printed_spin_internal_energy(omega, v, beta):+.6f}")
print("the display form mixes a trigonometric term into a hyperbolic")
print("expression; the spectral path is the oracle.")
