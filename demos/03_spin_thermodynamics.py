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
    build_spin_model,
    closed_form_grid,
    dyson_trace,
    formal_trace,
    spectral_grid,
    z_spectral_grid,
)
from quatstat.models import printed_spin_grid, spin_mean_energy_grid

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
# each path is one call over the whole grid
betas = np.linspace(0.25, 2.5, 10).tolist()
columns = (
    z_spectral_grid(ensemble, betas),
    formal_trace(h, betas),
    closed_form_grid(sl, betas, quantities=()).Z1,
    closed_form_grid(sl, betas, rederived=True, quantities=()).Z1,
    dyson_trace(h0, hp, betas),
)
for beta, z_sp, z_formal, z_printed, z_rederived, z_dyson in zip(betas, *columns):
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
beta = [1.0]
print(f"  spectral path          : {spectral_grid(ensemble, beta).U[0]:+.6f}")
print(f"  closed form (rederived): {spin_mean_energy_grid(omega, v, beta)[0]:+.6f}")
print(f"  display form           : {printed_spin_grid(omega, v, beta)['U'][0]:+.6f}")
print("the display form mixes a trigonometric term into a hyperbolic")
print("expression; the spectral path is the oracle.")
