"""Negative temperature in a bounded two-level gas.

Entropy of N particles on two levels grows with total energy up to the
band midpoint (peak value N k ln 2), then falls; its slope 1/T therefore
changes sign at the midpoint. The same machinery drives the spin model
instance through ``quatstat negtemp --model spin``.
"""

import numpy as np

from quatstat import SpinModelParams, spin_negative_temperature
from quatstat.models import negtemp_grid

gas = spin_negative_temperature(SpinModelParams(omega=2.0, v=0.5, x=1.0), 12)
print(f"spin gas: N={gas.n_particles}, levels ({gas.e_minus}, {gas.e_plus})")
print(f"energy band [{gas.e_min}, {gas.e_max}], midpoint {gas.midpoint}")
print(f"entropy peak N ln 2 = {gas.n_particles * np.log(2):.6f}")
print()
print(f"{'E':>6} {'N+':>6} {'S (Stirling)':>13} {'S (exact)':>11} {'T':>12}")
# one call gives every column over the whole energy grid; T is None where
# 1/T is zero
energies = np.linspace(gas.e_min, gas.e_max, 13).tolist()
for energy, n_plus, _, s_model, s_exact, _, t in zip(*negtemp_grid(gas, energies)):
    t_cell = f"{'infinite':>12}" if t is None else f"{t:12.4f}"
    print(f"{energy:6.2f} {n_plus:6.2f} {s_model:13.6f} {s_exact:11.6f} {t_cell}")

print()
print("slope check at a point above the midpoint (negative side):")
energy = gas.midpoint + 2.0
step = 1e-6
_, _, _, s_model, _, inverse, _ = negtemp_grid(gas, [energy - step, energy, energy + step])
fd = (s_model[2] - s_model[0]) / (2 * step)
print(f"  dS/dE by differences: {fd:+.8f}")
print(f"  1/T closed form     : {inverse[1]:+.8f}")
