"""Write-read efficiency versus control power and its optimum.

Storing a pulse trades compression against absorption: weak control light
compresses the pulse into the cloud but narrows the transparency window,
strong control light transmits the full spectrum but lets the pulse escape.
The product of both factors peaks at an intermediate Rabi frequency.
Averaging over the transverse beam profile, which samples the inhomogeneous
optical depth, lowers and shifts the optimum.
"""

import math

import numpy as np

from becmemory import (MediumParams, PulseParams, eta_total, optimize_eta,
                       transverse_average_eta)

TWO_PI = 2.0 * math.pi

medium = MediumParams(atom_number=1.2e6, r_x=7e-6, r_y=25e-6, r_z=25e-6,
                      gamma_total=1.0 / 26e-9, branching_ratio=1.0 / 12.0,
                      lambda_p=795e-9).rescaled_to_depth(127.0)
pulse = PulseParams(tau_p=94e-9, t0=230e-9, waist=8e-6)

print("on-axis factors at a few control powers (t0 = 230 ns):")
print(f"{'MHz':>5} {'eta_comp':>9} {'eta_trans':>9} {'product':>8} "
      f"{'averaged':>9}")
for mhz in (8, 12, 15, 20, 30, 45):
    omega = TWO_PI * mhz * 1e6
    r = eta_total(omega, pulse, medium)
    avg = transverse_average_eta(omega, pulse, medium)
    print(f"{mhz:5.0f} {r.eta_comp:9.4f} {r.eta_trans:9.4f} "
          f"{r.eta_total:8.4f} {avg:9.4f}")

# Locate the peak of the transverse-averaged curve at the reference
# switch-off time by a 1-D optimization (degenerate t0 bounds).
pinned = optimize_eta(medium, pulse, averaged=True,
                      omega_bounds=(TWO_PI * 5e6, TWO_PI * 60e6),
                      t0_bounds=(230e-9, 230e-9), grid_shape=(120, 1))
print(f"\naveraged curve at t0 = 230 ns peaks at "
      f"{pinned.eta:.3f} for Omega_c = 2 pi x "
      f"{pinned.omega_c / TWO_PI / 1e6:.1f} MHz")

# The full 2-D optimization over (Omega_c, t0) does slightly better.
free = optimize_eta(medium, pulse, averaged=True,
                    omega_bounds=(TWO_PI * 5e6, TWO_PI * 60e6),
                    t0_bounds=(0.0, 1e-6), grid_shape=(100, 100))
print(f"free optimum: eta = {free.eta:.3f} at Omega_c = 2 pi x "
      f"{free.omega_c / TWO_PI / 1e6:.1f} MHz, t0 = "
      f"{free.t0 * 1e9:.0f} ns (boundary: {free.on_boundary})")

# Rescaling the pulse maps the optimum exactly: Omega_c -> Omega_c/sqrt(s),
# t0 -> s t0 at unchanged efficiency (vacuum transit neglected).
s = 2.0
wide = PulseParams(tau_p=s * pulse.tau_p, t0=pulse.t0, waist=pulse.waist)
scaled = optimize_eta(medium, wide, averaged=True,
                      omega_bounds=(TWO_PI * 5e6 / math.sqrt(s),
                                    TWO_PI * 60e6 / math.sqrt(s)),
                      t0_bounds=(0.0, s * 1e-6), grid_shape=(100, 100),
                      include_transit=False)
print(f"\npulse twice as long: eta = {scaled.eta:.3f} at 2 pi x "
      f"{scaled.omega_c / TWO_PI / 1e6:.1f} MHz, t0 = "
      f"{scaled.t0 * 1e9:.0f} ns (optimum maps as 1/sqrt(2) and 2x)")
