"""Decay of the retrieved energy with storage time.

Perpendicular probe and control beams imprint a differential photon recoil
on the spin wave; combined with the mode filtering of the detection path
this limits the storage lifetime of a pure condensate to about a
millisecond.  An uncondensed fraction decays orders of magnitude faster, on
the thermal coherence time, producing a bimodal decay that settles at the
condensate fraction.
"""

import numpy as np

from becmemory import (DataSeries, bimodal_eta, eta_decay,
                       fit_gaussian_decay, recoil_sigma_eta,
                       thermal_decay_time)

sigma_recoil = recoil_sigma_eta(waist=8e-6, lambda_c=795e-9)
print(f"recoil-limited lifetime for an 8 um probe: "
      f"{sigma_recoil * 1e3:.3f} ms")
print(f"  doubling the waist doubles it: "
      f"{recoil_sigma_eta(16e-6, 795e-9) * 1e3:.3f} ms")

# Round trip through the Gaussian-decay fit with a measured-style lifetime.
sigma_measured = 0.48e-3
t = np.linspace(0, 1.2e-3, 60)
trace = eta_decay(t, 0.15, sigma_measured)
fit = fit_gaussian_decay(DataSeries(t, trace))
print(f"\nGaussian fit of a synthetic decay trace: sigma = "
      f"{fit.params['sigma'] * 1e3:.3f} ms, amplitude = "
      f"{fit.params['amplitude']:.3f}")

# Thermal atoms dephase on the de-Broglie/recoil-velocity time scale.
for t_uk in (0.5, 1.0, 2.0):
    tau = thermal_decay_time(t_uk * 1e-6)
    print(f"thermal coherence estimate at {t_uk:.1f} uK: "
          f"{tau * 1e6:.1f} us")

# Bimodal decay: fast thermal drop to a plateau at the condensate fraction.
thermal = thermal_decay_time(1e-6)
times_ms = np.array([0.0, 0.01, 0.05, 0.1, 0.15])
print("\nnormalized efficiency for different condensate fractions:")
print("   t(ms)" + "".join(f"  fc={fc:.1f}" for fc in (0.3, 0.6, 0.9)))
for tm in times_ms:
    row = [float(bimodal_eta(tm * 1e-3, fc, sigma_recoil, thermal))
           for fc in (0.3, 0.6, 0.9)]
    print(f"  {tm:6.2f}" + "".join(f"  {v:6.3f}" for v in row))
