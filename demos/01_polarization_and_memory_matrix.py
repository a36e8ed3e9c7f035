"""Stokes vectors, projective measurements and the memory Mueller matrix.

The storage process acts on the polarization as an efficiency scale, a
Faraday rotation about the hold-field axis, and a damping of the equatorial
components.  This walkthrough builds the matrix, applies it to a few input
states and evaluates the state fidelity of the retrieved light.
"""

import math

from becmemory import (ANALYZERS, MemoryParams, StokesVector, apply_mueller,
                       average_process_fidelity, fidelity, measure,
                       memory_mueller, poincare, state_tomography)

# A diagonal polarization state measured in the three analyzer settings.
diag = StokesVector(1.0, 0.0, 1.0, 0.0)
print("input state:", diag)
readings = measure(diag)    # (analyzer, port)
for key, (plus, minus) in zip(ANALYZERS, readings):
    print(f"  {key[0]}/{key[1]} ports: {plus:.3f} / {minus:.3f}")

# Reassembling the six intensities reproduces the state.
print("reconstructed:", state_tomography(readings).stokes.as_array())

# The memory: 40% efficiency, mild dephasing, a 0.8 rad Faraday rotation.
process = memory_mueller(MemoryParams(eta=0.4, alpha=0.9, phi=0.8))
print("\nmemory matrix:")
print(process.m.round(4))

for label, state in (("H", StokesVector(1, 1, 0, 0)),
                     ("D", StokesVector(1, 0, 1, 0)),
                     ("R", StokesVector(1, 0, 0, 1))):
    out = apply_mueller(process, state)
    f = fidelity(poincare(state), poincare(out))
    print(f"input {label}: retrieved {out.as_array().round(4)}, "
          f"fidelity {f:.4f}")

# Circular light is an eigenstate of the rotation, linear light is not;
# averaging the fidelity over all pure inputs after compensating the
# rotation gives (2 + alpha)/3.
print("\naverage process fidelity at alpha = 0.9:",
      f"{average_process_fidelity(0.9):.4f}")
print("fully dephased floor:",
      f"{average_process_fidelity(0.0):.4f} (= 2/3)")
print("half-turn rotation:",
      apply_mueller(memory_mueller(MemoryParams(1, 1, math.pi)),
                    StokesVector(1, 1, 0, 0)).as_array().round(12))
