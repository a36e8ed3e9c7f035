"""Reconstructing the memory process from 12 synthetic measurements.

Four linearly independent probe polarizations (H, D, R, L), each analyzed
in three bases with two detectors, determine the full Mueller matrix by a
linear solve.  The structured memory form then yields the efficiency, the
damping factor and the rotation angle, and with them the average process
fidelity.  The four probes travel as one stack of states, so each step
below handles all of them in one call, and the two noise levels below are
reconstructed together as a stack of two experiments.
"""

import numpy as np

from becmemory import (INPUT_LABELS, MemoryParams, apply_detector_noise,
                       apply_mueller, average_process_fidelity,
                       canonical_inputs, measure, memory_mueller,
                       process_tomography, state_tomography,
                       extract_memory_params)

true_params = MemoryParams(eta=0.35, alpha=0.92, phi=0.6)
process = memory_mueller(true_params)
inputs = canonical_inputs()
rng = np.random.default_rng(7)
sigmas = (0.0, 0.02)

print("true parameters:", true_params)
print("probe inputs:", ", ".join(INPUT_LABELS))
print(f"input-set condition number: {np.linalg.cond(inputs.as_array()):.2f}")
stored = apply_mueller(process, inputs)
ports = measure(stored)                         # (input, analyzer, port)
readings = np.stack([ports, apply_detector_noise(ports, rng, sigmas[1])])
outputs = state_tomography(readings).stokes     # fields of shape (level, input)
mueller = process_tomography(inputs, outputs)   # (level, 4, 4), one solve
params, residuals = extract_memory_params(mueller)
fidelities = average_process_fidelity(params.alpha)
for j, sigma in enumerate(sigmas):
    label = "noiseless" if sigma == 0 else f"{sigma:.0%} detector noise"
    print(f"\nreconstruction with {label}:")
    print(f"  eta = {params.eta[j]:.4f}, alpha = {params.alpha[j]:.4f}, "
          f"phi = {params.phi[j]:.4f} rad")
    print(f"  residual vs structured form: {residuals[j]:.2e}")
    print(f"  average process fidelity <F> = {fidelities[j]:.4f}")
