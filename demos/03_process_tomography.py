"""Reconstructing the memory process from 12 synthetic measurements.

Four linearly independent probe polarizations (H, D, R, L), each analyzed
in three bases with two detectors, determine the full Mueller matrix by a
linear solve.  The structured memory form then yields the efficiency, the
damping factor and the rotation angle, and with them the average process
fidelity.  The four probes travel as one stack of states, so each step
below handles all of them in one call.
"""

import numpy as np

from becmemory import (INPUT_LABELS, MemoryParams, apply_detector_noise,
                       apply_mueller, average_process_fidelity,
                       canonical_inputs, measure, memory_mueller,
                       process_tomography, state_tomography,
                       extract_memory_params, BASIS_HV, BASIS_DA, BASIS_RL)

true_params = MemoryParams(eta=0.35, alpha=0.92, phi=0.6)
process = memory_mueller(true_params)
inputs = canonical_inputs()
rng = np.random.default_rng(7)

print("true parameters:", true_params)
print("probe inputs:", ", ".join(INPUT_LABELS))
print(f"input-set condition number: {np.linalg.cond(inputs.as_array()):.2f}")
for sigma in (0.0, 0.02):
    stored = apply_mueller(process, inputs)
    readings = {}
    for key, basis in (("HV", BASIS_HV), ("DA", BASIS_DA),
                       ("RL", BASIS_RL)):
        pair = np.array(measure(stored, basis))     # (port, input)
        if sigma > 0:
            pair = apply_detector_noise(pair, rng, sigma)
        readings[key] = (pair[0], pair[1])
    outputs = state_tomography(readings).stokes
    mueller = process_tomography(inputs, outputs)
    params, residual = extract_memory_params(mueller)
    label = "noiseless" if sigma == 0 else f"{sigma:.0%} detector noise"
    print(f"\nreconstruction with {label}:")
    print(f"  eta = {params.eta:.4f}, alpha = {params.alpha:.4f}, "
          f"phi = {params.phi:.4f} rad")
    print(f"  residual vs structured form: {residual:.2e}")
    print(f"  average process fidelity <F> = "
          f"{average_process_fidelity(params.alpha):.4f}")
