"""Modeling toolkit for EIT-based light storage in a Bose-Einstein condensate.

A BEC can store a weak probe pulse, including its polarization, as an atomic
spin wave and retrieve it after a chosen storage time.  This package models
that memory: the Stokes/Poincare description of the polarization and its
Mueller-matrix evolution (Faraday rotation, magnetic-noise dephasing), state
and process tomography, the linear EIT optics of the condensate (slow light,
optical depth, transparency window), the write-read efficiency with its
optimum over control power and its decay during storage, and the curve fits
used to extract the figures of merit.
"""

__version__ = "0.1.0"

from .eit import (CompressionCheck, ControlField, MediumParams,
                  Susceptibility, check_compression_condition, chi0,
                  group_index, group_velocity, im_chi_maxima, optical_depth,
                  pulse_delay, susceptibility, susceptibility_approx,
                  transparency_width)
from .efficiency import (EfficiencyResult, OptimizeEtaResult, PulseParams,
                         bimodal_eta, eta_comp, eta_decay, eta_total,
                         eta_trans, optimize_eta, recoil_sigma_eta,
                         thermal_decay_time, transverse_average_eta)
from .fitting import (DataSeries, FitResult, fit_damped_sinusoid,
                      fit_gaussian_decay, fit_scaled_model)
from .memory import (NOISE_PRESETS, MemoryParams, MuellerMatrix, NoiseModel,
                     apply_detector_noise, apply_mueller,
                     average_process_fidelity, damping_factor,
                     faraday_frequency, memory_mueller, rotation_angle,
                     s1_trace, sample_shots, sigma_alpha_from_noise)
from .polarization import (BASIS_DA, BASIS_HV, BASIS_RL, MeasurementBasis,
                           PoincareVector, StokesVector, fidelity, measure,
                           poincare, stokes_from_intensities)
from .tomography import (INPUT_LABELS, StateTomographyResult,
                         StructureWarning, canonical_inputs,
                         extract_memory_params, process_tomography,
                         state_tomography)

__all__ = [name for name in dir() if not name.startswith("_")]
