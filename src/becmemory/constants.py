"""Atomic and fundamental constants for the rubidium D1 storage system.

The fundamental constants are the exact SI-2019 values, written out so that
importing them costs nothing.
"""

import math

SPEED_OF_LIGHT = 299792458.0                # m/s
HBAR = 6.62607015e-34 / (2.0 * math.pi)     # J s
BOLTZMANN = 1.380649e-23                    # J/K

# Bohr magneton expressed as a frequency per magnetic field, mu_B / h in Hz/G;
# an ordinary frequency, so omega_F carries an explicit 2*pi.
MU_B_OVER_H = 1.40e6

# Lande factor of the storage ground states and the Zeeman-number difference
# of the two spin states.
G_F = 0.5
DELTA_MF = 2.0

# Mass of one 87Rb atom in kg.
RB87_MASS = 1.4447e-25

# D1 probe/control wavelength in m.
D1_WAVELENGTH = 795e-9
