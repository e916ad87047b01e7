"""Physical constants pinned for bit-reproducible calculator output.

Every dynamics kernel works in natural units (hbar = m = t_P = c = 1) and
has no unit to set; the physical values below are used only by the
collapse-time and horizon-level calculators.
"""

import math

# reduced Planck constant [eV s]
HBAR_EVS = 6.582119569e-16

# Planck constant h = 2*pi*hbar [eV s]
H_EVS = 2.0 * math.pi * HBAR_EVS

# Planck time [s]
PLANCK_TIME_S = 5.391247e-44

# speed of light [m/s]
C_M_S = 2.99792458e8

# electron rest energy m_e c^2 [eV]
ELECTRON_MC2_EV = 0.51099895e6
