"""Physical constants pinned for bit-reproducible calculator output.

Every dynamics kernel works in natural units (hbar = m = t_P = c = 1) and
has no unit to set; the physical values below are used only by the
collapse-time calculators.
"""

# reduced Planck constant [eV s]
HBAR_EVS = 6.582119569e-16

# Planck time [s]
PLANCK_TIME_S = 5.391247e-44

# speed of light [m/s]
C_M_S = 2.99792458e8
