"""Physical constants (SI) used throughout the package.

CODATA values as literals, equal to the floats scipy.constants carries
(a test pins them).  h, k_B are exact in the 2019 SI; hbar is h / 2 pi
rounded to double precision; the atomic mass unit is CODATA 2022.
"""

h = 6.62607015e-34               # J s
hbar = 1.0545718176461565e-34    # J s
k_B = 1.380649e-23               # J / K
atomic_mass = 1.66053906892e-27  # kg, unified atomic mass unit
pi = 3.141592653589793
