"""bfmix: stability and phase separation of trapped Bose-Fermi mixtures.

The package decides, for a two-species mixture of bosonic and fermionic
atoms in an isotropic harmonic trap, whether the clouds coexist or phase
separate:

* at zero temperature through variational minimization of Gaussian
  ansatz energies (``zero_temperature``),
* through semiclassical Thomas-Fermi density profiles
  (``thomas_fermi``),
* at finite temperature through the stability matrix of a homogeneous
  mixture and its determinant criterion Z (``finite_temperature``),
* plus deterministic parameter sweeps and figure presets
  (``scan_engine``) and a CSV-emitting command line (``commands``).

Quantum-statistical special functions (Bose g_nu, Fermi f_nu, fugacity
inversion) live in ``specfun``.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, NumericError

__all__ = ["ConfigError", "DomainError", "NumericError", "__version__"]
