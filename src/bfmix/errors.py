"""Exception types shared across the package.

Three failure classes map onto the CLI exit codes: configuration problems
(exit 1), domain violations on otherwise valid configs (also exit 1, they
are a kind of bad input), and numerical failures such as a root bracket
that never produces a sign change (exit 2).
"""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input (bad key, bad units,
    mutually exclusive fields supplied together)."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation
    (negative fugacity, z > 1 for a Bose function, omega <= 0, ...)."""


class NumericError(RuntimeError):
    """A numeric failure on a valid input, raised for:

    * a Fermi integral that is not finite, or an infinite phase-space
      density given to the fugacity inversion (bfmix.specfun);
    * a stability determinant Z that is not a number;
    * a Brent call that cannot start or does not converge (bfmix.brent);
    * zero-T numbers beyond float range: a trap's K, kappa N_b (a_b /
      a_f)^3 or rho, or a coupling's c or Omega_c bracket end;
    * a phase-space density beyond float range (bfmix.finite_temperature);
    * a critical boson number beyond 2^60;
    * a Thomas-Fermi fermion density or cloud radius beyond float
      range, a grid with no node below e_F, or Newton steps on the
      Simpson count that stop more than 1e-12 N_f off N_f."""
