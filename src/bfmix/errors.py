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
    * a condensate width start or slope beyond float range;
    * a critical boson number beyond 2^60;
    * a Thomas-Fermi fermion density or cloud radius beyond float
      range, or no e_F between its padded bounds."""
