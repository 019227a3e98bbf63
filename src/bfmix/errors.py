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
    """Overflow or an exhausted search: a Fermi integral that is not
    finite, a Z that is not a number, a Brent call that cannot start or
    does not converge (bfmix.brent), or no result after the bounded
    expansions for Omega_c, the critical N_b or the Thomas-Fermi e_F and
    grid span."""
