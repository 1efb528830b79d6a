"""Exception types shared across the package."""


class DualAttackError(Exception):
    """Base class for all package errors."""


class BudgetExceeded(DualAttackError):
    """An enumeration or table would exceed its configured size budget."""


class RankDeficient(DualAttackError):
    """A column selection does not have full rank; resample the partition."""


class DomainError(DualAttackError):
    """An argument is outside the supported domain."""


class EmptySamples(DualAttackError):
    """A statistic was requested over an empty sample set."""


class InconsistentAux(DualAttackError):
    """An auxiliary codeword does not lie in the stated generator row space."""


class ConfigError(DualAttackError):
    """A run configuration file is missing, malformed, or inconsistent."""
