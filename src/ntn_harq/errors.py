"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument is outside its documented domain."""


class InfeasibleLinkError(RuntimeError):
    """No available repetition count meets the target BLER at this SNR."""


class MinDelayViolationError(RuntimeError):
    """A computed scheduling delay fell below the mandatory minimum."""


class ConfigError(ValueError):
    """A scenario configuration is malformed or inconsistent."""
