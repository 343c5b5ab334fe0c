"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to meet its tolerance."""


class ConfigError(ValueError):
    """A run configuration is malformed or violates a documented constraint."""
