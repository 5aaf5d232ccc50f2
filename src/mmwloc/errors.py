"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """A quadrature or series evaluation failed to produce a finite result."""


class ConfigError(ValueError):
    """A configuration file or override could not be parsed."""
