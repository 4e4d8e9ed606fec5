"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A model parameter or request violates its documented constraints."""


class EnumerationCapError(ConfigError):
    """The torus is too large for a dense enumeration / dense field."""


class NotApplicable(ConfigError):
    """A valid limit-constant query names a method that does not apply to its cell."""


class InvariantViolation(RuntimeError):
    """A hard runtime invariant failed: the re-summation check of ``weights.WeightField``."""


class ManifestError(ValueError):
    """A run manifest failed schema or parameter validation."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")
