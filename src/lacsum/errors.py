"""Exception types shared across the package."""


class LacsumError(ValueError):
    """Base class for all domain errors raised by this package."""


class AliasingError(LacsumError):
    """Grid too coarse to resolve the requested frequency content."""


class DegenerateInputError(LacsumError):
    """Input is structurally valid but makes the requested quantity undefined."""
