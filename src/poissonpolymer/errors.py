"""Exception types shared across the library."""


class InvalidParameterError(ValueError):
    """A scalar argument violates its precondition (dimension, intensity, ...)."""


class WindowCoverageError(RuntimeError):
    """The sampled cloud window does not cover every path tube.

    Raised loudly instead of silently truncating Hamiltonians.
    """


class HypothesisError(ValueError):
    """A closed-form bound was queried outside its hypothesis region.

    ``condition`` names the failed hypothesis.
    """

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(message or f"hypothesis violated: {condition}")


class InvalidQueryError(ValueError):
    """A phase query is inconsistent with the supplied critical point."""


class NumericError(RuntimeError):
    """A numeric routine failed (e.g. root bracketing found no sign change)."""


class InvariantViolationError(RuntimeError):
    """A per-configuration exact inequality failed during an experiment.

    Carries the master seed and replicate index so the offending
    configuration can be replayed.
    """

    def __init__(self, message: str, seed: int | None = None,
                 replicate: int | None = None):
        self.seed = seed
        self.replicate = replicate
        if seed is not None:
            message += f" [seed={seed}, replicate={replicate}]"
        super().__init__(message)


class ConfigError(ValueError):
    """A run configuration is malformed (unknown key, bad value, ...)."""
