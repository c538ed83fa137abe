"""Exception types shared across the library."""


class InvalidParameterError(ValueError):
    """Refused input: a count that is not an integer, or a bad scalar, config line
    or phase query.  The CLI exits 2 on it and on its subclass ``HypothesisError``."""


class WindowCoverageError(RuntimeError):
    """The sampled cloud window does not cover every path tube.

    Raised loudly instead of silently truncating Hamiltonians.
    """


class HypothesisError(InvalidParameterError):
    """A closed-form bound was queried outside its hypothesis region.

    ``condition`` names the failed hypothesis.
    """

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(message or f"hypothesis violated: {condition}")


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
