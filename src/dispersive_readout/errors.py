"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter value violates a model invariant."""


class SingularJacobianError(RuntimeError):
    """The fit Jacobian is rank deficient (a parameter has no influence
    on the model, or two parameters are exactly degenerate), or its normal
    equations cannot be solved in floating point."""


class ConfigError(ValueError):
    """An input file (config, init JSON, data CSV) or an option is invalid.

    Carries the ``reason``, an optional line number of the offending key or
    row in the source file, and optionally the path of that file.
    """

    def __init__(self, message, line=None, path=None):
        self.reason, self.line = message, line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
