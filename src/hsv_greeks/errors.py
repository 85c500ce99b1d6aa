"""Exception and warning types shared across the package."""

from __future__ import annotations


class HsvGreeksError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(HsvGreeksError, ValueError):
    """A model parameter, state value, or argument violates its contract.

    ``field`` names the dataclass field that was refused, when there is one.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class NonPositiveSemiDefinite(InvalidParams):
    """The requested correlation triple does not form a PSD correlation matrix.

    Carries the offending radicand 1 - rho12^2 - rho13^2 - rho23^2
    + 2*rho12*rho13*rho23 in ``radicand``.
    """

    def __init__(self, radicand: float):
        self.radicand = radicand
        super().__init__(
            f"correlation matrix is not positive semi-definite (or mu3 = 0): "
            f"radicand = {radicand!r}"
        )


class DegenerateModel(HsvGreeksError):
    """An operation needs a diffusion coefficient that is identically zero."""


class UnsupportedModel(HsvGreeksError):
    """The operation is only defined for a specific model instance."""


class NumericalBlowup(HsvGreeksError, ArithmeticError):
    """A simulated state left the trusted range or became non-finite."""

    def __init__(self, path_index: int, step_index: int, detail: str = ""):
        self.path_index = path_index
        self.step_index = step_index
        self.detail = detail
        msg = f"state blow-up at path {path_index}, step {step_index}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class EmptyInput(HsvGreeksError, ValueError):
    """An estimator was handed zero paths."""


class InvalidBump(InvalidParams):
    """A finite-difference bump specification violates its contract."""


class InvalidConfig(HsvGreeksError, ValueError):
    """A run configuration is malformed.  ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"config key '{key}': {message}")


class DegenerateWeightWarning(UserWarning):
    """Issued when safeguarding clamps fired on more than 1% of integrand
    evaluations; the estimate is still returned but should be distrusted."""
