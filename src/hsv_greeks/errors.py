"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = ["HsvGreeksError", "InvalidParams", "UnsupportedModel", "NumericalBlowup",
           "NonFiniteEstimate", "InvalidConfig", "DegenerateWeightWarning"]


class HsvGreeksError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(HsvGreeksError, ValueError):
    """A model parameter, state value, or argument violates its contract.

    ``field`` names the dataclass field or argument that was refused, when
    there is one: ``"correlations"`` when they form no positive
    semi-definite matrix.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class UnsupportedModel(HsvGreeksError):
    """An estimator token is undefined on the given model: its weight
    divides by v(V_t) or g(r_t), which are identically zero on a degenerate
    model, or its bump or weight is scaled by a Heston–Vasicek parameter
    the model does not have.  The message names the reason."""


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


class NonFiniteEstimate(InvalidParams):
    """A weighted estimate's samples, value or standard error is not finite,
    as when clamped paths blow its weights up.  ``estimator`` names the
    estimator token, such as ``malliavin:vega_v0``.  It is an
    :class:`InvalidParams` because :class:`GreekEstimate` refuses such a
    value or standard error as one."""

    def __init__(self, estimator: str, detail: str):
        self.estimator = estimator
        super().__init__(f"{estimator} estimate is not finite: {detail}")


class InvalidConfig(HsvGreeksError, ValueError):
    """A run configuration is malformed.  ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"config key '{key}': {message}")


class DegenerateWeightWarning(UserWarning):
    """Issued when safeguarding clamps fired on more than 1% of integrand
    evaluations; the estimate is still returned but should be distrusted."""
