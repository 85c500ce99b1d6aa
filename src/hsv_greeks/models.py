"""Model layer: correlation mixing, hybrid model specifications, payoffs.

The dynamics handled by this package are a three-factor system under the
risk-neutral measure

    dS_t = r_t S_t dt + S_t sigma(V_t) dZ^1_t
    dV_t = u(V_t) dt + v(V_t) dZ^2_t
    dr_t = f(r_t) dt + g(r_t) dZ^3_t

with pairwise-correlated drivers Z^1, Z^2, Z^3.  Everything downstream
(path simulation, Malliavin weights) works on the equivalent system driven
by *independent* Brownian motions W^1, W^2, W^3:

    Z^1 = W^1
    Z^2 = rho12 W^1 + mu1 W^2
    Z^3 = rho13 W^1 + mu2 W^2 + mu3 W^3

This module owns that decomposition plus the model/payoff descriptions the
rest of the package consumes.  Each scalar field (``sigma``, ``u``, ``v``,
``f``, ``g`` and their derivatives) is a number, for a constant, or a
function that accepts numpy arrays and evaluates elementwise.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidParams

__all__ = [
    "CorrelationTriple",
    "HestonVasicekParams",
    "InitialState",
    "ModelSpec",
    "Payoff",
    "heston_vasicek_model",
    "black_scholes_degenerate",
    "evaluate_payoff",
]

# What each argument check asks of a value, by the words of its message.  A
# flag is True or False; anything else must first be a number, which a bool
# or text is not, as in the config.  The comparisons refuse nan, inf and an
# integer past the largest double.
_FLAG = "be True or False"
_MAX = sys.float_info.max
_NEEDS = {
    _FLAG: lambda x: x is True or x is False,
    "be finite": lambda x: -_MAX <= x <= _MAX,
    "be > 0": lambda x: 0.0 < x <= _MAX,
    "be >= 0": lambda x: 0.0 <= x <= _MAX,
    "lie strictly in (-1, 1)": lambda x: -1.0 < x < 1.0,
    "be an integer >= 0": lambda x: _integral(x) and x >= 0,
    "be an integer >= 1": lambda x: _integral(x) and x >= 1,
    "be an integer in [0, 2**64)": lambda x: _integral(x) and 0 <= x < 2**64,
}


def _integral(x) -> bool:
    return type(x) is int or isinstance(x, numbers.Integral)


def _require(values, need: str | tuple[str, ...], *names: str) -> None:
    """Refuse, with ``InvalidParams`` naming it, each argument ``names`` of the
    mapping ``values`` (``vars`` of a dataclass, ``locals()`` of a function)
    that does not ``need``: a key of ``_NEEDS``, or a tuple of the texts it
    must be one of.  The only code that decides whether a value is an
    acceptable number, integer, flag or choice."""
    for name in names:
        value = values[name]
        # Choices first: the number check below would call text "not a number".
        if type(need) is tuple:
            # Text only: a one-element array would compare equal to a choice.
            if not (isinstance(value, str) and value in need):
                raise InvalidParams(f"{name} must be one of {need}, got {value!r}", field=name)
            continue
        # Exact float and int first: the numbers ABC check costs far more.
        if not (type(value) in (float, int) or need == _FLAG or (
                isinstance(value, numbers.Real) and not isinstance(value, bool))):
            raise InvalidParams(f"{name} must be a number, got {value!r}", field=name)
        if not _NEEDS[need](value):
            raise InvalidParams(f"{name} must {need}, got {value!r}", field=name)


@dataclass(frozen=True)
class CorrelationTriple:
    """Pairwise correlations (rho12, rho13, rho23) of the drivers Z^1..Z^3.

    Each entry must lie strictly inside (-1, 1).  Whether the triple forms a
    positive semi-definite correlation matrix is decided where
    :class:`ModelSpec` derives its mixing, not here.
    """

    rho12: float
    rho13: float
    rho23: float

    def __post_init__(self):
        _require(vars(self), "lie strictly in (-1, 1)", "rho12", "rho13", "rho23")


class _Mixing(NamedTuple):
    """Loadings (mu1, mu2, mu3) of the independent drivers onto Z^2 and Z^3:
    mu1 scales W^2 in Z^2; mu2 and mu3 scale W^2 and W^3 in Z^3."""

    mu1: float
    mu2: float
    mu3: float


def _mixing_from_correlations(rho: CorrelationTriple) -> _Mixing:
    """The loadings of the correlated drivers ``rho`` onto independent
    Brownian motions:

        mu1 = sqrt(1 - rho12^2)
        mu2 = (rho23 - rho12*rho13) / mu1
        mu3 = sqrt(1 - rho12^2 - rho13^2 - rho23^2
                   + 2*rho12*rho13*rho23) / mu1

    Raises :class:`InvalidParams` with ``field="correlations"`` if the
    radicand under mu3 is negative (the correlation matrix is not PSD) or
    exactly zero (mu3 = 0, the third driver is redundant); the message
    gives the radicand.
    """
    r12, r13, r23 = rho.rho12, rho.rho13, rho.rho23
    mu1 = math.sqrt(1.0 - r12 * r12)
    radicand = 1.0 - r12 * r12 - r13 * r13 - r23 * r23 + 2.0 * r12 * r13 * r23
    if radicand <= 0.0:
        raise InvalidParams("correlation matrix is not positive semi-definite (or mu3 = 0): "
                            f"radicand = {radicand!r}", field="correlations")
    mu2 = (r23 - r12 * r13) / mu1
    mu3 = math.sqrt(radicand) / mu1
    return _Mixing(mu1, mu2, mu3)


def _inverse_loadings(model: ModelSpec) -> tuple[float, float]:
    """Entries (2, 1) and (3, 1) of the inverse of the loading matrix with
    rows (1, 0, 0), (rho12, mu1, 0), (rho13, mu2, mu3), as C, P2 and P3 read them."""
    rho, mu = model.correlations, model.mixing
    return (-rho.rho12 / mu.mu1,
            (rho.rho12 * mu.mu2 - rho.rho13 * mu.mu1) / (mu.mu1 * mu.mu3))


@dataclass(frozen=True)
class HestonVasicekParams:
    """Parameters of the Heston variance / Vasicek rate instance.

    Variance:  u(v) = kappa*(theta - v),  v(v) = sigma_vol*sqrt(v)
    Rate:      f(r) = a*(b - r),          g(r) = k  (constant)
    """

    kappa: float
    theta: float
    sigma_vol: float
    a: float
    b: float
    k: float

    def __post_init__(self):
        _require(vars(self), "be > 0", "kappa", "theta", "sigma_vol", "a", "k")
        _require(vars(self), "be finite", "b")


@dataclass(frozen=True)
class InitialState:
    """Initial point (s0, v0, r0) of the three-factor system."""

    s0: float
    v0: float
    r0: float

    def __post_init__(self):
        _require(vars(self), "be > 0", "s0", "v0")
        _require(vars(self), "be finite", "r0")


# A model field: a number, or an elementwise function of numpy arrays.
Coefficient = float | Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    """Full description of one three-factor model instance.

    Each of the five fields and their derivatives is a number, which the
    engine carries as a number, or a callable taking and returning numpy
    arrays (elementwise); the derivatives are taken as given, not checked
    against the fields.  ``mixing`` is derived from ``correlations`` and
    ``degenerate`` from v and g, so a ``dataclasses.replace`` copy has the
    loadings of its correlations and the flag of its coefficients.
    ``degenerate`` is true when v and g are both the number 0: the
    diffusion matrix is then singular, and operations that would divide by
    v(V_t) or g(r_t) must refuse the model.
    """

    sigma: Coefficient
    u: Coefficient
    v: Coefficient
    f: Coefficient
    g: Coefficient
    sigma_prime: Coefficient
    u_prime: Coefficient
    v_prime: Coefficient
    f_prime: Coefficient
    g_prime: Coefficient
    correlations: CorrelationTriple
    mixing: _Mixing = field(init=False)
    degenerate: bool = field(init=False)
    hv_params: HestonVasicekParams | None = None

    def __post_init__(self):
        object.__setattr__(self, "mixing", _mixing_from_correlations(self.correlations))
        object.__setattr__(self, "degenerate", all(
            not callable(c) and c == 0 for c in (self.v, self.g)))


def heston_vasicek_model(
    params: HestonVasicekParams,
    correlations: CorrelationTriple,
    condition: str = "strict",
) -> ModelSpec:
    """Build the Heston-variance / Vasicek-rate model instance.

    Field functions:

        sigma(v) = sqrt(v)          u(v) = kappa*(theta - v)
        v(v)     = sigma_vol*sqrt(v)
        f(r)     = a*(b - r)        g(r) = k

    The constants g = k, u' = -kappa, f' = -a and g' = 0 are numbers.
    Square-root arguments are floored at zero, so the functions remain
    defined at slightly negative probe values produced by Euler stepping.

    Parameters
    ----------
    params : HestonVasicekParams
    correlations : CorrelationTriple
    condition : {"strict", "feller", "off"}
        Positivity condition the variance parameters must meet:
        ``"strict"`` requires kappa*theta >= sigma_vol^2, ``"feller"``
        requires 2*kappa*theta >= sigma_vol^2 (the classic Feller bound)
        and ``"off"`` requires neither.

    Raises
    ------
    InvalidParams
        On a violated positivity condition, bad inputs, or correlations
        that admit no mixing decomposition (``field`` is ``"correlations"``).
    """
    _require(locals(), ("strict", "feller", "off"), "condition")
    kt = params.kappa * params.theta
    bound = params.sigma_vol**2 if condition == "strict" else 0.5 * params.sigma_vol**2
    if condition != "off" and kt < bound:
        raise InvalidParams(f"variance positivity condition '{condition}' violated: "
                            f"kappa*theta = {kt!r} < required {bound!r}")

    kappa, theta, sigma_vol = params.kappa, params.theta, params.sigma_vol
    a, b, k = params.a, params.b, params.k

    def sigma(v):
        return np.sqrt(np.maximum(v, 0.0))

    def sigma_prime(v):
        return 0.5 / np.sqrt(np.maximum(v, 1e-300))

    return ModelSpec(
        sigma=sigma,
        u=lambda v: kappa * (theta - v),
        v=lambda v: sigma_vol * np.sqrt(np.maximum(v, 0.0)),
        f=lambda r: a * (b - r),
        g=k,
        sigma_prime=sigma_prime,
        u_prime=-kappa,
        v_prime=lambda v: 0.5 * sigma_vol / np.sqrt(np.maximum(v, 1e-300)),
        f_prime=-a,
        g_prime=0.0,
        correlations=correlations,
        hv_params=params,
    )


def black_scholes_degenerate(sigma: float) -> ModelSpec:
    """Build the constant-volatility, constant-rate degenerate instance.

    All variance and rate dynamics are switched off (u = v = f = g = 0, all
    ten fields numbers), so S follows geometric Brownian motion with
    volatility ``sigma`` and the short rate stays at the initial state's
    ``r0``.  The diffusion matrix is
    singular in the V and r directions; weights that divide by v(V_t) or
    g(r_t) are refused downstream via the degeneracy flag.
    """
    _require(locals(), "be > 0", "sigma")
    return ModelSpec(
        sigma=sigma,
        u=0.0,
        v=0.0,
        f=0.0,
        g=0.0,
        sigma_prime=0.0,
        u_prime=0.0,
        v_prime=0.0,
        f_prime=0.0,
        g_prime=0.0,
        correlations=CorrelationTriple(0.0, 0.0, 0.0),
    )


# The first three kinds read a strike.
_PAYOFF_KINDS = ("call", "put", "digital_call", "constant", "identity")


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff Phi(S_T).

    kind: one of ``call``, ``put`` (strike-based), ``digital_call``
    (cash-or-nothing: pays ``level`` when S_T > strike), ``constant``
    (returns ``level``), ``identity`` (returns S_T).  ``strike`` and
    ``level`` must be finite whatever the kind, and ``strike`` > 0 for a
    kind that reads it.
    """

    kind: str
    strike: float = 0.0
    level: float = 1.0

    def __post_init__(self):
        _require(vars(self), _PAYOFF_KINDS, "kind")
        _require(vars(self), "be > 0" if self.kind in _PAYOFF_KINDS[:3] else "be finite",
                 "strike")
        _require(vars(self), "be finite", "level")


def _require_payoff(payoff) -> None:
    """Refuse anything but a :class:`Payoff` with :class:`InvalidParams`."""
    if not isinstance(payoff, Payoff):
        raise InvalidParams(
            f"payoff must be a Payoff, got {type(payoff).__name__}", field="payoff")


def evaluate_payoff(payoff: Payoff, s_t: np.ndarray) -> np.ndarray:
    """Evaluate Phi elementwise on terminal prices ``s_t``.

    Raises
    ------
    InvalidParams
        If ``payoff`` is not a :class:`Payoff`.
    """
    _require_payoff(payoff)
    s_t = np.asarray(s_t, dtype=float)
    if payoff.kind == "call":
        return np.maximum(s_t - payoff.strike, 0.0)
    if payoff.kind == "put":
        return np.maximum(payoff.strike - s_t, 0.0)
    if payoff.kind == "digital_call":
        return np.where(s_t > payoff.strike, payoff.level, 0.0)
    if payoff.kind == "constant":
        return np.full_like(s_t, payoff.level)
    return s_t.copy()
