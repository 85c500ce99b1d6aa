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

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParams, NonPositiveSemiDefinite

__all__ = [
    "CorrelationTriple",
    "MixingCoefficients",
    "HestonVasicekParams",
    "BlackScholesParams",
    "InitialState",
    "ModelSpec",
    "Payoff",
    "PAYOFF_KINDS",
    "mixing_from_correlations",
    "heston_vasicek_model",
    "black_scholes_degenerate",
    "evaluate_payoff",
]

logger = logging.getLogger(__name__)

# What each parameter check asks of a finite number, by the words of its message.
_NEEDS = {
    "be finite": lambda x: True,
    "be > 0": lambda x: x > 0.0,
    "be >= 0": lambda x: x >= 0.0,
    "lie strictly in (-1, 1)": lambda x: -1.0 < x < 1.0,
}


def _require(obj, need: str, *names: str) -> None:
    """Refuse, with :class:`InvalidParams` naming the field, each of the
    fields ``names`` of ``obj`` that is no number (a bool or text is none, as
    in the config), is not finite, or does not meet ``need`` (a key of
    ``_NEEDS``)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidParams(f"{name} must be a number, got {value!r}", field=name)
        if not (math.isfinite(value) and _NEEDS[need](value)):
            raise InvalidParams(f"{name} must {need}, got {value!r}", field=name)


@dataclass(frozen=True)
class CorrelationTriple:
    """Pairwise correlations (rho12, rho13, rho23) of the drivers Z^1..Z^3.

    Each entry must lie strictly inside (-1, 1).  Whether the triple forms a
    positive semi-definite correlation matrix is decided by
    :func:`mixing_from_correlations`, not here.
    """

    rho12: float
    rho13: float
    rho23: float

    def __post_init__(self):
        _require(self, "lie strictly in (-1, 1)", "rho12", "rho13", "rho23")


@dataclass(frozen=True)
class MixingCoefficients:
    """Loadings (mu1, mu2, mu3) of the independent drivers onto Z^2 and Z^3.

    mu1 scales W^2 in Z^2; mu2 and mu3 scale W^2 and W^3 in Z^3.  Both mu1
    and mu3 are strictly positive for any usable decomposition.
    """

    mu1: float
    mu2: float
    mu3: float

    def __post_init__(self):
        _require(self, "be > 0", "mu1")
        _require(self, "be finite", "mu2")
        _require(self, "be > 0", "mu3")


def mixing_from_correlations(rho: CorrelationTriple) -> MixingCoefficients:
    """Decompose correlated drivers onto independent Brownian motions.

    Computes

        mu1 = sqrt(1 - rho12^2)
        mu2 = (rho23 - rho12*rho13) / mu1
        mu3 = sqrt(1 - rho12^2 - rho13^2 - rho23^2
                   + 2*rho12*rho13*rho23) / mu1

    Parameters
    ----------
    rho : CorrelationTriple
        Pairwise driver correlations.

    Returns
    -------
    MixingCoefficients
        Loadings with ``mu1 > 0`` and ``mu3 > 0``.

    Raises
    ------
    NonPositiveSemiDefinite
        If the radicand under mu3 is negative (the correlation matrix is not
        PSD) or exactly zero (mu3 = 0, the third driver is redundant).
    """
    r12, r13, r23 = rho.rho12, rho.rho13, rho.rho23
    mu1 = math.sqrt(1.0 - r12 * r12)
    radicand = 1.0 - r12 * r12 - r13 * r13 - r23 * r23 + 2.0 * r12 * r13 * r23
    if radicand <= 0.0:
        raise NonPositiveSemiDefinite(radicand)
    mu2 = (r23 - r12 * r13) / mu1
    mu3 = math.sqrt(radicand) / mu1
    return MixingCoefficients(mu1, mu2, mu3)


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
        _require(self, "be > 0", "kappa", "theta", "sigma_vol", "a", "k")
        _require(self, "be finite", "b")


@dataclass(frozen=True)
class BlackScholesParams:
    """Constant volatility of the degenerate model, whose rate is init r0."""

    sigma: float

    def __post_init__(self):
        _require(self, "be > 0", "sigma")


@dataclass(frozen=True)
class InitialState:
    """Initial point (s0, v0, r0) of the three-factor system."""

    s0: float
    v0: float
    r0: float

    def __post_init__(self):
        _require(self, "be > 0", "s0", "v0")
        _require(self, "be finite", "r0")


# A model field: a number, or an elementwise function of numpy arrays.
Coefficient = float | Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    """Full description of one three-factor model instance.

    Each of the five fields and their derivatives is a number, which the
    engine carries as a number, or a callable taking and returning numpy
    arrays (elementwise); the derivatives are taken as given, not checked
    against the fields.  ``degenerate`` flags diffusion coefficients v and
    g that are identically zero; operations that would divide by v(V_t) or
    g(r_t) must refuse such models.
    """

    name: str
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
    mixing: MixingCoefficients
    degenerate: bool = False
    hv_params: HestonVasicekParams | None = None
    bs_params: BlackScholesParams | None = None


def heston_vasicek_model(
    params: HestonVasicekParams,
    correlations: CorrelationTriple,
    condition: str = "strict",
    enforce: bool = True,
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
    condition : {"strict", "feller"}
        Positivity condition applied to the variance parameters:
        ``"strict"`` requires kappa*theta >= sigma_vol^2 and ``"feller"``
        requires 2*kappa*theta >= sigma_vol^2 (the classic Feller bound).
    enforce : bool
        If True (default) a violated condition raises InvalidParams;
        otherwise it only logs a warning.

    Raises
    ------
    InvalidParams
        On a violated positivity condition (when ``enforce``) or bad inputs.
    NonPositiveSemiDefinite
        If the correlations admit no mixing decomposition.
    """
    if condition not in ("strict", "feller"):
        raise InvalidParams(f"condition must be 'strict' or 'feller', got {condition!r}")
    kt = params.kappa * params.theta
    bound = params.sigma_vol**2 if condition == "strict" else 0.5 * params.sigma_vol**2
    if kt < bound:
        msg = (
            f"variance positivity condition '{condition}' violated: "
            f"kappa*theta = {kt!r} < required {bound!r}"
        )
        if enforce:
            raise InvalidParams(msg)
        logger.warning(msg)

    mixing = mixing_from_correlations(correlations)
    kappa, theta, sigma_vol = params.kappa, params.theta, params.sigma_vol
    a, b, k = params.a, params.b, params.k

    def sigma(v):
        return np.sqrt(np.maximum(v, 0.0))

    def sigma_prime(v):
        return 0.5 / np.sqrt(np.maximum(v, 1e-300))

    return ModelSpec(
        name="heston_vasicek",
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
        mixing=mixing,
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
    bs = BlackScholesParams(sigma)
    correlations = CorrelationTriple(0.0, 0.0, 0.0)
    mixing = mixing_from_correlations(correlations)

    model = ModelSpec(
        name="black_scholes",
        sigma=bs.sigma,
        u=0.0,
        v=0.0,
        f=0.0,
        g=0.0,
        sigma_prime=0.0,
        u_prime=0.0,
        v_prime=0.0,
        f_prime=0.0,
        g_prime=0.0,
        correlations=correlations,
        mixing=mixing,
        degenerate=True,
        bs_params=bs,
    )
    logger.warning(
        "degenerate model '%s': diffusion matrix is singular in the V and r "
        "directions; uniform ellipticity does not hold", model.name
    )
    return model


PAYOFF_KINDS = ("call", "put", "digital_call", "constant", "identity")


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff Phi(S_T).

    kind: one of ``call``, ``put`` (strike-based), ``digital_call``
    (cash-or-nothing: pays ``level`` when S_T > strike), ``constant``
    (returns ``level``), ``identity`` (returns S_T).
    """

    kind: str
    strike: float = 0.0
    level: float = 1.0

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise InvalidParams(
                f"payoff kind must be one of {PAYOFF_KINDS}, got {self.kind!r}",
                field="kind")
        if self.kind in ("call", "put", "digital_call"):
            _require(self, "be >= 0", "strike")
        if self.kind in ("constant", "digital_call"):
            _require(self, "be finite", "level")


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
