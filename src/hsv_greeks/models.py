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
rest of the package consumes.  All scalar-field functions (``sigma``, ``u``,
``v``, ``f``, ``g`` and their derivatives) must accept numpy arrays and
evaluate elementwise.
"""

from __future__ import annotations

import logging
import math
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
    "check_derivative_consistency",
]

logger = logging.getLogger(__name__)

# Probe interval used by the derivative-consistency check: variance points are
# kept away from the sqrt kink at 0, rate points span negative and positive.
_PROBE_V_RANGE = (0.02, 1.5)
_PROBE_R_RANGE = (-0.10, 0.15)


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
        for name in ("rho12", "rho13", "rho23"):
            val = getattr(self, name)
            if not (math.isfinite(val) and -1.0 < val < 1.0):
                raise InvalidParams(f"{name} must lie strictly in (-1, 1), got {val!r}",
                                    field=name)


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
        if not (math.isfinite(self.mu1) and self.mu1 > 0.0):
            raise InvalidParams(f"mu1 must be > 0, got {self.mu1!r}")
        if not math.isfinite(self.mu2):
            raise InvalidParams(f"mu2 must be finite, got {self.mu2!r}")
        if not (math.isfinite(self.mu3) and self.mu3 > 0.0):
            raise InvalidParams(f"mu3 must be > 0, got {self.mu3!r}")


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
        for name in ("kappa", "theta", "sigma_vol", "a", "k"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise InvalidParams(f"{name} must be > 0, got {val!r}", field=name)
        if not math.isfinite(self.b):
            raise InvalidParams(f"b must be finite, got {self.b!r}", field="b")


@dataclass(frozen=True)
class BlackScholesParams:
    """Constant volatility / constant rate parameters of the degenerate model."""

    sigma: float
    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise InvalidParams(f"sigma must be > 0, got {self.sigma!r}", field="sigma")
        if not math.isfinite(self.rate):
            raise InvalidParams(f"rate must be finite, got {self.rate!r}", field="rate")


@dataclass(frozen=True)
class InitialState:
    """Initial point (s0, v0, r0) of the three-factor system."""

    s0: float
    v0: float
    r0: float

    def __post_init__(self):
        if not (math.isfinite(self.s0) and self.s0 > 0.0):
            raise InvalidParams(f"s0 must be > 0, got {self.s0!r}", field="s0")
        if not (math.isfinite(self.v0) and self.v0 > 0.0):
            raise InvalidParams(f"v0 must be > 0, got {self.v0!r}", field="v0")
        if not math.isfinite(self.r0):
            raise InvalidParams(f"r0 must be finite, got {self.r0!r}", field="r0")


@dataclass(frozen=True)
class ModelSpec:
    """Full description of one three-factor model instance.

    The five field functions and their derivatives are plain callables taking
    and returning numpy arrays (elementwise).  ``degenerate`` flags diffusion
    coefficients v and g that are identically zero; operations that would
    divide by v(V_t) or g(r_t) must refuse such models.
    """

    name: str
    sigma: Callable[[np.ndarray], np.ndarray]
    u: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Callable[[np.ndarray], np.ndarray]
    u_prime: Callable[[np.ndarray], np.ndarray]
    v_prime: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    g_prime: Callable[[np.ndarray], np.ndarray]
    correlations: CorrelationTriple
    mixing: MixingCoefficients
    degenerate: bool = False
    hv_params: HestonVasicekParams | None = None
    bs_params: BlackScholesParams | None = None


def check_derivative_consistency(
    model: ModelSpec,
    n_points: int = 5,
    tol: float = 1e-6,
    seed: int = 0,
) -> None:
    """Probe each derivative field against a central difference of its function.

    Five random points are drawn per field (variance fields over
    ``_PROBE_V_RANGE``, rate fields over ``_PROBE_R_RANGE``); the check uses
    step ``1e-6 * max(1, |x|)`` and requires
    ``|fd - prime| <= tol * max(1, |prime|)``.

    Raises
    ------
    InvalidParams
        Naming the first field whose derivative disagrees.
    """
    rng = np.random.default_rng(seed)
    pairs = [
        ("sigma", model.sigma, model.sigma_prime, _PROBE_V_RANGE),
        ("u", model.u, model.u_prime, _PROBE_V_RANGE),
        ("v", model.v, model.v_prime, _PROBE_V_RANGE),
        ("f", model.f, model.f_prime, _PROBE_R_RANGE),
        ("g", model.g, model.g_prime, _PROBE_R_RANGE),
    ]
    for name, func, prime, (lo, hi) in pairs:
        x = rng.uniform(lo, hi, size=n_points)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        fd = (np.asarray(func(x + h), dtype=float) - np.asarray(func(x - h), dtype=float)) / (2.0 * h)
        exact = np.asarray(prime(x), dtype=float)
        err = np.abs(fd - exact)
        bound = tol * np.maximum(1.0, np.abs(exact))
        if np.any(err > bound):
            i = int(np.argmax(err - bound))
            raise InvalidParams(
                f"derivative field '{name}_prime' inconsistent with '{name}' at "
                f"x={x[i]!r}: central diff {fd[i]!r} vs supplied {exact[i]!r}"
            )


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

    model = ModelSpec(
        name="heston_vasicek",
        sigma=sigma,
        u=lambda v: kappa * (theta - v),
        v=lambda v: sigma_vol * np.sqrt(np.maximum(v, 0.0)),
        f=lambda r: a * (b - r),
        g=lambda r: np.full_like(np.asarray(r, dtype=float), k),
        sigma_prime=sigma_prime,
        u_prime=lambda v: np.full_like(np.asarray(v, dtype=float), -kappa),
        v_prime=lambda v: 0.5 * sigma_vol / np.sqrt(np.maximum(v, 1e-300)),
        f_prime=lambda r: np.full_like(np.asarray(r, dtype=float), -a),
        g_prime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        correlations=correlations,
        mixing=mixing,
        hv_params=params,
    )
    check_derivative_consistency(model)
    return model


def black_scholes_degenerate(sigma: float, rate: float) -> ModelSpec:
    """Build the constant-volatility, constant-rate degenerate instance.

    All variance and rate dynamics are switched off (u = v = f = g = 0), so
    S follows geometric Brownian motion with volatility ``sigma`` and the
    short rate stays at ``rate``.  The diffusion matrix is singular in the
    V and r directions; weights that divide by v(V_t) or g(r_t) are refused
    downstream via the degeneracy flag.
    """
    bs = BlackScholesParams(sigma, rate)
    correlations = CorrelationTriple(0.0, 0.0, 0.0)
    mixing = mixing_from_correlations(correlations)

    def _const(c):
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)

    model = ModelSpec(
        name="black_scholes",
        sigma=_const(bs.sigma),
        u=_const(0.0),
        v=_const(0.0),
        f=_const(0.0),
        g=_const(0.0),
        sigma_prime=_const(0.0),
        u_prime=_const(0.0),
        v_prime=_const(0.0),
        f_prime=_const(0.0),
        g_prime=_const(0.0),
        correlations=correlations,
        mixing=mixing,
        degenerate=True,
        bs_params=bs,
    )
    logger.warning(
        "degenerate model '%s': diffusion matrix is singular in the V and r "
        "directions; uniform ellipticity does not hold", model.name
    )
    check_derivative_consistency(model)
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
            if not (math.isfinite(self.strike) and self.strike >= 0.0):
                raise InvalidParams(f"strike must be >= 0, got {self.strike!r}",
                                    field="strike")
        if self.kind in ("constant", "digital_call") and not math.isfinite(self.level):
            raise InvalidParams(f"level must be finite, got {self.level!r}",
                                field="level")


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
