"""Bump-and-revalue finite differences and the closed-form oracle.

The FD estimators exist to validate the Malliavin weights, so a bump is
named by its Greek and moves what that Greek's weight measures, not a
textbook parameter.  Every bump moves the (model, initial state) pair and
re-runs the engine on it: the Greek table (``greeks._GREEKS``) names what
each bump moves by eps, and any parameter scaling it, and
:func:`_moved` makes the move.

* ``delta`` / ``vega_v0`` / ``rho_r0`` move the initial s0 / v0 / r0;
* ``rho`` moves every rate by eps: r0 + eps, with f, g, f' and g' read at
  r - eps, so that the stock drift and the discount integral D both carry
  r + eps (parallel shift of drift and discount);
* ``vega`` moves the S diffusion sigma(V) to sigma(V) + eps;
* ``kappa`` / ``reversion`` move the V / r drifts u and f to u + eps*kappa
  and f + eps*a (discounting along the moved r path for the latter).

A number field stays a number, so the engine carries it as one.

Every estimate is the central difference (p(x+h) - p(x-h))/(2h) on common
random numbers: both prices reuse the identical draws (same seed, path,
step, driver; the engine's counter-based draws make this exact), and the
standard error comes from the per-path differences.  At the same two
simulations, one-sided differences carry an O(h) bias and independent
draws a far wider standard error (Glasserman, *Monte Carlo Methods in
Financial Engineering*, 2004, section 7.1).  Each re-simulation steps the
state only (``weights=False``): a price reads S_T and D, never a weight
integral or a first variation.  A digital call's difference moves its
payoff only on the paths whose S_T crosses the strike between the two
runs; with none, it holds the discount term alone, and is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import SimConfig, simulate_paths, stable_mean_se
from .errors import InvalidParams
from .greeks import _FD_GREEKS, _GREEKS, GreekEstimate, _finite_estimate, _refuse
from .models import InitialState, ModelSpec, Payoff, _require, _require_payoff, evaluate_payoff

__all__ = [
    "BumpSpec",
    "BsClosedForm",
    "fd_greek",
    "default_bump_size",
    "bs_closed_form",
    "agrees",
]

# The initial-state values that must stay positive under a bump.
_POSITIVE_STATE = ("s0", "v0")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _bump_of(greek: str) -> str:
    """What the finite-difference form of ``greek`` moves."""
    _require(locals(), _FD_GREEKS, "greek")
    return _GREEKS[greek].bump


@dataclass(frozen=True)
class BumpSpec:
    """One finite-difference request: the Greek whose bump it is and the
    size h."""

    greek: str
    h: float = 1e-4

    def __post_init__(self):
        _bump_of(self.greek)
        _require(vars(self), "be > 0", "h")


def default_bump_size(greek: str, init: InitialState) -> float:
    """House bump sizes: 1% of s0 or v0 for a bump that moves it, 1e-4
    absolute otherwise."""
    state = _bump_of(greek)
    if state in _POSITIVE_STATE:
        return 0.01 * getattr(init, state)
    return 1e-4


def check_bump_size(bump: BumpSpec, init: InitialState) -> None:
    """Refuse a bump of s0 or v0, which must stay positive, whose size is
    not below half the base value.  r0 has no sign constraint."""
    state = _bump_of(bump.greek)
    if state in _POSITIVE_STATE and bump.h >= 0.5 * getattr(init, state):
        raise InvalidParams(
            f"h = {bump.h!r} too large for fd:{bump.greek}, which moves {state} = "
            f"{getattr(init, state)!r} (need h < 0.5*{state})", field="h")


def _moved(model: ModelSpec, init: InitialState, greek: str,
           offset: float) -> tuple[ModelSpec, InitialState]:
    """The (model, init) pair moved by ``offset`` along the bump of ``greek``."""
    bump, scale = _GREEKS[greek].bump, _GREEKS[greek].scale
    if bump == "rate":
        # r0 + offset, stepped by fields read at r - offset, stays r + offset
        # to rounding: the stock drift and D both carry it.
        def below(c):
            return (lambda x: c(x - offset)) if callable(c) else c
        return (replace(model, **{name: below(getattr(model, name))
                                  for name in ("f", "g", "f_prime", "g_prime")}),
                replace(init, r0=init.r0 + offset))
    if hasattr(init, bump):
        try:
            return model, replace(init, **{bump: getattr(init, bump) + offset})
        except InvalidParams as exc:
            raise InvalidParams(f"bumped initial state invalid: {exc}") from None
    c = getattr(model, bump)
    shift = offset if scale is None else offset * getattr(model.hv_params, scale)
    return replace(model, **{bump: (lambda x: c(x) + shift) if callable(c) else c + shift}), init


def fd_greek(
    model: ModelSpec,
    init: InitialState,
    cfg: SimConfig,
    payoff: Payoff,
    bump: BumpSpec,
) -> GreekEstimate:
    """Bump-and-revalue estimate ``fd:<greek>`` of ``bump.greek``: the
    central difference (p(x+h) - p(x-h))/(2h) of two re-simulations of the
    bumped dynamics on the same draws, reduced path by path.

    Raises
    ------
    InvalidParams
        If ``payoff`` is not a :class:`~hsv_greeks.models.Payoff`; refused
        before any path is simulated.
    UnsupportedModel
        If the bump is scaled by a Heston–Vasicek parameter (``fd:kappa``,
        ``fd:reversion``) and ``model`` is not that instance; refused
        before any path is simulated.
    InvalidParams
        If a bump of s0 or v0 is not below half its base value, or the
        bumped configuration is invalid; or, on field ``h``, if the payoff
        is a digital call and h moves S_T but across the strike on no path.
    NonFiniteEstimate
        If a sample, the value or the standard error is not finite; it
        names the estimator as ``fd:<greek>``.
    """
    _require_payoff(payoff)
    _refuse("fd", bump.greek, model)
    check_bump_size(bump, init)
    token = f"fd:{bump.greek}"
    hi, lo = (simulate_paths(*_moved(model, init, bump.greek, offset), cfg, weights=False)
              for offset in (bump.h, -bump.h))
    phi_hi, phi_lo = (evaluate_payoff(payoff, paths.s_T) for paths in (hi, lo))
    if (payoff.kind == "digital_call" and np.array_equal(phi_hi, phi_lo)
            and not np.array_equal(hi.s_T, lo.s_T)):
        raise InvalidParams(
            f"h = {bump.h!r} moves S_T across the strike on 0 of {cfg.n_paths} paths, "
            f"so {token} of the digital call holds the discount term alone; "
            "take a larger h", field="h")
    samples = (np.exp(-hi.D) * phi_hi - np.exp(-lo.D) * phi_lo) / (2.0 * bump.h)
    value, se = _finite_estimate(token, lambda: stable_mean_se(samples), samples)
    return GreekEstimate(
        value=value,
        std_error=se,
        n_paths=cfg.n_paths,
        estimator="fd_central",
        clamp_count=hi.clamp_count + lo.clamp_count,
    )


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error well below 1e-12."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class BsClosedForm:
    """Closed-form call price and sensitivities of the constant-vol model."""

    price: float
    delta: float
    vega: float
    rho: float
    digital_delta: float


def bs_closed_form(s0: float, strike: float, r: float, sigma: float, maturity: float,
                   level: float = 1.0) -> BsClosedForm:
    """Black–Scholes call price, Delta, Vega, Rho, and digital-call Delta.

    ``digital_delta`` is the spot sensitivity level * e^{-rT} phi(d2)/(s0
    sigma sqrt(T)) of the cash-or-nothing call paying ``level``, the oracle
    for the non-smooth payoff checks.
    """
    _require(locals(), "be > 0", "s0", "strike", "sigma", "maturity")
    _require(locals(), "be finite", "r", "level")
    sq_t = math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * maturity) / (sigma * sq_t)
    d2 = d1 - sigma * sq_t
    df = math.exp(-r * maturity)
    return BsClosedForm(
        price=s0 * norm_cdf(d1) - strike * df * norm_cdf(d2),
        delta=norm_cdf(d1),
        vega=s0 * sq_t * norm_pdf(d1),
        rho=strike * maturity * df * norm_cdf(d2),
        digital_delta=level * (df * norm_pdf(d2) / (s0 * sigma * sq_t)),
    )


def agrees(a: GreekEstimate, b: GreekEstimate, n_se: float = 3.0) -> bool:
    """Combined-standard-error agreement: |a - b| <= n_se * sqrt(SE_a^2 + SE_b^2)."""
    return abs(a.value - b.value) <= n_se * math.hypot(a.std_error, b.std_error)
