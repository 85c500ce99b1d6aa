"""Bump-and-revalue finite differences and the closed-form oracle.

The FD estimators exist to validate the Malliavin weights, so their bump
semantics match the perturbations those weights measure rather than
textbook parameter bumps:

* ``rho_shift_epsilon``  re-simulates with the stock drift shifted by eps
  and discounts by e^{-(D + eps*T)} (parallel shift of drift and discount);
* ``vega_shift_epsilon`` re-simulates with the S diffusion scaled to
  sigma(V_t) + eps;
* ``kappa_epsilon`` / ``reversion_epsilon`` shift the V / r drifts by
  eps*kappa and eps*a (discounting along the perturbed r path for the
  latter);
* ``s0`` / ``v0`` / ``r0`` bump the initial state.

With ``crn=True`` every evaluation reuses the identical draws (same seed,
path, step, driver — the engine's counter-based streams make this exact)
and the standard error comes from per-path differenced samples; without
CRN each evaluation uses an independent sub-stream and the variances add.
Each re-simulation steps the state only (``weights=False``): a price reads
S_T and D, never a weight integral or a first variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import Perturbation, SimConfig, simulate_paths, stable_mean_se
from .errors import InvalidBump, InvalidParams, UnsupportedModel
from .greeks import _GREEKS, GreekEstimate, _finite_estimate
from .models import InitialState, ModelSpec, Payoff, _require_payoff, evaluate_payoff

__all__ = [
    "BumpSpec",
    "BsClosedForm",
    "FD_TARGETS",
    "FD_SCHEMES",
    "fd_greek",
    "default_bump_size",
    "check_bump_size",
    "bs_closed_form",
    "norm_cdf",
    "norm_pdf",
    "agrees",
]

FD_TARGETS = (
    "s0", "v0", "r0",
    "rho_shift_epsilon", "vega_shift_epsilon", "kappa_epsilon", "reversion_epsilon",
)
FD_SCHEMES = ("forward", "backward", "central")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class BumpSpec:
    """One finite-difference request: what to bump, how, by how much."""

    target: str
    scheme: str = "central"
    h: float = 1e-4
    crn: bool = True

    def __post_init__(self):
        if self.target not in FD_TARGETS:
            raise InvalidBump(f"target must be one of {FD_TARGETS}, got {self.target!r}")
        if self.scheme not in FD_SCHEMES:
            raise InvalidBump(f"scheme must be one of {FD_SCHEMES}, got {self.scheme!r}",
                              field="scheme")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise InvalidBump(f"h must be > 0, got {self.h!r}", field="h")


def _state_base(target: str, init: InitialState) -> float | None:
    """The initial-state value a bump along ``target`` moves, or None when
    ``target`` perturbs the dynamics instead of the initial state."""
    return getattr(init, target) if target in ("s0", "v0", "r0") else None


def default_bump_size(target: str, init: InitialState) -> float:
    """House bump sizes: 1% relative for s0/v0, 1e-4 absolute otherwise."""
    if target in ("s0", "v0"):
        return 0.01 * _state_base(target, init)
    return 1e-4


def check_bump_size(bump: BumpSpec, init: InitialState) -> None:
    """Refuse a bump of s0 or v0, which must stay positive, whose size is
    not below half the base value.  r0 has no sign constraint."""
    base = _state_base(bump.target, init)
    if bump.target in ("s0", "v0") and bump.h >= 0.5 * base:
        raise InvalidBump(
            f"h = {bump.h!r} too large for target {bump.target!r} with base "
            f"value {base!r} (need h < 0.5*base)", field="h")


def _discounted_samples(
    model: ModelSpec,
    init: InitialState,
    cfg: SimConfig,
    payoff: Payoff,
    target: str,
    offset: float,
    stream: int,
) -> tuple[np.ndarray, int]:
    """Per-path discounted payoff samples of the bumped configuration.

    Returns (samples, clamp_count).  ``offset`` is the signed displacement
    from the base configuration along ``target``.
    """
    perturbation = None
    extra_discount = 0.0
    base = _state_base(target, init)
    if base is not None:
        try:
            init = replace(init, **{target: base + offset})
        except InvalidParams as exc:
            raise InvalidBump(f"bumped initial state invalid: {exc}") from None
    elif offset != 0.0:
        if target == "rho_shift_epsilon":
            perturbation = Perturbation("stock_drift", offset)
            extra_discount = offset * cfg.maturity
        elif target == "vega_shift_epsilon":
            perturbation = Perturbation("stock_vol", offset)
        elif target == "kappa_epsilon":
            if model.hv_params is None:
                raise UnsupportedModel("kappa_epsilon bumps need the Heston–Vasicek instance")
            perturbation = Perturbation("v_drift", offset * model.hv_params.kappa)
        elif target == "reversion_epsilon":
            if model.hv_params is None:
                raise UnsupportedModel("reversion_epsilon bumps need the Heston–Vasicek instance")
            perturbation = Perturbation("r_drift", offset * model.hv_params.a)

    paths = simulate_paths(model, init, cfg, perturbation=perturbation,
                           stream=stream, weights=False)
    phi = evaluate_payoff(payoff, paths.s_T)
    samples = np.exp(-paths.D - extra_discount) * phi
    return samples, paths.clamp_count


def fd_greek(
    model: ModelSpec,
    init: InitialState,
    cfg: SimConfig,
    payoff: Payoff,
    bump: BumpSpec,
) -> GreekEstimate:
    """Bump-and-revalue sensitivity along ``bump.target``.

    forward (p(x+h)-p(x))/h, backward (p(x)-p(x-h))/h,
    central (p(x+h)-p(x-h))/(2h), each price a full re-simulation of the
    bumped dynamics.

    Raises
    ------
    InvalidParams
        If ``payoff`` is not a :class:`~hsv_greeks.models.Payoff`; refused
        before any path is simulated.
    InvalidBump
        If the bump size violates h < 0.5*|base| for a nonzero base value,
        or the bumped configuration is invalid.
    NonFiniteEstimate
        If a sample, the value or the standard error is not finite; it
        names the estimator as ``fd:<greek>``, the Greek whose FD target
        ``bump.target`` is.
    """
    _require_payoff(payoff)
    check_bump_size(bump, init)
    if bump.scheme == "central":
        offsets = (bump.h, -bump.h)
        denom = 2.0 * bump.h
    elif bump.scheme == "forward":
        offsets = (bump.h, 0.0)
        denom = bump.h
    else:
        offsets = (0.0, -bump.h)
        denom = bump.h

    clamps = 0
    runs = []
    for k, off in enumerate(offsets):
        stream = 0 if bump.crn else 1 + k
        samples, c = _discounted_samples(model, init, cfg, payoff, bump.target, off, stream)
        runs.append(samples)
        clamps += c

    hi, lo = runs
    token = "fd:" + next(g for g, spec in _GREEKS.items() if spec.fd_target == bump.target)
    samples = ((hi - lo) / denom,) if bump.crn else (hi, lo)

    def estimate() -> tuple[float, float]:
        if bump.crn:
            return stable_mean_se(samples[0])
        (m_hi, se_hi), (m_lo, se_lo) = map(stable_mean_se, samples)
        return (m_hi - m_lo) / denom, math.sqrt(se_hi * se_hi + se_lo * se_lo) / denom

    value, se = _finite_estimate(token, estimate, *samples)
    return GreekEstimate(
        value=value,
        std_error=se,
        n_paths=cfg.n_paths,
        estimator=f"fd_{bump.scheme}",
        clamp_count=clamps,
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
    for name, val in (("s0", s0), ("strike", strike), ("sigma", sigma), ("maturity", maturity)):
        if not (math.isfinite(val) and val > 0.0):
            raise InvalidParams(f"{name} must be > 0, got {val!r}")
    if not math.isfinite(r):
        raise InvalidParams(f"r must be finite, got {r!r}")
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
