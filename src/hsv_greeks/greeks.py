"""Malliavin-weighted Greek estimators.

Every sensitivity here has the form

    Greek = E[ e^{-D} * Phi(S_T) * weight ]

with a payoff-independent random weight assembled from the path
accumulators (Fournié et al., "Applications of Malliavin calculus to Monte
Carlo methods in finance", 1999).  The central combination is

    C = I1 - (rho12/mu1) * I2 + ((rho12*mu2 - rho13*mu1)/(mu1*mu3)) * I3

with Ii = int_0^T (1/sigma(V_t)) dW^i_t, and with the maturity-only
weighting alpha(t) = 1/T throughout (European payoffs priced at T).  The
other accumulators are A = int sigma dt, Q = int (1/sigma) dt, the Bismut
integrals P2 and P3, Ji = int (1/v(V_t)) dW^i_t and G3 = int (1/g(r_t)) dW^3_t.

:data:`_GREEKS` writes each weight exactly once, next to the other facts
the configuration and the command line need about its Greek, including
the integrals its paths must carry.  The public estimators check their own
arguments; the paths are checked against the table entry they evaluate.

Estimators take a :class:`~hsv_greeks.models.Payoff` and are pure folds
over the accumulator arrays using the engine's exactly-rounded reduction,
so results are independent of worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .engine import PathAccumulators, stable_mean_se
from .errors import (
    DegenerateModel,
    DegenerateWeightWarning,
    EmptyInput,
    InvalidParams,
    NonFiniteEstimate,
    UnsupportedModel,
)
from .models import Payoff, evaluate_payoff

__all__ = [
    "GreekEstimate",
    "price",
    "delta",
    "bismut_vector",
    "rho",
    "vega",
    "drift_sensitivity",
    "GAMMA_KINDS",
]

ESTIMATOR_LABELS = ("malliavin", "fd_forward", "fd_backward", "fd_central", "analytic")
GAMMA_KINDS = ("stock_shift", "kappa", "reversion_speed")

# Fraction of clamped integrand evaluations above which estimates are flagged.
_CLAMP_FLAG_RATIO = 0.01


@dataclass(frozen=True)
class GreekEstimate:
    """One Monte Carlo sensitivity estimate.

    ``std_error`` is the sample standard deviation over paths divided by
    sqrt(n_paths); ``clamp_count`` counts safeguarding clamps that fired in
    the simulation that produced the inputs.
    """

    value: float
    std_error: float
    n_paths: int
    estimator: str
    clamp_count: int = 0

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_LABELS:
            raise InvalidParams(
                f"estimator must be one of {ESTIMATOR_LABELS}, got {self.estimator!r}"
            )
        if not math.isfinite(self.value):
            raise InvalidParams(f"estimate value must be finite, got {self.value!r}")
        if not (math.isfinite(self.std_error) and self.std_error >= 0.0):
            raise InvalidParams(
                f"std_error must be finite and >= 0, got {self.std_error!r}")
        if self.n_paths < 1:
            raise InvalidParams(f"n_paths must be >= 1, got {self.n_paths!r}")
        if self.std_error > 0.0 and self.n_paths < 2:
            raise InvalidParams(
                "a nonzero std_error needs at least two paths, got "
                f"n_paths={self.n_paths!r}")


def _factor(paths: PathAccumulators, name: str, compute) -> np.ndarray:
    """The payoff-independent per-path factor ``name`` of ``paths``,
    computed on first use and kept, read-only, in ``paths.factors``."""
    value = paths.factors.get(name)
    if value is None:
        value = compute(paths)
        value.flags.writeable = False
        paths.factors[name] = value
    return value


def _discount(paths: PathAccumulators) -> np.ndarray:
    """The per-path discount factor e^{-D}."""
    return _factor(paths, "discount", lambda p: np.exp(-p.D))


def _combination(paths: PathAccumulators) -> np.ndarray:
    """The weight combination C built from I1..I3 and the mixing loadings."""
    rho_c = paths.model.correlations
    mu = paths.model.mixing
    c2 = -rho_c.rho12 / mu.mu1
    c3 = (rho_c.rho12 * mu.mu2 - rho_c.rho13 * mu.mu1) / (mu.mu1 * mu.mu3)
    return _factor(paths, "C", lambda p: p.I1 + c2 * p.I2 + c3 * p.I3)


def _kappa_samples(p: PathAccumulators, phi, s0: float, T: float) -> np.ndarray:
    # Ito weight from the 1/v(V_t) integrals; no discount term, because the
    # short rate does not feel the V drift.
    mu = p.model.mixing
    ito = p.model.hv_params.kappa * (p.j2 / mu.mu1 - (mu.mu2 / (mu.mu1 * mu.mu3)) * p.j3)
    return phi * _discount(p) * ito / T


def _reversion_samples(p: PathAccumulators, phi, s0: float, T: float) -> np.ndarray:
    # Ito weight from the 1/g(r_t) integral minus the deterministic discount
    # correction T - (1 - e^{-aT})/a, the time integral of the pathwise
    # derivative 1 - e^{-at} of the Vasicek rate.
    a = p.model.hv_params.a
    correction = T - (1.0 - math.exp(-a * T)) / a
    return phi * _discount(p) * ((a / p.model.mixing.mu3) * p.g3 / T - correction)


@dataclass(frozen=True)
class _Greek:
    """What the package knows about one Greek token."""

    # samples(paths, phi, s0, T) -> per-path Phi * e^{-D} * weight.  Each
    # keeps its own evaluation order, which fixes the printed digits.
    samples: Callable[..., np.ndarray]
    weighted: bool = True         # reads weight integrals, not S_T and D only
    drift_extras: bool = False    # needs the drift integrals J2, J3, G3
    hybrid_only: bool = False     # refused on the constant-coefficient model
    fd_target: str | None = None  # bump target of the finite-difference form
    # payoff kind -> the BsClosedForm field that holds the closed form
    closed_form: dict[str, str] = field(default_factory=dict)


# Token order is the canonical order of config output.
_GREEKS = {
    # Plain discounted payoff mean (weight identically 1).
    "price": _Greek(
        lambda p, phi, s0, T: _discount(p) * phi,
        weighted=False, closed_form={"call": "price"}),
    # Initial spot.
    "delta": _Greek(
        lambda p, phi, s0, T: phi * (_discount(p) * _combination(p) / (s0 * T)),
        fd_target="s0",
        closed_form={"call": "delta", "digital_call": "digital_delta"}),
    # Parallel shift of the stock drift and the discount rate.
    "rho": _Greek(
        lambda p, phi, s0, T: phi * (_discount(p) * (_combination(p) - T * T) / T),
        fd_target="rho_shift_epsilon",
        closed_form={"call": "rho"}),
    # Epsilon in the diffusion perturbation a + eps*diag(S, 0, 0).
    "vega": _Greek(
        lambda p, phi, s0, T: phi * ((_discount(p) / T) * ((p.w1_T - p.A) * _combination(p) - p.Q)),
        fd_target="vega_shift_epsilon",
        closed_form={"call": "vega"}),
    # Initial variance: second component of the Bismut vector.
    "vega_v0": _Greek(
        lambda p, phi, s0, T: phi * _discount(p) * p.P2 / T,
        hybrid_only=True, fd_target="v0"),
    # Initial short rate: third component of the Bismut vector.
    "rho_r0": _Greek(
        lambda p, phi, s0, T: phi * _discount(p) * p.P3 / T,
        hybrid_only=True, fd_target="r0"),
    "kappa": _Greek(_kappa_samples, drift_extras=True, hybrid_only=True,
                    fd_target="kappa_epsilon"),
    "reversion": _Greek(_reversion_samples, drift_extras=True, hybrid_only=True,
                        fd_target="reversion_epsilon"),
}


def _check_paths(greek: str, paths: PathAccumulators) -> None:
    """Refuse ``paths`` that lack an integral the weight of ``greek`` reads."""
    spec = _GREEKS[greek]
    if len(paths) == 0:
        raise EmptyInput("estimator received zero paths")
    if spec.weighted and paths.I1 is None:
        raise InvalidParams(
            "paths carry no weight integrals (state only); simulate them "
            "with weights=True")
    if spec.drift_extras and paths.model.hv_params is None:
        raise UnsupportedModel(
            f"malliavin:{greek} is defined for the Heston–Vasicek instance only")
    if spec.drift_extras and paths.j2 is None:
        raise InvalidParams(
            "paths lack the drift-sensitivity integrals; simulate with "
            "drift_extras=True")
    if spec.hybrid_only and paths.P2 is None:
        raise DegenerateModel(
            f"malliavin:{greek} needs non-degenerate v(V) and g(r); these "
            "paths carry no P2/P3")


def _flag_clamps(paths: PathAccumulators) -> None:
    if paths.n_integrand_evals > 0 and (
        paths.clamp_count > _CLAMP_FLAG_RATIO * paths.n_integrand_evals
    ):
        # stacklevel: _weighted, then the public estimator, then its caller.
        warnings.warn(
            f"{paths.clamp_count} of {paths.n_integrand_evals} integrand "
            "evaluations were clamped; Malliavin weights are unreliable",
            DegenerateWeightWarning,
            stacklevel=4,
        )


def _finite_samples(token: str, samples: np.ndarray) -> np.ndarray:
    """``samples``, refused as a :class:`NonFiniteEstimate` naming
    ``token`` when one is not finite."""
    if not np.isfinite(samples).all():
        bad = int(np.argmin(np.isfinite(samples)))
        raise NonFiniteEstimate(token, f"sample at path {bad} is {float(samples[bad])!r}")
    return samples


def _require_finite(token: str, value: float, se: float) -> None:
    if not (math.isfinite(value) and math.isfinite(se)):
        raise NonFiniteEstimate(token, f"value {value!r}, std_error {se!r}")


def _estimate(greek: str, samples: np.ndarray, paths: PathAccumulators) -> GreekEstimate:
    token = f"malliavin:{greek}"
    try:
        mean, se = stable_mean_se(_finite_samples(token, samples))
    except OverflowError:  # math.fsum's intermediate overflow
        raise NonFiniteEstimate(token, "the sum of its samples overflows") from None
    _require_finite(token, mean, se)
    return GreekEstimate(
        value=mean,
        std_error=se,
        n_paths=len(paths),
        estimator="malliavin",
        clamp_count=paths.clamp_count,
    )


def _weighted(greeks: tuple[str, ...], paths: PathAccumulators, payoff: Payoff,
              s0: float, T: float) -> list[GreekEstimate]:
    """Estimate each of ``greeks`` from its table entry and one evaluation
    of ``payoff``.  Refuses paths that lack an integral one of them reads,
    then flags clamps once; the caller checks its own arguments."""
    for greek in greeks:
        _check_paths(greek, paths)
    if any(_GREEKS[greek].weighted for greek in greeks):
        _flag_clamps(paths)
    phi = evaluate_payoff(payoff, paths.s_T)
    return [_estimate(g, _GREEKS[g].samples(paths, phi, s0, T), paths) for g in greeks]


def price(paths: PathAccumulators, payoff: Payoff) -> GreekEstimate:
    """Discounted payoff mean E[e^{-D} Phi(S_T)] (weight identically 1)."""
    return _weighted(("price",), paths, payoff, paths.s0, paths.maturity)[0]


def delta(paths: PathAccumulators, payoff: Payoff, s0: float) -> GreekEstimate:
    """Sensitivity to the initial spot: E[Phi * e^{-D} C/(s0 T)]."""
    if not (s0 > 0.0):
        raise InvalidParams(f"s0 must be > 0, got {s0!r}")
    return _weighted(("delta",), paths, payoff, s0, paths.maturity)[0]


def bismut_vector(paths: PathAccumulators, payoff: Payoff) -> tuple[GreekEstimate, GreekEstimate, GreekEstimate]:
    """All three components of the Bismut weight vector pi = (C/s0, P2, P3)/T.

    Returns (delta, vega_v0, rho_r0) estimates; the first is bitwise the
    :func:`delta` estimate at ``paths.s0``.  Initial spot and maturity
    come from the accumulator metadata.

    Raises
    ------
    DegenerateModel
        If the paths carry no P2/P3 (degenerate model: the weights would
        divide by v(V_t) or g(r_t), which are identically zero).
    """
    s0, T = paths.s0, paths.maturity
    v0_est, r0_est = _weighted(("vega_v0", "rho_r0"), paths, payoff, s0, T)
    # Delta takes its own payoff evaluation and reduction, as a separate
    # delta() call would; the benchmark's tests pin both counts.
    phi = evaluate_payoff(payoff, paths.s_T)
    d = _estimate("delta", _GREEKS["delta"].samples(paths, phi, s0, T), paths)
    return d, v0_est, r0_est


def rho(paths: PathAccumulators, payoff: Payoff, maturity: float) -> GreekEstimate:
    """Sensitivity to a parallel shift added to the stock drift and the
    discount rate simultaneously: E[Phi * e^{-D} (C - T^2)/T]."""
    if not (maturity > 0.0):
        raise InvalidParams(f"maturity must be > 0, got {maturity!r}")
    return _weighted(("rho",), paths, payoff, paths.s0, maturity)[0]


def vega(paths: PathAccumulators, payoff: Payoff, maturity: float) -> GreekEstimate:
    """Sensitivity to epsilon in the diffusion perturbation a + eps*diag(S,0,0):
    E[Phi * (e^{-D}/T) ((W^1_T - A) C - Q)]."""
    if not (maturity > 0.0):
        raise InvalidParams(f"maturity must be > 0, got {maturity!r}")
    return _weighted(("vega",), paths, payoff, paths.s0, maturity)[0]


def drift_sensitivity(paths: PathAccumulators, payoff: Payoff, gamma_kind: str) -> GreekEstimate:
    """Drift-perturbation sensitivities for the three supported gamma vectors.

    * ``stock_shift``  — gamma = (S, 0, 0): identical to :func:`rho`.
    * ``kappa``        — gamma = (0, kappa, 0): the ``kappa`` weight.
    * ``reversion_speed`` — gamma = (0, 0, a): the ``reversion`` weight.

    ``kappa``/``reversion_speed`` require Heston–Vasicek paths simulated
    with ``drift_extras=True``.
    """
    if gamma_kind not in GAMMA_KINDS:
        raise InvalidParams(f"gamma_kind must be one of {GAMMA_KINDS}, got {gamma_kind!r}")
    greek = {"stock_shift": "rho", "kappa": "kappa", "reversion_speed": "reversion"}[gamma_kind]
    return _weighted((greek,), paths, payoff, paths.s0, paths.maturity)[0]
