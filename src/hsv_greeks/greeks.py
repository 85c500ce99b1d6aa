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
the integrals its paths must carry and what its bump moves; :func:`_refuse`
reads it to decide every ``method:greek`` token.  The public estimators
check their own arguments; the paths are checked against their entry.

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

from .engine import _FIELD_GROUPS, PathAccumulators, stable_mean_se
from .errors import DegenerateWeightWarning, InvalidParams, NonFiniteEstimate, UnsupportedModel
from .models import ModelSpec, Payoff, _inverse_loadings, _require, evaluate_payoff

__all__ = [
    "GreekEstimate",
    "price",
    "delta",
    "bismut_vector",
    "rho",
    "vega",
    "drift_sensitivity",
]

ESTIMATOR_METHODS = ("malliavin", "fd", "analytic")
# A finite difference is central, on common random numbers (baselines.fd_greek).
ESTIMATOR_LABELS = ("malliavin", "fd_central", "analytic")
# drift_sensitivity's gamma_kind -> its Greek token.
GAMMA_KINDS = {"kappa": "kappa", "reversion_speed": "reversion"}

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
        _require(vars(self), ESTIMATOR_LABELS, "estimator")
        _require(vars(self), "be finite", "value")
        _require(vars(self), "be >= 0", "std_error")
        _require(vars(self), "be an integer >= 1", "n_paths")
        _require(vars(self), "be an integer >= 0", "clamp_count")
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
    c2, c3 = _inverse_loadings(paths.model)
    return _factor(paths, "C", lambda p: p.I1 + c2 * p.I2 + c3 * p.I3)


def _kappa_samples(p: PathAccumulators, phi) -> np.ndarray:
    # Ito weight from the 1/v(V_t) integrals; no discount term, because the
    # short rate does not feel the V drift.
    mu = p.model.mixing
    ito = _factor(p, "kappa", lambda p: p.model.hv_params.kappa * (
        p.j2 / mu.mu1 - (mu.mu2 / (mu.mu1 * mu.mu3)) * p.j3))
    return phi * _discount(p) * ito / p.maturity


def _reversion_samples(p: PathAccumulators, phi) -> np.ndarray:
    # Ito weight from the 1/g(r_t) integral alone: the Girsanov weight on
    # W^3 moves the whole rate path, and so the discount integral D, which
    # a deterministic correction of D would count twice.
    a, T = p.model.hv_params.a, p.maturity
    return phi * _discount(p) * _factor(
        p, "reversion", lambda p: (a / p.model.mixing.mu3) * p.g3 / T)


@dataclass(frozen=True)
class _Greek:
    """What the package knows about one Greek token."""

    # samples(paths, phi) -> per-path Phi * e^{-D} * weight, at the paths'
    # own s0 and maturity.  Each keeps its own evaluation order, which fixes
    # the printed digits.
    samples: Callable[..., np.ndarray]
    # The PathAccumulators weight fields samples reads besides S_T and D.
    reads: tuple[str, ...] = ()
    # What the finite-difference form moves by h: an InitialState field, a
    # ModelSpec field raised by h times the Heston–Vasicek parameter scale,
    # or every rate ("rate").
    bump: str | None = None
    scale: str | None = None
    # payoff kind -> the BsClosedForm field that holds the closed form
    closed_form: dict[str, str] = field(default_factory=dict)


# What _combination reads.
_C = ("I1", "I2", "I3")

# Token order is the canonical order of config output.
_GREEKS = {
    # Plain discounted payoff mean (weight identically 1).
    "price": _Greek(
        lambda p, phi: _discount(p) * phi,
        closed_form={"call": "price"}),
    # Initial spot.
    "delta": _Greek(
        lambda p, phi: phi * _factor(
            p, "delta", lambda p: _discount(p) * _combination(p) / (p.s0 * p.maturity)),
        _C, bump="s0",
        closed_form={"call": "delta", "digital_call": "digital_delta"}),
    # Parallel shift of the stock drift and the discount rate.
    "rho": _Greek(
        lambda p, phi: phi * _factor(p, "rho", lambda p: _discount(p) * (
            _combination(p) - p.maturity * p.maturity) / p.maturity),
        _C, bump="rate",
        closed_form={"call": "rho"}),
    # Epsilon in the diffusion perturbation a + eps*diag(S, 0, 0).
    "vega": _Greek(
        lambda p, phi: phi * _factor(
            p, "vega",
            lambda p: (_discount(p) / p.maturity) * ((p.w1_T - p.A) * _combination(p) - p.Q)),
        _C + ("w1_T", "A", "Q"), bump="sigma",
        closed_form={"call": "vega"}),
    # Initial variance: second component of the Bismut vector.
    "vega_v0": _Greek(
        lambda p, phi: phi * _discount(p) * p.P2 / p.maturity,
        ("P2",), bump="v0"),
    # Initial short rate: third component of the Bismut vector.
    "rho_r0": _Greek(
        lambda p, phi: phi * _discount(p) * p.P3 / p.maturity,
        ("P3",), bump="r0"),
    "kappa": _Greek(_kappa_samples, ("j2", "j3"), bump="u", scale="kappa"),
    "reversion": _Greek(_reversion_samples, ("g3",), bump="f", scale="a"),
}
_FD_GREEKS = tuple(g for g, spec in _GREEKS.items() if spec.bump)


def _refuse(method: str, greek: str, model: ModelSpec, payoff_kind: str | None = None) -> None:
    """Refuse the token ``method:greek`` where it is not defined: for
    ``model``, or, for ``analytic``, for ``payoff_kind``.  The weights, the
    bumps and the config all ask here, so they refuse in one wording."""
    spec, token = _GREEKS[greek], f"{method}:{greek}"
    # A Greek scaled by a Heston–Vasicek parameter reads it from the model.
    if spec.scale and model.hv_params is None:
        raise UnsupportedModel(f"{token} is defined for the Heston–Vasicek instance only")
    # A weight that reads past the weight integrals divides by v(V_t) or
    # g(r_t); a bump needs neither.
    beyond_sums = set(spec.reads).difference(_FIELD_GROUPS["sums"])
    if method == "malliavin" and model.degenerate and beyond_sums:
        raise UnsupportedModel(f"{token} divides by v(V_t) or g(r_t), which are "
                               "identically zero on this degenerate model")
    if method == "fd" and spec.bump is None:
        raise InvalidParams(f"'{token}' has no finite-difference form; use 'malliavin:{greek}'")
    if method == "analytic" and not model.degenerate:
        raise InvalidParams(f"'{token}' has a closed form only for the constant-coefficient model")
    if method == "analytic" and payoff_kind not in spec.closed_form:
        raise InvalidParams(f"'{token}' has no closed form for payoff kind {payoff_kind!r}")


def _check_paths(greek: str, paths: PathAccumulators) -> None:
    """Refuse ``paths`` whose model the weight of ``greek`` is not defined
    for, or that lack a field it reads."""
    spec = _GREEKS[greek]
    _refuse("malliavin", greek, paths.model)
    if missing := [name for name in spec.reads if getattr(paths, name) is None]:
        raise InvalidParams(
            f"malliavin:{greek} reads {', '.join(missing)}, which these paths lack; "
            "simulate them with weights=True"
            + (" and drift_extras=True" if missing[0] in _FIELD_GROUPS["drift"] else ""))


def _flag_clamps(paths: PathAccumulators) -> None:
    """Warn once per path set whose clamps pass the flag ratio: every
    estimate from it shares the clamps, and the mark in ``paths.factors``
    keeps the next estimator quiet."""
    if "flagged" not in paths.factors and paths.n_integrand_evals > 0 and (
        paths.clamp_count > _CLAMP_FLAG_RATIO * paths.n_integrand_evals
    ):
        paths.factors["flagged"] = True
        # stacklevel: _weighted, then the public estimator, then its caller.
        warnings.warn(
            f"{paths.clamp_count} of {paths.n_integrand_evals} integrand "
            "evaluations were clamped; Malliavin weights are unreliable",
            DegenerateWeightWarning,
            stacklevel=4,
        )


def _finite_samples(token: str, *arrays: np.ndarray) -> None:
    """Refuse a non-finite sample of ``arrays`` as a
    :class:`NonFiniteEstimate` naming ``token``."""
    for samples in arrays:
        if not np.isfinite(samples).all():
            bad = int(np.argmin(np.isfinite(samples)))
            raise NonFiniteEstimate(token, f"sample at path {bad} is {float(samples[bad])!r}")


def _finite_estimate(token: str, estimate: Callable[[], tuple[float, float]],
                     *samples: np.ndarray) -> tuple[float, float]:
    """``estimate()``, the (value, SE) reduced from ``samples``, refused as
    a :class:`NonFiniteEstimate` naming ``token`` when it is not finite.

    A non-finite sample makes a sum raise or the estimate non-finite, so
    the samples are checked only then, first, as if checked before."""
    try:
        value, se = estimate()
    except ValueError:  # math.fsum meets an inf of each sign
        _finite_samples(token, *samples)
        raise
    except OverflowError:  # math.fsum's intermediate overflow
        _finite_samples(token, *samples)
        raise NonFiniteEstimate(token, "the sum of its samples overflows") from None
    if not (math.isfinite(value) and math.isfinite(se)):
        _finite_samples(token, *samples)
        raise NonFiniteEstimate(token, f"value {value!r}, std_error {se!r}")
    return value, se


def _estimate(greek: str, samples: np.ndarray, paths: PathAccumulators) -> GreekEstimate:
    mean, se = _finite_estimate(f"malliavin:{greek}", lambda: stable_mean_se(samples), samples)
    return GreekEstimate(
        value=mean,
        std_error=se,
        n_paths=len(paths),
        estimator="malliavin",
        clamp_count=paths.clamp_count,
    )


def _weighted(greeks: tuple[str, ...], paths: PathAccumulators,
              payoff: Payoff) -> list[GreekEstimate]:
    """Estimate each of ``greeks`` from its table entry and one evaluation
    of ``payoff``.  Refuses paths that lack an integral one of them reads,
    then flags clamps once; the caller checks its own arguments."""
    for greek in greeks:
        _check_paths(greek, paths)
    if any(_GREEKS[greek].reads for greek in greeks):
        _flag_clamps(paths)
    phi = evaluate_payoff(payoff, paths.s_T)
    return [_estimate(g, _GREEKS[g].samples(paths, phi), paths) for g in greeks]


def price(paths: PathAccumulators, payoff: Payoff) -> GreekEstimate:
    """Discounted payoff mean E[e^{-D} Phi(S_T)] (weight identically 1)."""
    return _weighted(("price",), paths, payoff)[0]


def delta(paths: PathAccumulators, payoff: Payoff, s0: float) -> GreekEstimate:
    """Sensitivity to the initial spot: E[Phi * e^{-D} C/(s0 T)].  ``s0``
    must be the paths' own."""
    if s0 != paths.s0:
        raise InvalidParams(f"s0 must be the paths' s0 {paths.s0!r}, got {s0!r}", "s0")
    return _weighted(("delta",), paths, payoff)[0]


def bismut_vector(paths: PathAccumulators, payoff: Payoff) -> tuple[GreekEstimate, GreekEstimate, GreekEstimate]:
    """All three components of the Bismut weight vector pi = (C/s0, P2, P3)/T.

    Returns (delta, vega_v0, rho_r0) estimates; the first is bitwise the
    :func:`delta` estimate at ``paths.s0``.  Initial spot and maturity
    come from the accumulator metadata.

    Raises
    ------
    UnsupportedModel
        If the paths' model is degenerate: the weights would divide by
        v(V_t) or g(r_t), which are identically zero.
    InvalidParams
        If the paths lack P2, P3 or the I1..I3 that delta reads.
    """
    v0_est, r0_est = _weighted(("vega_v0", "rho_r0"), paths, payoff)
    # Delta takes its own payoff evaluation and reduction, as a separate
    # delta() call would; the benchmark's tests pin both counts.
    _check_paths("delta", paths)
    phi = evaluate_payoff(payoff, paths.s_T)
    d = _estimate("delta", _GREEKS["delta"].samples(paths, phi), paths)
    return d, v0_est, r0_est


def rho(paths: PathAccumulators, payoff: Payoff, maturity: float) -> GreekEstimate:
    """Sensitivity to a parallel shift added to the stock drift and the
    discount rate simultaneously: E[Phi * e^{-D} (C - T^2)/T].
    ``maturity`` must be the paths' own."""
    if maturity != paths.maturity:
        raise InvalidParams(f"maturity must be the paths' maturity {paths.maturity!r}, "
                            f"got {maturity!r}", "maturity")
    return _weighted(("rho",), paths, payoff)[0]


def vega(paths: PathAccumulators, payoff: Payoff, maturity: float) -> GreekEstimate:
    """Sensitivity to epsilon in the diffusion perturbation a + eps*diag(S,0,0):
    E[Phi * (e^{-D}/T) ((W^1_T - A) C - Q)].  ``maturity`` must be the
    paths' own."""
    if maturity != paths.maturity:
        raise InvalidParams(f"maturity must be the paths' maturity {paths.maturity!r}, "
                            f"got {maturity!r}", "maturity")
    return _weighted(("vega",), paths, payoff)[0]


def drift_sensitivity(paths: PathAccumulators, payoff: Payoff, gamma_kind: str) -> GreekEstimate:
    """Drift-perturbation sensitivities for the two supported gamma vectors.

    * ``kappa``        — gamma = (0, kappa, 0): the ``kappa`` weight.
    * ``reversion_speed`` — gamma = (0, 0, a): the ``reversion`` weight.

    ``kappa``/``reversion_speed`` require Heston–Vasicek paths simulated
    with ``drift_extras=True``.
    """
    _require(locals(), tuple(GAMMA_KINDS), "gamma_kind")
    return _weighted((GAMMA_KINDS[gamma_kind],), paths, payoff)[0]
