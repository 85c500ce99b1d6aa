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
the configuration and the command line need about its Greek.  The public
estimators check their arguments and evaluate one entry of that table.

Estimators are pure folds over the accumulator arrays using the engine's
exactly-rounded reduction, so results are independent of worker count.
For testing convenience every estimator also accepts a precomputed
per-path payoff array in place of a :class:`~hsv_greeks.models.Payoff`.
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
    UnsupportedModel,
)
from .models import Payoff, evaluate_payoff

__all__ = [
    "GreekEstimate",
    "WeightBundle",
    "weight_bundle",
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
        if not (self.std_error >= 0.0):
            raise InvalidParams(f"std_error must be >= 0, got {self.std_error!r}")
        if self.n_paths < 1:
            raise InvalidParams(f"n_paths must be >= 1, got {self.n_paths!r}")
        if self.std_error > 0.0 and self.n_paths < 2:
            raise InvalidParams(
                "a nonzero std_error needs at least two paths, got "
                f"n_paths={self.n_paths!r}")


@dataclass
class WeightBundle:
    """Per-path Malliavin weights plus the shared pieces they are built from.

    ``vega_v0`` / ``rho_r0`` are None when the model is degenerate (the
    Bismut integrands 1/v, 1/g are undefined there).
    """

    delta: np.ndarray
    rho: np.ndarray
    vega: np.ndarray
    vega_v0: np.ndarray | None
    rho_r0: np.ndarray | None
    discount: np.ndarray
    C: np.ndarray


def _combination(paths: PathAccumulators) -> np.ndarray:
    """The weight combination C built from I1..I3 and the mixing loadings."""
    if paths.model is None:
        raise InvalidParams(
            "paths carry no model metadata; simulate them with simulate_paths"
        )
    rho_c = paths.model.correlations
    mu = paths.model.mixing
    c2 = -rho_c.rho12 / mu.mu1
    c3 = (rho_c.rho12 * mu.mu2 - rho_c.rho13 * mu.mu1) / (mu.mu1 * mu.mu3)
    return paths.I1 + c2 * paths.I2 + c3 * paths.I3


def _kappa_samples(p: PathAccumulators, phi, s0: float, T: float) -> np.ndarray:
    # Ito weight from the 1/v(V_t) integrals; no discount term, because the
    # short rate does not feel the V drift.
    mu = p.model.mixing
    ito = p.model.hv_params.kappa * (p.j2 / mu.mu1 - (mu.mu2 / (mu.mu1 * mu.mu3)) * p.j3)
    return phi * np.exp(-p.D) * ito / T


def _reversion_samples(p: PathAccumulators, phi, s0: float, T: float) -> np.ndarray:
    # Ito weight from the 1/g(r_t) integral minus the deterministic discount
    # correction T - (1 - e^{-aT})/a, the time integral of the pathwise
    # derivative 1 - e^{-at} of the Vasicek rate.
    a = p.model.hv_params.a
    correction = T - (1.0 - math.exp(-a * T)) / a
    return phi * np.exp(-p.D) * ((a / p.model.mixing.mu3) * p.g3 / T - correction)


@dataclass(frozen=True)
class _Greek:
    """What the package knows about one Greek token."""

    # samples(paths, phi, s0, T) -> per-path Phi * e^{-D} * weight.  Each
    # keeps its own evaluation order, which fixes the printed digits.
    samples: Callable[..., np.ndarray]
    drift_extras: bool = False    # needs the drift integrals J2, J3, G3
    hybrid_only: bool = False     # refused on the constant-coefficient model
    fd_target: str | None = None  # bump target of the finite-difference form
    # payoff kind -> the BsClosedForm field that holds the closed form
    closed_form: dict[str, str] = field(default_factory=dict)


# Token order is the canonical order of config output.
_GREEKS = {
    # Plain discounted payoff mean (weight identically 1).
    "price": _Greek(
        lambda p, phi, s0, T: np.exp(-p.D) * phi,
        closed_form={"call": "price"}),
    # Initial spot.
    "delta": _Greek(
        lambda p, phi, s0, T: phi * (np.exp(-p.D) * _combination(p) / (s0 * T)),
        fd_target="s0",
        closed_form={"call": "delta", "digital_call": "digital_delta"}),
    # Parallel shift of the stock drift and the discount rate.
    "rho": _Greek(
        lambda p, phi, s0, T: phi * (np.exp(-p.D) * (_combination(p) - T * T) / T),
        fd_target="rho_shift_epsilon",
        closed_form={"call": "rho"}),
    # Epsilon in the diffusion perturbation a + eps*diag(S, 0, 0).
    "vega": _Greek(
        lambda p, phi, s0, T: phi * ((np.exp(-p.D) / T) * ((p.w1_T - p.A) * _combination(p) - p.Q)),
        fd_target="vega_shift_epsilon",
        closed_form={"call": "vega"}),
    # Initial variance: second component of the Bismut vector.
    "vega_v0": _Greek(
        lambda p, phi, s0, T: phi * np.exp(-p.D) * p.P2 / T,
        hybrid_only=True, fd_target="v0"),
    # Initial short rate: third component of the Bismut vector.
    "rho_r0": _Greek(
        lambda p, phi, s0, T: phi * np.exp(-p.D) * p.P3 / T,
        hybrid_only=True, fd_target="r0"),
    "kappa": _Greek(_kappa_samples, drift_extras=True, hybrid_only=True,
                    fd_target="kappa_epsilon"),
    "reversion": _Greek(_reversion_samples, drift_extras=True, hybrid_only=True,
                        fd_target="reversion_epsilon"),
}


def weight_bundle(paths: PathAccumulators, s0: float, maturity: float) -> WeightBundle:
    """Assemble all per-path weights for the given initial spot and maturity.

    The weights are the table's samples at a unit payoff, ``phi = 1``.  The
    Delta and Rho entries satisfy the pathwise identity
    ``rho = s0*delta - T*discount`` up to rounding, since both are affine in
    the same combination C.
    """
    _require_weights(paths)
    if not (s0 > 0.0):
        raise InvalidParams(f"s0 must be > 0, got {s0!r}")
    if not (maturity > 0.0):
        raise InvalidParams(f"maturity must be > 0, got {maturity!r}")

    def weight(greek):
        return _GREEKS[greek].samples(paths, 1.0, s0, maturity)

    return WeightBundle(
        delta=weight("delta"), rho=weight("rho"), vega=weight("vega"),
        vega_v0=weight("vega_v0") if paths.p23_valid else None,
        rho_r0=weight("rho_r0") if paths.p23_valid else None,
        discount=weight("price"), C=_combination(paths),
    )


def _payoff_values(payoff, s_T: np.ndarray) -> np.ndarray:
    if isinstance(payoff, Payoff):
        return evaluate_payoff(payoff, s_T)
    arr = np.asarray(payoff, dtype=float)
    if arr.shape != s_T.shape:
        raise InvalidParams(
            f"payoff array shape {arr.shape} does not match paths {s_T.shape}"
        )
    return arr


def _require_paths(paths: PathAccumulators) -> None:
    if len(paths) == 0:
        raise EmptyInput("estimator received zero paths")


def _require_weights(paths: PathAccumulators) -> None:
    """Refuse state-only paths, which carry no weight integrals."""
    _require_paths(paths)
    if paths.I1 is None:
        raise InvalidParams(
            "paths carry no weight integrals (state only); simulate them "
            "with weights=True")


def _flag_clamps(paths: PathAccumulators) -> None:
    if paths.n_integrand_evals > 0 and (
        paths.clamp_count > _CLAMP_FLAG_RATIO * paths.n_integrand_evals
    ):
        warnings.warn(
            f"{paths.clamp_count} of {paths.n_integrand_evals} integrand "
            "evaluations were clamped; Malliavin weights are unreliable",
            DegenerateWeightWarning,
            stacklevel=3,
        )


def _estimate(samples: np.ndarray, paths: PathAccumulators) -> GreekEstimate:
    if not np.isfinite(samples).all():
        bad = int(np.argmin(np.isfinite(samples)))
        raise InvalidParams(f"non-finite estimator sample at path {bad}")
    mean, se = stable_mean_se(samples)
    return GreekEstimate(
        value=mean,
        std_error=se,
        n_paths=len(paths),
        estimator="malliavin",
        clamp_count=paths.clamp_count,
    )


def _weighted(greek: str, paths: PathAccumulators, payoff, s0: float, T: float) -> GreekEstimate:
    """Estimate ``greek`` from its table entry; the caller checks arguments."""
    phi = _payoff_values(payoff, paths.s_T)
    return _estimate(_GREEKS[greek].samples(paths, phi, s0, T), paths)


def price(paths: PathAccumulators, payoff) -> GreekEstimate:
    """Discounted payoff mean E[e^{-D} Phi(S_T)] (weight identically 1)."""
    _require_paths(paths)
    return _weighted("price", paths, payoff, paths.s0, paths.maturity)


def delta(paths: PathAccumulators, payoff, s0: float) -> GreekEstimate:
    """Sensitivity to the initial spot: E[Phi * e^{-D} C/(s0 T)]."""
    _require_weights(paths)
    _flag_clamps(paths)
    if not (paths.maturity > 0.0):
        raise InvalidParams("paths carry no maturity metadata")
    if not (s0 > 0.0):
        raise InvalidParams(f"s0 must be > 0, got {s0!r}")
    return _weighted("delta", paths, payoff, s0, paths.maturity)


def bismut_vector(paths: PathAccumulators, payoff) -> tuple[GreekEstimate, GreekEstimate, GreekEstimate]:
    """All three components of the Bismut weight vector pi = (C/s0, P2, P3)/T.

    Returns (delta, vega_v0, rho_r0) estimates; the first is computed by
    :func:`delta` on the same paths (bitwise identical).  Initial spot and
    maturity come from the accumulator metadata.

    Raises
    ------
    DegenerateModel
        If P2/P3 are sentinel-invalid (degenerate model: the weights would
        divide by v(V_t) or g(r_t) which are identically zero).
    """
    _require_weights(paths)
    if not paths.p23_valid:
        raise DegenerateModel(
            "initial-volatility/initial-rate weights need non-degenerate "
            "v(V) and g(r); P2/P3 are sentinel-invalid on these paths"
        )
    if not (paths.s0 > 0.0) or not (paths.maturity > 0.0):
        raise InvalidParams("paths carry no s0/maturity metadata")
    phi = _payoff_values(payoff, paths.s_T)
    d = delta(paths, payoff, paths.s0)
    v0_est, r0_est = (
        _estimate(_GREEKS[g].samples(paths, phi, paths.s0, paths.maturity), paths)
        for g in ("vega_v0", "rho_r0"))
    return d, v0_est, r0_est


def rho(paths: PathAccumulators, payoff, maturity: float) -> GreekEstimate:
    """Sensitivity to a parallel shift added to the stock drift and the
    discount rate simultaneously: E[Phi * e^{-D} (C - T^2)/T]."""
    _require_weights(paths)
    _flag_clamps(paths)
    if not (maturity > 0.0):
        raise InvalidParams(f"maturity must be > 0, got {maturity!r}")
    return _weighted("rho", paths, payoff, paths.s0, maturity)


def vega(paths: PathAccumulators, payoff, maturity: float) -> GreekEstimate:
    """Sensitivity to epsilon in the diffusion perturbation a + eps*diag(S,0,0):
    E[Phi * (e^{-D}/T) ((W^1_T - A) C - Q)]."""
    _require_weights(paths)
    _flag_clamps(paths)
    if not (maturity > 0.0):
        raise InvalidParams(f"maturity must be > 0, got {maturity!r}")
    return _weighted("vega", paths, payoff, paths.s0, maturity)


def drift_sensitivity(paths: PathAccumulators, payoff, gamma_kind: str) -> GreekEstimate:
    """Drift-perturbation sensitivities for the three supported gamma vectors.

    * ``stock_shift``  — gamma = (S, 0, 0): identical to :func:`rho`.
    * ``kappa``        — gamma = (0, kappa, 0): the ``kappa`` weight.
    * ``reversion_speed`` — gamma = (0, 0, a): the ``reversion`` weight.

    ``kappa``/``reversion_speed`` require Heston–Vasicek paths simulated
    with ``drift_extras=True``.
    """
    if gamma_kind not in GAMMA_KINDS:
        raise InvalidParams(f"gamma_kind must be one of {GAMMA_KINDS}, got {gamma_kind!r}")
    _require_weights(paths)
    if gamma_kind == "stock_shift":
        return rho(paths, payoff, paths.maturity)

    model = paths.model
    if model is None or model.hv_params is None:
        raise UnsupportedModel(
            f"gamma_kind {gamma_kind!r} is defined for the Heston–Vasicek "
            "instance only"
        )
    if paths.j2 is None or paths.g3 is None:
        raise InvalidParams(
            "paths lack the drift-sensitivity integrals; simulate with "
            "drift_extras=True"
        )
    _flag_clamps(paths)
    greek = "kappa" if gamma_kind == "kappa" else "reversion"
    return _weighted(greek, paths, payoff, paths.s0, paths.maturity)
