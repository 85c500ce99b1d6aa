"""Weighted Greek estimators against frozen closed forms and FD oracles."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import hsv_greeks as hg
from conftest import (
    BS_DELTA,
    BS_DIGITAL_DELTA,
    BS_PRICE,
    BS_PUT_DELTA,
    BS_RHO,
    BS_VEGA,
    SEED_HV,
    within_se,
)
from reference import conditional_call, fsum_mean_se, heston_vasicek_call

CONST_1 = hg.Payoff("constant", level=1.0)
IDENTITY = hg.Payoff("identity")


# ---------------------------------------------------------------------------
# price

def test_price_constant_payoff_is_pure_discount(deg_paths_100k):
    est = hg.price(deg_paths_100k, CONST_1)
    assert est.value == pytest.approx(math.exp(-0.05), rel=1e-13)
    assert est.std_error < 1e-14


def test_price_identity_payoff_recovers_spot(deg_paths_100k, deg_init):
    est = hg.price(deg_paths_100k, IDENTITY)
    assert within_se(est, deg_init.s0)


def test_price_matches_closed_form(deg_paths_100k, call_100):
    est = hg.price(deg_paths_100k, call_100)
    assert within_se(est, BS_PRICE)
    assert est.estimator == "malliavin"


# ---------------------------------------------------------------------------
# delta / rho / vega against the constant-coefficient closed forms

def test_delta_constant_payoff_zero_mean(deg_paths_100k):
    assert within_se(hg.delta(deg_paths_100k, CONST_1, 100.0), 0.0)


def test_delta_matches_closed_form(deg_paths_100k):
    est = hg.delta(deg_paths_100k, hg.Payoff("call", strike=100.0), 100.0)
    assert within_se(est, BS_DELTA)


def test_put_delta_matches_closed_form(deg_paths_100k):
    est = hg.delta(deg_paths_100k, hg.Payoff("put", strike=100.0), 100.0)
    assert within_se(est, BS_PUT_DELTA)


def test_digital_delta_matches_closed_form(deg_paths_100k):
    """The weight never differentiates the payoff, so a discontinuous
    digital payoff needs no special treatment."""
    est = hg.delta(deg_paths_100k, hg.Payoff("digital_call", strike=100.0),
                   100.0)
    assert within_se(est, BS_DIGITAL_DELTA)


def test_rho_constant_payoff_is_minus_T_discount(deg_paths_100k):
    est = hg.rho(deg_paths_100k, CONST_1, maturity=1.0)
    assert within_se(est, -math.exp(-0.05))


def test_rho_matches_closed_form(deg_paths_100k, call_100):
    assert within_se(hg.rho(deg_paths_100k, call_100, maturity=1.0), BS_RHO)


def test_vega_constant_payoff_zero_mean(deg_paths_100k):
    assert within_se(hg.vega(deg_paths_100k, CONST_1, maturity=1.0), 0.0)


def test_vega_matches_closed_form(deg_paths_100k, call_100):
    assert within_se(hg.vega(deg_paths_100k, call_100, maturity=1.0), BS_VEGA)


# ---------------------------------------------------------------------------
# weight identities

def unit_weight(paths, greek):
    """The per-path weight of ``greek`` at a unit payoff, at the paths' own
    s0 and maturity (100 and 1 here)."""
    return hg.greeks._GREEKS[greek].samples(paths, 1.0)


def test_delta_weight_definition(hv_paths_10k):
    rebuilt = (unit_weight(hv_paths_10k, "price")
               * hg.greeks._combination(hv_paths_10k) / (100.0 * 1.0))
    assert np.array_equal(unit_weight(hv_paths_10k, "delta"), rebuilt)


def test_pathwise_rho_identity(hv_paths_10k):
    """Rho weight = s0 * delta weight - T * discount, path by path."""
    delta, discount = (unit_weight(hv_paths_10k, g) for g in ("delta", "price"))
    lhs = unit_weight(hv_paths_10k, "rho")
    rhs = 100.0 * delta - 1.0 * discount
    scale = np.maximum(np.abs(100.0 * delta), np.abs(discount))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


def test_unit_payoff_weights_reproduce_the_estimators(hv_paths_10k, call_100):
    """Weighting the payoff by a Greek's unit-payoff weight gives the
    estimator back."""
    paths = hv_paths_10k
    phi = hg.evaluate_payoff(call_100, paths.s_T)
    _, vega_v0, rho_r0 = hg.bismut_vector(paths, call_100)
    for est, greek in ((hg.price(paths, call_100), "price"),
                       (hg.delta(paths, call_100, 100.0), "delta"),
                       (hg.rho(paths, call_100, 1.0), "rho"),
                       (hg.vega(paths, call_100, 1.0), "vega")):
        assert est.value == hg.stable_mean_se(phi * unit_weight(paths, greek))[0]
    for est, greek in ((vega_v0, "vega_v0"), (rho_r0, "rho_r0")):
        assert est.value == pytest.approx(
            hg.stable_mean_se(phi * unit_weight(paths, greek))[0], rel=1e-12)


def test_bismut_first_component_is_delta_bitwise(hv_paths_10k, call_100):
    d, _, _ = hg.bismut_vector(hv_paths_10k, call_100)
    direct = hg.delta(hv_paths_10k, call_100, 100.0)
    assert d.value == direct.value and d.std_error == direct.std_error


def test_bismut_refused_on_degenerate(deg_paths_100k, call_100):
    with pytest.raises(hg.UnsupportedModel,
                       match=r"^malliavin:vega_v0 divides by v\(V_t\) or g\(r_t\)"):
        hg.bismut_vector(deg_paths_100k, call_100)


def test_drift_kinds_refused_without_extras_or_model(
        hv_model, hv_init, deg_paths_100k, call_100):
    cfg = hg.SimConfig(n_paths=64, n_steps=8, maturity=1.0, seed=1)
    plain = hg.simulate_paths(hv_model, hv_init, cfg)  # no drift extras
    with pytest.raises(hg.InvalidParams, match="drift_extras"):
        hg.drift_sensitivity(plain, call_100, "kappa")
    with pytest.raises(hg.UnsupportedModel):
        hg.drift_sensitivity(deg_paths_100k, call_100, "kappa")
    with pytest.raises(hg.InvalidParams):
        hg.drift_sensitivity(plain, call_100, "theta")  # unknown kind


# ---------------------------------------------------------------------------
# linearity and put-call structure

def test_estimators_are_linear_in_the_payoff(hv_paths_10k):
    """call - put = identity - K * constant pathwise, and every weight
    multiplies the payoff, so each estimate keeps the relation (up to the
    rounding of the per-path payoffs and products)."""
    strike = 100.0
    call, put = (hg.Payoff(kind, strike=strike) for kind in ("call", "put"))
    for fn in (lambda p: hg.price(hv_paths_10k, p),
               lambda p: hg.delta(hv_paths_10k, p, 100.0),
               lambda p: hg.rho(hv_paths_10k, p, 1.0),
               lambda p: hg.vega(hv_paths_10k, p, 1.0)):
        lhs = fn(call).value - fn(put).value
        rhs = fn(IDENTITY).value - strike * fn(CONST_1).value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# hybrid-model agreement with finite differences (common random numbers)

def _crn_fd(hv_model, hv_init, cfg, payoff, greek, h=None):
    spec = hg.BumpSpec(greek, h if h is not None else hg.default_bump_size(greek, hv_init))
    return hg.fd_greek(hv_model, hv_init, cfg, payoff, spec)


def test_vega_v0_and_rho_r0_agree_with_fd(hv_model, hv_init, hv_cfg_10k,
                                          hv_paths_10k, call_100):
    _, vega_v0, rho_r0 = hg.bismut_vector(hv_paths_10k, call_100)
    fd_v0 = _crn_fd(hv_model, hv_init, hv_cfg_10k, call_100, "vega_v0")
    fd_r0 = _crn_fd(hv_model, hv_init, hv_cfg_10k, call_100, "rho_r0")
    assert hg.agrees(vega_v0, fd_v0)
    assert hg.agrees(rho_r0, fd_r0)


def test_a_non_constant_rate_volatility_agrees_with_fd(affine_g_model, hv_init,
                                                      call_100):
    """vega_v0 and rho_r0 of a model whose g, 1/g and y33 are arrays, within
    4 combined SE of CRN central FD.  The maturity is short because rho_r0
    is biased by about price * T/2, the term the Bismut weight with
    alpha = 1/T leaves: 0.55, or 0.3 SE, here."""
    cfg = hg.SimConfig(n_paths=16384, n_steps=26, maturity=0.25, seed=SEED_HV)
    paths = hg.simulate_paths(affine_g_model, hv_init, cfg)
    _, vega_v0, rho_r0 = hg.bismut_vector(paths, call_100)
    for greek, weighted in (("vega_v0", vega_v0), ("rho_r0", rho_r0)):
        fd = _crn_fd(affine_g_model, hv_init, cfg, call_100, greek)
        assert hg.agrees(weighted, fd, n_se=4.0), (greek, weighted, fd)


def test_kappa_and_reversion_agree_with_fd(hv_model, hv_init, hv_cfg_10k,
                                           hv_paths_10k, call_100):
    mw_kappa = hg.drift_sensitivity(hv_paths_10k, call_100, "kappa")
    mw_rev = hg.drift_sensitivity(hv_paths_10k, call_100, "reversion_speed")
    fd_kappa = _crn_fd(hv_model, hv_init, hv_cfg_10k, call_100, "kappa")
    fd_rev = _crn_fd(hv_model, hv_init, hv_cfg_10k, call_100, "reversion")
    assert hg.agrees(mw_kappa, fd_kappa)
    assert hg.agrees(mw_rev, fd_rev)


def test_kappa_constant_payoff_zero_mean(hv_paths_10k):
    est = hg.drift_sensitivity(hv_paths_10k, CONST_1, "kappa")
    assert within_se(est, 0.0)


# ---------------------------------------------------------------------------
# the discrete conditional Monte Carlo oracle (reference.conditional_call)

@functools.lru_cache(maxsize=1)
def _oracle_case():
    """(model, init, sim, call, digital, oracle) of the default configuration
    with 65,536 paths and 52 steps, the oracle's samples at seed 97."""
    rc = hg.build_run_config({"sim.n_paths": "65536", "sim.n_steps": "52"})
    model, init, sim, call = rc.model, rc.init, rc.sim, rc.payoff
    oracle = conditional_call(model.hv_params, model.correlations, init, call.strike,
                              sim.maturity, sim.n_steps, sim.n_paths, seed=97)
    return model, init, sim, call, hg.Payoff("digital_call", strike=call.strike), oracle


def test_call_and_digital_prices_delta_and_rho_r0_agree_with_the_discrete_oracle():
    """At the default configuration with 65,536 paths and 52 steps, the
    engine's call and digital prices and the call's CRN central fd:delta
    and fd:rho_r0 agree with the oracle on the same grid within 4 combined
    SE.  The seeds, the default 12345 for the engine and 97 for the oracle,
    were fixed before the first run of each gate."""
    model, init, sim, call, digital, oracle = _oracle_case()
    paths = hg.simulate_paths(model, init, sim, weights=False)
    for samples, est in ((oracle.price, hg.price(paths, call)),
                         (oracle.delta, _crn_fd(model, init, sim, call, "delta")),
                         (oracle.digital, hg.price(paths, digital)),
                         (oracle.rho_r0, _crn_fd(model, init, sim, call, "rho_r0"))):
        mean, se = fsum_mean_se(samples)
        assert abs(est.value - mean) <= 4.0 * math.hypot(est.std_error, se), (est, mean, se)


def test_digital_delta_and_call_rho_agree_with_the_discrete_oracle():
    """On the configuration of the oracle test above, malliavin:delta of
    the digital, malliavin:rho of the call and the call's CRN central
    fd:rho agree with the oracle's digital delta and call rho within 4
    combined SE, at the same seeds."""
    model, init, sim, call, digital, oracle = _oracle_case()
    paths = hg.simulate_paths(model, init, sim, weights=("I1", "I2", "I3", "A", "Q", "w1_T"))
    for samples, est in ((oracle.digital_delta, hg.delta(paths, digital, init.s0)),
                         (oracle.rho, hg.rho(paths, call, sim.maturity)),
                         (oracle.rho, _crn_fd(model, init, sim, call, "rho"))):
        mean, se = fsum_mean_se(samples)
        assert abs(est.value - mean) <= 4.0 * math.hypot(est.std_error, se), (est, mean, se)


def test_call_and_digital_vega_agree_with_the_discrete_oracle():
    """On the configuration of the oracle test above, malliavin:vega of the
    call and of the digital and the call's CRN central fd:vega agree with
    the oracle's vega, every sigma_n moved to sigma_n + eps, within 4
    combined SE, at the same seeds."""
    model, init, sim, call, digital, oracle = _oracle_case()
    paths = hg.simulate_paths(model, init, sim, weights=("I1", "I2", "I3", "A", "Q", "w1_T"))
    for samples, est in ((oracle.vega, hg.vega(paths, call, sim.maturity)),
                         (oracle.digital_vega, hg.vega(paths, digital, sim.maturity)),
                         (oracle.vega, _crn_fd(model, init, sim, call, "vega"))):
        mean, se = fsum_mean_se(samples)
        assert abs(est.value - mean) <= 4.0 * math.hypot(est.std_error, se), (est, mean, se)


def test_call_reversion_agrees_with_the_discrete_oracle():
    """On the configuration of the oracle test above, the call's CRN
    central fd:reversion and malliavin:reversion agree with the oracle's
    reversion, the rate drift f moved to f + eps a, within 4 combined SE,
    at the same seeds."""
    model, init, sim, call, digital, oracle = _oracle_case()
    paths = hg.simulate_paths(model, init, sim, weights=("g3",))
    mean, se = fsum_mean_se(oracle.reversion)
    for est in (_crn_fd(model, init, sim, call, "reversion"),
                hg.drift_sensitivity(paths, call, "reversion_speed")):
        assert abs(est.value - mean) <= 4.0 * math.hypot(est.std_error, se), (est, mean, se)


@pytest.mark.parametrize("greek, estimate", [
    ("vega_v0", lambda case: _crn_fd(*case[:4], "vega_v0")),
    ("vega_v0", lambda case: hg.bismut_vector(hg.simulate_paths(*case[:3]), case[3])[1]),
    ("kappa", lambda case: _crn_fd(*case[:4], "kappa")),
    ("kappa", lambda case: hg.drift_sensitivity(
        hg.simulate_paths(*case[:3], weights=("j2", "j3")), case[3], "kappa")),
], ids=["fd:vega_v0", "malliavin:vega_v0", "fd:kappa", "malliavin:kappa"])
def test_call_vega_v0_and_kappa_agree_with_the_discrete_oracle(greek, estimate):
    """On the configuration of the oracle test above, the call's CRN
    central fd: and its malliavin: vega_v0 and kappa agree with the
    oracle's, from forward tangents of the full-truncation variance step,
    within 4 combined SE, at the same seeds."""
    case = _oracle_case()
    est = estimate(case)
    mean, se = fsum_mean_se(getattr(case[-1], greek))
    assert abs(est.value - mean) <= 4.0 * math.hypot(est.std_error, se), (est, mean, se)


# The digital's malliavin: estimate of each token the gate below reads,
# from paths with every weight field.
_WEIGHTED = {
    "rho": lambda paths, payoff: hg.rho(paths, payoff, paths.maturity),
    "vega_v0": lambda paths, payoff: hg.bismut_vector(paths, payoff)[1],
    "rho_r0": lambda paths, payoff: hg.bismut_vector(paths, payoff)[2],
    "kappa": lambda paths, payoff: hg.drift_sensitivity(paths, payoff, "kappa"),
    "reversion": lambda paths, payoff: hg.drift_sensitivity(paths, payoff, "reversion_speed"),
}
# fd:reversion's default bump of 1e-4 crosses the digital's strike on no
# path (see the refusal test below); a bump of 1e-2 crosses on 26.
_DIGITAL_H = {"reversion": 1e-2}


@functools.lru_cache(maxsize=1)
def _oracle_weighted_paths():
    model, init, sim, *_ = _oracle_case()
    return hg.simulate_paths(model, init, sim, drift_extras=True)


@pytest.mark.parametrize("label, greek", [
    pytest.param(label, greek, id=f"{label}:{greek}")
    for greek in _WEIGHTED for label in ("fd", "malliavin")])
def test_digital_rate_and_variance_greeks_agree_with_the_discrete_oracle(label, greek):
    """On the configuration of the oracle test above, the digital's CRN
    central fd: and its malliavin: rho, vega_v0, rho_r0, kappa and
    reversion agree with the oracle's, each a derivative of e^{-D} N(d2)
    along the tangents of the call's gates, within 4 combined SE, at the
    same seeds.  fd:reversion takes a bump of 1e-2, fixed before its run:
    the default crosses the strike on no path and is refused."""
    model, init, sim, _, digital, oracle = _oracle_case()
    if label == "fd":
        est = _crn_fd(model, init, sim, digital, greek, _DIGITAL_H.get(greek))
    else:
        est = _WEIGHTED[greek](_oracle_weighted_paths(), digital)
    mean, se = fsum_mean_se(getattr(oracle, "digital_" + greek))
    assert abs(est.value - mean) <= 4.0 * math.hypot(est.std_error, se), (est, mean, se)


def test_a_digital_difference_that_no_path_crosses_is_refused():
    """Defect D: fd:reversion's default bump of 1e-4 moves S_T by about 1e-4
    and crosses the digital's strike on none of the 65,536 paths of the
    oracle case, so the difference held the discount term alone and read
    -0.00486 +- 0.00002 against the oracle's 0.01409 +- 0.00009.  It is
    refused on h, naming the token and the count."""
    model, init, sim, _, digital, _ = _oracle_case()
    with pytest.raises(hg.InvalidParams, match=(
            r"^h = 0\.0001 moves S_T across the strike on 0 of 65536 paths, "
            r"so fd:reversion of the digital call")) as info:
        _crn_fd(model, init, sim, digital, "reversion")
    assert info.value.field == "h"


def test_reversion_counts_the_discount_shift_once():
    """With model.k=0.1, 262,144 paths, 104 steps and seed 5, a call's
    malliavin:reversion agrees with its CRN central fd:reversion within 4
    combined SE.  The weight once also subtracted the deterministic shift
    T - (1 - e^{-aT})/a of the discount integral, which its Girsanov term
    on W^3 already carries: 0.3524 +- 0.0140 against 0.4779 +- 0.0009,
    -9.0 combined SE."""
    rc = hg.build_run_config({"model.k": "0.1", "sim.n_paths": "262144",
                              "sim.n_steps": "104", "sim.seed": "5"})
    paths = hg.simulate_paths(rc.model, rc.init, rc.sim, weights=("g3",))
    weighted = hg.drift_sensitivity(paths, rc.payoff, "reversion_speed")
    fd = _crn_fd(rc.model, rc.init, rc.sim, rc.payoff, "reversion")
    assert hg.agrees(weighted, fd, n_se=4.0), (weighted, fd)


# ---------------------------------------------------------------------------
# the continuous oracle (reference.heston_vasicek_call)

# Defect C's configuration, where 130 clamped integrand evaluations carry
# malliavin:delta: rho13 = rho23 = 0, so the continuous oracle applies.
_DEFECT_C = {"model.sigma_vol": "0.25", "model.k": "0.02", "model.rho13": "0",
             "model.rho23": "0", "sim.n_paths": "65536", "sim.n_steps": "252",
             "sim.seed": "2024"}


def test_the_continuous_oracle_is_black_s_formula_when_the_variance_stays_put():
    """With v0 = theta and sigma_vol = 1e-5 the variance barely moves, and
    the oracle's call is Black's with total variance theta T + Var D on the
    forward s0/P(0,T): within 1e-4 on the price and 1e-5 on the delta,
    tolerances fixed before the first run."""
    rc = hg.build_run_config(_DEFECT_C)
    p = dataclasses.replace(rc.model.hv_params, sigma_vol=1e-5)
    init = dataclasses.replace(rc.init, v0=p.theta)
    strike, t = rc.payoff.strike, rc.sim.maturity
    got = heston_vasicek_call(p, rc.model.correlations, init, strike, t)
    decay = math.exp(-p.a * t)
    var_d = (p.k / p.a) ** 2 * (t - 2.0 * (1.0 - decay) / p.a
                                + (1.0 - decay * decay) / (2.0 * p.a))
    bond = math.exp(-p.b * t - (init.r0 - p.b) * (1.0 - decay) / p.a + 0.5 * var_d)
    total = p.theta * t + var_d
    d1 = (math.log(init.s0 / (bond * strike)) + 0.5 * total) / math.sqrt(total)
    d2 = d1 - math.sqrt(total)
    black = init.s0 * ndtr(d1) - strike * bond * ndtr(d2)
    assert abs(got.price - black) <= 1e-4, (got.price, black)
    assert abs(got.delta - ndtr(d1)) <= 1e-5, (got.delta, ndtr(d1))


# The gate's time-step allowance on the delta: the discrete oracle's delta
# on the 252-step grid minus the continuous one, -0.00006 +- 0.00014 over
# 8,388,608 paths (seeds 1000 to 1127 of 65,536 paths each), at its size
# plus two of its SE, rounded up.  The gap read -0.00020, -0.00003 and
# -0.00002 at 52, 104 and 208 steps, each +- 0.00014.
_STEP_ALLOWANCE = 4e-4


def test_crn_fd_delta_agrees_with_the_continuous_oracle_on_the_defect_c_config():
    """On defect C's configuration, 65,536 paths, 252 steps and seed 2024,
    fixed before the first run, the call's CRN central fd:delta lies within
    4 SE plus the time-step allowance of the continuous oracle's delta."""
    rc = hg.build_run_config(_DEFECT_C)
    oracle = heston_vasicek_call(rc.model.hv_params, rc.model.correlations, rc.init,
                                 rc.payoff.strike, rc.sim.maturity)
    est = _crn_fd(rc.model, rc.init, rc.sim, rc.payoff, "delta")
    assert abs(est.value - oracle.delta) <= 4.0 * est.std_error + _STEP_ALLOWANCE, (
        est, oracle.delta)


# ---------------------------------------------------------------------------
# estimate plumbing

def test_greek_estimate_validation():
    with pytest.raises(hg.InvalidParams):
        hg.GreekEstimate(value=1.0, std_error=-0.1, n_paths=10,
                         estimator="malliavin")
    with pytest.raises(hg.InvalidParams):
        hg.GreekEstimate(value=1.0, std_error=0.1, n_paths=10,
                         estimator="monte_carlo")
    with pytest.raises(hg.InvalidParams):
        hg.GreekEstimate(value=1.0, std_error=0.1, n_paths=1,
                         estimator="malliavin")
    hg.GreekEstimate(value=1.0, std_error=0.0, n_paths=1,
                     estimator="analytic")  # zero SE fine for one path


@pytest.mark.parametrize("kwargs, field", [
    (dict(value=True), "value"), (dict(value="1"), "value"),
    (dict(std_error=False), "std_error"), (dict(std_error="0.1"), "std_error"),
    (dict(n_paths=2.5), "n_paths"), (dict(n_paths=True), "n_paths"),
    (dict(n_paths=10.0), "n_paths")])
def test_greek_estimate_refuses_bools_text_and_fractional_paths(kwargs, field):
    """True was taken as 1, text raised a bare TypeError, and n_paths=2.5
    was taken; each is refused by its field."""
    args = dict(value=1.0, std_error=0.1, n_paths=10, estimator="malliavin") | kwargs
    with pytest.raises(hg.InvalidParams, match=field) as info:
        hg.GreekEstimate(**args)
    assert info.value.field == field


@pytest.mark.parametrize("estimate, name", [
    (lambda p, f: hg.delta(p, f, 50.0), "s0"),
    (lambda p, f: hg.delta(p, f, math.nan), "s0"),
    (lambda p, f: hg.rho(p, f, 2.0), "maturity"),
    (lambda p, f: hg.vega(p, f, 2.0), "maturity")],
    ids=["delta", "delta_nan", "rho", "vega"])
def test_a_spot_or_maturity_other_than_the_paths_is_refused(hv_paths_10k, call_100,
                                                            estimate, name):
    """The weights are those of the paths' own s0 and maturity: a delta
    at half the spot read twice the true delta, and is refused by name."""
    with pytest.raises(hg.InvalidParams, match=name) as info:
        estimate(hv_paths_10k, call_100)
    assert info.value.field == name


def test_non_finite_std_error_is_refused(hv_model, hv_init):
    with pytest.raises(hg.InvalidParams, match="std_error"):
        hg.GreekEstimate(1.0, math.inf, 2, "malliavin")
    # finite samples whose squared deviations overflow the variance
    paths = hg.simulate_paths(hv_model, hv_init, hg.SimConfig(n_paths=64, n_steps=4))
    huge = hg.Payoff("digital_call", strike=100.0, level=1e160)
    with np.errstate(over="raise"), pytest.raises(hg.InvalidParams, match="std_error") as info:
        hg.price(paths, huge)
    assert isinstance(info.value, hg.NonFiniteEstimate)
    assert info.value.estimator == "malliavin:price"


@pytest.mark.parametrize("pair", [False, True])
def test_a_non_finite_sample_is_named_by_its_path(hv_paths_10k, pair):
    """A nan sample, or an inf of each sign, whose sum fsum refuses, is
    refused as the first non-finite sample, by path, and numpy does not
    warn about it."""
    c = hg.greeks._combination(hv_paths_10k)
    up, down = int(np.flatnonzero(c > 0)[0]), int(np.flatnonzero(c < 0)[0])
    D = hv_paths_10k.D.copy()
    if pair:  # e^{-D} = inf: delta samples +inf at up, -inf at down
        D[[up, down]] = -math.inf
        bad, text = min((up, "inf"), (down, "-inf"))
    else:
        D[up] = math.nan
        bad, text = up, "nan"
    paths = dataclasses.replace(hv_paths_10k, D=D)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(hg.NonFiniteEstimate,
                           match=f"sample at path {bad} is {text}$") as info:
            hg.delta(paths, CONST_1, paths.s0)
    assert info.value.estimator == "malliavin:delta"


def test_empty_input_is_rejected(hv_paths_10k, call_100):
    arrays = {f: getattr(hv_paths_10k, f)[:0]
              for f in ("s_T", "D", "I1", "I2", "I3", "A", "Q", "w1_T", "P2", "P3")}
    empty = dataclasses.replace(hv_paths_10k, **arrays)
    with pytest.raises(hg.InvalidParams, match="^cannot average an empty sample$"):
        hg.price(empty, call_100)
    with pytest.raises(hg.InvalidParams, match="^cannot average an empty sample$"):
        hg.stable_mean_se(np.array([]))


def test_clamp_warning_when_floor_dominates(deg_init, call_100):
    """A sigma floor above the actual volatility trips on every evaluation;
    the estimate comes back flagged rather than silently biased."""
    model = hg.black_scholes_degenerate(0.2)
    cfg = hg.SimConfig(n_paths=200, n_steps=16, maturity=1.0, seed=2,
                       sigma_floor=0.5)
    paths = hg.simulate_paths(model, deg_init, cfg)
    assert paths.clamp_count > 0
    with pytest.warns(hg.DegenerateWeightWarning):
        est = hg.delta(paths, call_100, deg_init.s0)
    assert math.isfinite(est.value)
    assert est.clamp_count == paths.clamp_count


def test_bismut_vector_warns_once_per_call(hv_model, hv_init, call_100):
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=2,
                       sigma_floor=0.5)
    paths = hg.simulate_paths(hv_model, hv_init, cfg)
    with pytest.warns(hg.DegenerateWeightWarning) as record:
        hg.bismut_vector(paths, call_100)
    assert len(record) == 1


@pytest.mark.parametrize("greek", ["vega_v0", "rho_r0", "kappa", "reversion"])
def test_a_model_requirement_is_refused_in_one_wording(
        greek, deg_model, deg_init, affine_g_model, hv_init, call_100, monkeypatch):
    """The config, the bump and the weight check a Greek's model
    requirement in one function, so each refuses it in the same words,
    naming its own token and the reason; fd_greek refuses before any draw.
    The Black–Scholes model refuses each of these weights, and of the
    bumps only those scaled by a Heston–Vasicek parameter: the bumps of v0
    and r0 are built and run there, where they were once refused."""
    calls = []
    draws = hg.engine.standard_draws
    monkeypatch.setattr(hg.engine, "standard_draws",
                        lambda *a, **k: calls.append(a) or draws(*a, **k))
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=5)

    def refusals(model, init):
        """(fd_greek's error or None, the weighted estimator's) on ``model``."""
        calls.clear()
        try:
            hg.fd_greek(model, init, cfg, call_100, hg.BumpSpec(greek))
        except hg.HsvGreeksError as exc:
            assert calls == []
            fd_error = exc
        else:
            assert len(calls) == 2
            fd_error = None
        paths = hg.simulate_paths(model, init, cfg, drift_extras=True)
        with pytest.raises(hg.HsvGreeksError) as weighted_err:
            hg.greeks._weighted((greek,), paths, call_100)
        return fd_error, weighted_err.value

    scaled = greek in ("kappa", "reversion")
    reason = "Heston–Vasicek instance" if scaled else "v(V_t) or g(r_t)"
    fd_error, weighted_error = refusals(deg_model, deg_init)
    for method, error in (("fd", fd_error), ("malliavin", weighted_error)):
        overrides = {"model.name": "black_scholes", "estimators": f"{method}:{greek}"}
        if error is None:
            assert method == "fd" and not scaled
            assert hg.build_run_config(overrides).estimators == (("fd", greek),)
            continue
        with pytest.raises(hg.InvalidConfig) as config_err:
            hg.build_run_config(overrides)
        assert type(error) is hg.UnsupportedModel
        assert config_err.value.key == "estimators"
        assert type(config_err.value.__cause__) is hg.UnsupportedModel
        assert config_err.value.message == str(error)
        assert str(error).startswith(f"{method}:{greek} ") and reason in str(error)
    assert (fd_error is None) is not scaled
    if scaled:
        # A model with v and g but no Heston–Vasicek parameters to scale by.
        fd_error, weighted_error = refusals(affine_g_model, hv_init)
        assert type(fd_error) is type(weighted_error) is hg.UnsupportedModel
        assert str(fd_error).replace("fd:", "malliavin:") == str(weighted_error)


# ---------------------------------------------------------------------------
# per-path factors computed once per path set

_WEIGHTED = {
    "price": lambda p, f: hg.price(p, f),
    "delta": lambda p, f: hg.delta(p, f, p.s0),
    "rho": lambda p, f: hg.rho(p, f, p.maturity),
    "vega": lambda p, f: hg.vega(p, f, p.maturity),
    "vega_v0": lambda p, f: hg.bismut_vector(p, f)[1],
    "rho_r0": lambda p, f: hg.bismut_vector(p, f)[2],
    "kappa": lambda p, f: hg.drift_sensitivity(p, f, "kappa"),
    "reversion": lambda p, f: hg.drift_sensitivity(p, f, "reversion_speed"),
}


def _bits(est):
    return est.value.hex(), est.std_error.hex()


@pytest.mark.parametrize("kind", ["call", "put", "digital_call"])
@settings(max_examples=4, deadline=None)
@given(order=st.permutations(sorted(_WEIGHTED)))
def test_cached_factors_give_the_bits_of_a_fresh_copy(hv_paths_10k, kind, order):
    """Every weighted Greek has the same bits whichever estimates ran
    before it on the same paths, as on a copy with nothing cached."""
    payoff = hg.Payoff(kind, strike=100.0)
    shared = dataclasses.replace(hv_paths_10k)
    for greek in order:
        fresh = dataclasses.replace(hv_paths_10k)
        assert not fresh.factors
        assert _bits(_WEIGHTED[greek](shared, payoff)) == _bits(
            _WEIGHTED[greek](fresh, payoff))
    assert set(shared.factors) == {"discount", "C", "delta", "rho", "vega",
                                   "kappa", "reversion"}


@pytest.mark.parametrize("kind", ["call", "put", "digital_call"])
def test_weighted_estimates_are_the_fsum_reference_bit_for_bit(hv_paths_10k, kind):
    """Each Greek's estimate at three strikes, on paths shared by all of
    them, is fsum's mean and standard error of its samples to the bit,
    the samples formed on a copy with nothing cached."""
    paths = dataclasses.replace(hv_paths_10k)
    for strike in (80.0, 100.0, 120.0):
        payoff = hg.Payoff(kind, strike=strike)
        phi = hg.evaluate_payoff(payoff, paths.s_T)
        for greek, estimate in _WEIGHTED.items():
            samples = hg.greeks._GREEKS[greek].samples(
                dataclasses.replace(hv_paths_10k), phi)
            reference = fsum_mean_se(samples)
            assert _bits(estimate(paths, payoff)) == tuple(v.hex() for v in reference), (
                greek, strike)


def test_a_replaced_copy_prices_with_its_own_discount(hv_paths_10k, call_100):
    paths = dataclasses.replace(hv_paths_10k)
    base = hg.price(paths, call_100)
    shifted = dataclasses.replace(paths, D=paths.D + 0.01)
    assert not shifted.factors
    est = hg.price(shifted, call_100)
    phi = hg.evaluate_payoff(call_100, paths.s_T)
    assert (est.value, est.std_error) == hg.stable_mean_se(np.exp(-(paths.D + 0.01)) * phi)
    assert est.value < base.value
    assert _bits(hg.price(paths, call_100)) == _bits(base)


# ---------------------------------------------------------------------------
# what the estimators refuse, and where their warning points

def test_per_path_payoff_arrays_are_refused(hv_model, hv_init, monkeypatch):
    """An array of payoffs carries no strike to move with a bumped s0: the
    finite-difference delta read it as 0.0 +- 0.0.  Every estimator and
    fd_greek take a Payoff and refuse anything else; fd_greek refuses it
    before the first block is drawn."""
    cfg = hg.SimConfig(n_paths=4096, n_steps=16, maturity=1.0, seed=3)
    call = hg.Payoff("call", strike=100.0)
    paths = hg.simulate_paths(hv_model, hv_init, cfg)
    phi = hg.evaluate_payoff(call, paths.s_T)
    bump = hg.BumpSpec("delta", h=1.0)
    calls = []
    draws = hg.engine.standard_draws
    monkeypatch.setattr(hg.engine, "standard_draws",
                        lambda *a, **k: calls.append(a) or draws(*a, **k))
    with pytest.raises(hg.InvalidParams, match="Payoff") as info:
        hg.fd_greek(hv_model, hv_init, cfg, phi, bump)
    assert info.value.field == "payoff"
    assert calls == []
    with pytest.raises(hg.InvalidParams, match="Payoff"):
        hg.price(paths, phi)
    with pytest.raises(hg.InvalidParams, match="Payoff"):
        hg.delta(paths, phi, hv_init.s0)
    fd = hg.fd_greek(hv_model, hv_init, cfg, call, bump)
    assert fd.std_error > 0.0 and within_se(fd, 0.584)


# The drift integrals, which drift_extras=True adds.
_DRIFT = {"j2", "j3", "g3"}


def _refusals(paths):
    """Token -> exception class for every estimator that refuses ``paths``."""
    refused = {}
    for greek, estimate in _WEIGHTED.items():
        try:
            estimate(paths, hg.Payoff("call", strike=100.0))
        except hg.HsvGreeksError as exc:
            refused[greek] = type(exc)
    return refused


def test_each_token_refuses_paths_without_its_integrals(
        hv_model, hv_init, deg_model, deg_init):
    table = hg.greeks._GREEKS
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=5)
    state_only = hg.simulate_paths(hv_model, hv_init, cfg, weights=False)
    assert _refusals(state_only) == {
        g: hg.InvalidParams for g in table if g != "price"}
    # A degenerate model refuses the weights that divide by v(V_t) or
    # g(r_t), whatever its paths carry.
    for drift_extras in (False, True):
        constant = hg.simulate_paths(deg_model, deg_init, cfg, drift_extras=drift_extras)
        assert _refusals(constant) == {
            g: hg.UnsupportedModel for g in ("vega_v0", "rho_r0", "kappa", "reversion")}
    no_extras = hg.simulate_paths(hv_model, hv_init, cfg)
    assert _refusals(no_extras) == {
        g: hg.InvalidParams for g, spec in table.items() if _DRIFT.intersection(spec.reads)}


def test_refusals_name_the_field_the_paths_lack(
        hv_model, hv_init, deg_model, deg_init, call_100):
    """Paths simulated for delta carry no P2, P3 or drift integral; a
    Greek that reads one is refused with the field's name."""
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=5)
    for_delta = hg.simulate_paths(hv_model, hv_init, cfg,
                                  weights=hg.greeks._GREEKS["delta"].reads)
    assert for_delta.I1 is not None and for_delta.P2 is None
    # bismut_vector, which estimates vega_v0 and rho_r0, checks vega_v0 first.
    for greek, named in (("vega_v0", "vega_v0 reads P2"), ("rho_r0", "vega_v0 reads P2"),
                         ("kappa", "kappa reads j2"), ("reversion", "reversion reads g3")):
        with pytest.raises(hg.InvalidParams, match=f"malliavin:{named},"):
            _WEIGHTED[greek](for_delta, call_100)
    with pytest.raises(hg.InvalidParams, match="malliavin:rho_r0 reads P3,"):
        hg.greeks._weighted(("rho_r0",), for_delta, call_100)
    # bismut_vector also estimates delta, so it refuses paths without I1.
    for_p2 = hg.simulate_paths(hv_model, hv_init, cfg, weights=("P2", "P3"))
    with pytest.raises(hg.InvalidParams, match="malliavin:delta reads I1"):
        hg.bismut_vector(for_p2, call_100)
    # The degenerate model is refused as such, whatever the paths carry.
    for weights in (True, ("P2",), False):
        constant = hg.simulate_paths(deg_model, deg_init, cfg, weights=weights)
        with pytest.raises(hg.UnsupportedModel,
                           match=r"^malliavin:vega_v0 divides by v\(V_t\) or g\(r_t\)"):
            _WEIGHTED["vega_v0"](constant, call_100)


def test_clamp_warning_points_at_the_caller(hv_model, hv_init):
    """Each weighted estimator warns once on a path set not yet flagged, at
    the line that called it (here, its lambda in _WEIGHTED); the price's
    weight is 1, so it never warns."""
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=2,
                       sigma_floor=0.5)
    paths = hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
    for greek, estimate in _WEIGHTED.items():
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            # a copy, whose flag is not yet raised
            estimate(dataclasses.replace(paths), hg.Payoff("call", strike=100.0))
        flagged = [w for w in record
                   if issubclass(w.category, hg.DegenerateWeightWarning)]
        assert len(flagged) == (0 if greek == "price" else 1), greek
        assert all(w.filename == __file__ for w in flagged), greek


def test_a_path_set_is_flagged_once(hv_model, hv_init, call_100):
    """Every estimate from one path set shares its clamps, so the first
    weighted estimator warns and the next ones on the same paths do not; a
    copy is a path set of its own.  Each once warned again, and the
    command line printed one warning per weighted token of a size."""
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=2, sigma_floor=0.5)
    paths = hg.simulate_paths(hv_model, hv_init, cfg)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        hg.delta(paths, call_100, paths.s0)
        hg.vega(paths, call_100, paths.maturity)
        hg.bismut_vector(paths, call_100)
        hg.rho(dataclasses.replace(paths), call_100, paths.maturity)
    assert [w.category for w in record] == [hg.DegenerateWeightWarning] * 2
