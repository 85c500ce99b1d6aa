"""Finite-difference machinery and the closed-form pricing oracle."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import hsv_greeks as hg
from hsv_greeks.baselines import norm_cdf
from conftest import BS_DELTA, BS_PRICE, BS_RHO, BS_VEGA


# ---------------------------------------------------------------------------
# bump specification

def test_bump_spec_validation():
    with pytest.raises(hg.InvalidBump):
        hg.BumpSpec("spot")  # not a recognised target
    with pytest.raises(hg.InvalidBump):
        hg.BumpSpec("s0", scheme="centered")
    with pytest.raises(hg.InvalidBump):
        hg.BumpSpec("s0", h=0.0)
    with pytest.raises(hg.InvalidBump):
        hg.BumpSpec("s0", h=-1.0)


def test_default_bump_sizes(hv_init):
    assert hg.default_bump_size("s0", hv_init) == 0.01 * hv_init.s0
    assert hg.default_bump_size("v0", hv_init) == 0.01 * hv_init.v0
    for target in ("r0", "rho_shift_epsilon", "vega_shift_epsilon",
                   "kappa_epsilon", "reversion_epsilon"):
        assert hg.default_bump_size(target, hv_init) == 1e-4


def test_relative_bump_cap(hv_model, hv_init, call_100):
    cfg = hg.SimConfig(n_paths=16, n_steps=4, maturity=1.0, seed=0)
    big = hg.BumpSpec("v0", h=0.03)  # 75% of v0=0.04
    with pytest.raises(hg.InvalidBump):
        hg.fd_greek(hv_model, hv_init, cfg, call_100, big)


def test_r0_bump_size_is_not_capped(hv_model, hv_init, call_100):
    """r0 has no sign to protect: h may exceed half of |r0|."""
    init = dataclasses.replace(hv_init, r0=-0.02)
    cfg = hg.SimConfig(n_paths=16, n_steps=4, maturity=1.0, seed=0)
    est = hg.fd_greek(hv_model, init, cfg, call_100, hg.BumpSpec("r0", h=0.01))
    assert math.isfinite(est.value)


# ---------------------------------------------------------------------------
# closed-form oracle

def test_closed_form_matches_frozen_references():
    cf = hg.bs_closed_form(100.0, 100.0, 0.05, 0.2, 1.0)
    assert cf.price == pytest.approx(BS_PRICE, rel=1e-12)
    assert cf.delta == pytest.approx(BS_DELTA, rel=1e-12)
    assert cf.vega == pytest.approx(BS_VEGA, rel=1e-12)
    assert cf.rho == pytest.approx(BS_RHO, rel=1e-12)


def _lognormal_quad(payoff_fn, s0=100.0, r=0.05, sigma=0.2, maturity=1.0):
    """Discounted expectation of payoff(S_T) by direct integration."""
    drift = (r - 0.5 * sigma**2) * maturity
    scale = sigma * math.sqrt(maturity)

    def integrand(z):
        s_T = s0 * math.exp(drift + scale * z)
        return payoff_fn(s_T) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    value, _ = quad(integrand, -12.0, 12.0, limit=200)
    return math.exp(-r * maturity) * value


def test_closed_form_price_against_quadrature():
    direct = _lognormal_quad(lambda s: max(s - 100.0, 0.0))
    cf = hg.bs_closed_form(100.0, 100.0, 0.05, 0.2, 1.0)
    assert cf.price == pytest.approx(direct, abs=1e-9)


def test_closed_form_delta_matches_central_fd_of_price():
    h = 1e-4 * 100.0
    up = hg.bs_closed_form(100.0 + h, 100.0, 0.05, 0.2, 1.0).price
    dn = hg.bs_closed_form(100.0 - h, 100.0, 0.05, 0.2, 1.0).price
    fd = (up - dn) / (2 * h)
    assert fd == pytest.approx(BS_DELTA, rel=1e-6)


def test_closed_form_forward_limit():
    cf = hg.bs_closed_form(100.0, 1e-10, 0.05, 0.2, 1.0)
    assert cf.price == pytest.approx(100.0, abs=1e-8)
    assert cf.delta == pytest.approx(1.0, abs=1e-10)


def test_put_via_parity_matches_quadrature():
    cf = hg.bs_closed_form(100.0, 100.0, 0.05, 0.2, 1.0)
    put_parity = cf.price - (100.0 - 100.0 * math.exp(-0.05))
    put_direct = _lognormal_quad(lambda s: max(100.0 - s, 0.0))
    assert put_parity == pytest.approx(put_direct, abs=1e-10)


def test_closed_form_rejects_bad_inputs():
    with pytest.raises(hg.InvalidParams):
        hg.bs_closed_form(-100.0, 100.0, 0.05, 0.2, 1.0)
    with pytest.raises(hg.InvalidParams):
        hg.bs_closed_form(100.0, 100.0, 0.05, 0.0, 1.0)


def test_normal_cdf_accuracy():
    from scipy.special import ndtr
    for x in np.linspace(-8.0, 8.0, 41):
        assert abs(norm_cdf(float(x)) - ndtr(x)) <= 1e-12


# ---------------------------------------------------------------------------
# bump-and-revalue estimates

def test_fd_delta_matches_closed_form(deg_model, deg_init, call_100):
    cfg = hg.SimConfig(n_paths=20_000, n_steps=64, maturity=1.0, seed=41)
    est = hg.fd_greek(deg_model, deg_init, cfg, call_100,
                      hg.BumpSpec("s0", "central", h=1.0, crn=True))
    assert est.estimator == "fd_central"
    assert abs(est.value - BS_DELTA) <= 3 * est.std_error


def test_fd_shift_targets_match_closed_forms(deg_model, deg_init, call_100):
    """Under constant volatility the drift+discount shift is a rate bump and
    the diffusion-row shift is a sigma bump, so both have closed forms."""
    cfg = hg.SimConfig(n_paths=20_000, n_steps=64, maturity=1.0, seed=43)
    rho_est = hg.fd_greek(deg_model, deg_init, cfg, call_100,
                          hg.BumpSpec("rho_shift_epsilon", "central",
                                      h=1e-4, crn=True))
    vega_est = hg.fd_greek(deg_model, deg_init, cfg, call_100,
                           hg.BumpSpec("vega_shift_epsilon", "central",
                                       h=1e-4, crn=True))
    assert abs(rho_est.value - BS_RHO) <= 3 * rho_est.std_error
    assert abs(vega_est.value - BS_VEGA) <= 3 * vega_est.std_error


def test_crn_reduces_standard_error(hv_model, hv_init, call_100):
    cfg = hg.SimConfig(n_paths=10_000, n_steps=64, maturity=1.0, seed=47)
    crn = hg.fd_greek(hv_model, hv_init, cfg, call_100,
                      hg.BumpSpec("s0", "central", h=1.0, crn=True))
    indep = hg.fd_greek(hv_model, hv_init, cfg, call_100,
                        hg.BumpSpec("s0", "central", h=1.0, crn=False))
    assert crn.std_error < indep.std_error


def test_scheme_ordering_on_degenerate_delta(deg_model, deg_init, call_100):
    cfg = hg.SimConfig(n_paths=20_000, n_steps=64, maturity=1.0, seed=53)
    h = 0.01 * deg_init.s0
    central = hg.fd_greek(deg_model, deg_init, cfg, call_100,
                          hg.BumpSpec("s0", "central", h=h, crn=True))
    forward = hg.fd_greek(deg_model, deg_init, cfg, call_100,
                          hg.BumpSpec("s0", "forward", h=h, crn=True))
    combined = math.hypot(central.std_error, forward.std_error)
    assert abs(central.value - BS_DELTA) <= \
        abs(forward.value - BS_DELTA) + 3 * combined


def test_fd_agrees_with_weighted_estimator_on_same_draws(
        deg_model, deg_init, call_100):
    """CRN finite differences reuse stream 0, i.e. the exact draws behind the
    weighted estimator at the same config, so both see the same noise."""
    cfg = hg.SimConfig(n_paths=20_000, n_steps=64, maturity=1.0, seed=59)
    paths = hg.simulate_paths(deg_model, deg_init, cfg)
    mw = {
        "s0": hg.delta(paths, call_100, deg_init.s0),
        "rho_shift_epsilon": hg.rho(paths, call_100, cfg.maturity),
        "vega_shift_epsilon": hg.vega(paths, call_100, cfg.maturity),
    }
    for target, weighted in mw.items():
        fd = hg.fd_greek(deg_model, deg_init, cfg, call_100,
                         hg.BumpSpec(target, "central",
                                     h=hg.default_bump_size(target, deg_init),
                                     crn=True))
        assert hg.agrees(weighted, fd), target


def test_fd_prices_do_not_read_the_first_variations(hv_model, hv_init, call_100):
    """A bumped price steps the state only: a sigma' that overflows Y12 (and
    fails any weighted run) leaves every FD estimate as it was."""
    wild = dataclasses.replace(
        hv_model, sigma_prime=lambda V: np.full_like(V, 1e308))
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=61)
    for target in ("s0", "vega_shift_epsilon", "kappa_epsilon"):
        bump = hg.BumpSpec(target, h=hg.default_bump_size(target, hv_init))
        with np.errstate(over="ignore", invalid="ignore"):
            fd = hg.fd_greek(wild, hv_init, cfg, call_100, bump)
        assert fd == hg.fd_greek(hv_model, hv_init, cfg, call_100, bump), target


def test_agrees_helper():
    a = hg.GreekEstimate(1.0, 0.1, 100, "malliavin")
    b = hg.GreekEstimate(1.2, 0.1, 100, "fd_central")
    c = hg.GreekEstimate(2.0, 0.1, 100, "fd_central")
    assert hg.agrees(a, b) and hg.agrees(b, a)
    assert not hg.agrees(a, c)
