"""Finite-difference machinery and the closed-form pricing oracle."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import hsv_greeks as hg
from hsv_greeks.baselines import norm_cdf
from conftest import BS_DELTA, BS_PRICE, BS_RHO, BS_VEGA
from reference import fd_reference, fsum_mean_se, moved, stock_drift_fd

FD_GREEKS = ("delta", "rho", "vega", "vega_v0", "rho_r0", "kappa", "reversion")


# ---------------------------------------------------------------------------
# bump specification

def test_bump_spec_validation():
    with pytest.raises(hg.InvalidParams):
        hg.BumpSpec("spot")  # not a Greek token
    with pytest.raises(TypeError, match="scheme"):
        hg.BumpSpec("delta", scheme="central")
    with pytest.raises(hg.InvalidParams):
        hg.BumpSpec("delta", h=0.0)
    with pytest.raises(hg.InvalidParams):
        hg.BumpSpec("delta", h=-1.0)


@pytest.mark.parametrize("kwargs, field", [
    (dict(h=True), "h"), (dict(h="1"), "h"), (dict(h=None), "h"),
    (dict(crn="off"), "crn"), (dict(crn=1), "crn"), (dict(crn=None), "crn")])
def test_bump_spec_refuses_bools_and_text(kwargs, field):
    """h=True was taken as 1 and h="1" raised a bare TypeError; each is
    refused by its field.  A crn of "off" once ran with common random
    numbers; crn went with the independent-stream form, and any value of
    it is refused as an unexpected keyword, never ignored."""
    if field == "crn":
        with pytest.raises(TypeError, match=field):
            hg.BumpSpec("delta", **kwargs)
        return
    with pytest.raises(hg.InvalidParams, match=field) as info:
        hg.BumpSpec("delta", **kwargs)
    assert info.value.field == field


@pytest.mark.parametrize("spelling", ["s0", "rho_shift_epsilon"])
def test_bumps_are_named_by_greek_only(spelling):
    """The bump targets that once named these bumps are refused, and the
    refusal lists the Greek tokens."""
    with pytest.raises(hg.InvalidParams) as err:
        hg.BumpSpec(spelling)
    assert str(FD_GREEKS) in str(err.value)


def test_default_bump_sizes(hv_init):
    assert hg.default_bump_size("delta", hv_init) == 0.01 * hv_init.s0
    assert hg.default_bump_size("vega_v0", hv_init) == 0.01 * hv_init.v0
    for greek in ("rho_r0", "rho", "vega", "kappa", "reversion"):
        assert hg.default_bump_size(greek, hv_init) == 1e-4


def test_relative_bump_cap(hv_model, hv_init, call_100):
    cfg = hg.SimConfig(n_paths=16, n_steps=4, maturity=1.0, seed=0)
    big = hg.BumpSpec("vega_v0", h=0.03)  # 75% of v0=0.04
    with pytest.raises(hg.InvalidParams):
        hg.fd_greek(hv_model, hv_init, cfg, call_100, big)


def test_r0_bump_size_is_not_capped(hv_model, hv_init, call_100):
    """r0 has no sign to protect: h may exceed half of |r0|."""
    init = dataclasses.replace(hv_init, r0=-0.02)
    cfg = hg.SimConfig(n_paths=16, n_steps=4, maturity=1.0, seed=0)
    est = hg.fd_greek(hv_model, init, cfg, call_100, hg.BumpSpec("rho_r0", h=0.01))
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
    est = hg.fd_greek(deg_model, deg_init, cfg, call_100, hg.BumpSpec("delta", h=1.0))
    assert est.estimator == "fd_central"
    assert abs(est.value - BS_DELTA) <= 3 * est.std_error


def test_fd_shift_targets_match_closed_forms(deg_model, deg_init, call_100):
    """Under constant volatility the drift+discount shift is a rate bump and
    the diffusion-row shift is a sigma bump, so both have closed forms."""
    cfg = hg.SimConfig(n_paths=20_000, n_steps=64, maturity=1.0, seed=43)
    rho_est = hg.fd_greek(deg_model, deg_init, cfg, call_100, hg.BumpSpec("rho", h=1e-4))
    vega_est = hg.fd_greek(deg_model, deg_init, cfg, call_100, hg.BumpSpec("vega", h=1e-4))
    assert abs(rho_est.value - BS_RHO) <= 3 * rho_est.std_error
    assert abs(vega_est.value - BS_VEGA) <= 3 * vega_est.std_error


def _prices(model, init, cfg, payoff, greek, offset):
    """Per-path discounted payoffs of the pair moved by ``offset``."""
    paths = hg.simulate_paths(*moved(model, init, greek, offset), cfg, weights=False)
    return np.exp(-paths.D) * hg.evaluate_payoff(payoff, paths.s_T)


def test_crn_reduces_standard_error(hv_model, hv_init, call_100):
    """fd_greek differences its pair path by path on the same draws; the
    same pair priced on independent draws, seeds 47 and 48, has a wider
    standard error."""
    cfg = hg.SimConfig(n_paths=10_000, n_steps=64, maturity=1.0, seed=47)
    crn = hg.fd_greek(hv_model, hv_init, cfg, call_100, hg.BumpSpec("delta", h=1.0))
    (_, se_hi), (_, se_lo) = (
        fsum_mean_se(_prices(hv_model, hv_init, dataclasses.replace(cfg, seed=seed),
                             call_100, "delta", offset))
        for offset, seed in ((1.0, 47), (-1.0, 48)))
    assert crn.std_error < math.hypot(se_hi, se_lo) / 2.0


def test_scheme_ordering_on_degenerate_delta(deg_model, deg_init, call_100):
    """The central difference is no further from the closed form than the
    forward difference of the same draws, restated here, which carries an
    O(h) bias."""
    cfg = hg.SimConfig(n_paths=20_000, n_steps=64, maturity=1.0, seed=53)
    h = 0.01 * deg_init.s0
    central = hg.fd_greek(deg_model, deg_init, cfg, call_100, hg.BumpSpec("delta", h=h))
    forward, forward_se = fsum_mean_se(
        (_prices(deg_model, deg_init, cfg, call_100, "delta", h)
         - _prices(deg_model, deg_init, cfg, call_100, "delta", 0.0)) / h)
    combined = math.hypot(central.std_error, forward_se)
    assert abs(central.value - BS_DELTA) <= abs(forward - BS_DELTA) + 3 * combined


def test_fd_agrees_with_weighted_estimator_on_same_draws(
        deg_model, deg_init, call_100):
    """Finite differences reuse the exact draws behind the weighted
    estimator at the same config, so both see the same noise."""
    cfg = hg.SimConfig(n_paths=20_000, n_steps=64, maturity=1.0, seed=59)
    paths = hg.simulate_paths(deg_model, deg_init, cfg)
    mw = {
        "delta": hg.delta(paths, call_100, deg_init.s0),
        "rho": hg.rho(paths, call_100, cfg.maturity),
        "vega": hg.vega(paths, call_100, cfg.maturity),
    }
    for greek, weighted in mw.items():
        fd = hg.fd_greek(deg_model, deg_init, cfg, call_100,
                         hg.BumpSpec(greek, h=hg.default_bump_size(greek, deg_init)))
        assert hg.agrees(weighted, fd), greek


def test_fd_prices_do_not_read_the_first_variations(hv_model, hv_init, call_100):
    """A bumped price steps the state only: a sigma' that overflows Y12 (and
    fails any weighted run) leaves every FD estimate as it was."""
    wild = dataclasses.replace(
        hv_model, sigma_prime=lambda V: np.full_like(V, 1e308))
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=61)
    for greek in ("delta", "vega", "kappa"):
        bump = hg.BumpSpec(greek, h=hg.default_bump_size(greek, hv_init))
        with np.errstate(over="ignore", invalid="ignore"):
            fd = hg.fd_greek(wild, hv_init, cfg, call_100, bump)
        assert fd == hg.fd_greek(hv_model, hv_init, cfg, call_100, bump), greek


@pytest.mark.parametrize("crn", [True, False], ids=["crn", "independent"])
@pytest.mark.parametrize("scheme", ["forward", "backward", "central"])
@pytest.mark.parametrize("model_name,greek", [
    *(("hybrid", g) for g in FD_GREEKS),
    *(("black_scholes", g) for g in ("delta", "rho", "vega")),
])
def test_fd_greek_matches_the_reference_bumps(model_name, greek, scheme, crn,
                                              hv_model, hv_init, deg_model,
                                              deg_init, call_100):
    """What the Greek table says a bump moves gives, bit for bit, the
    central estimate on common random numbers of the moved (model, init)
    pairs restated in the test.  ``scheme`` and ``crn`` spelled the
    one-sided and independent-stream forms, which are gone: each spelling
    is refused as an unexpected keyword, never ignored."""
    model, init = ((hv_model, hv_init) if model_name == "hybrid"
                   else (deg_model, deg_init))
    cfg = hg.SimConfig(n_paths=200, n_steps=8, maturity=1.0, seed=67)
    h = hg.default_bump_size(greek, init)
    for removed in ({"scheme": scheme}, {"crn": crn}):
        with pytest.raises(TypeError, match=next(iter(removed))):
            hg.BumpSpec(greek, h=h, **removed)
    est = hg.fd_greek(model, init, cfg, call_100, hg.BumpSpec(greek, h=h))
    assert est.estimator == "fd_central"
    assert (est.value, est.std_error, est.clamp_count) == fd_reference(
        model, init, cfg, call_100, greek, h)


@pytest.mark.parametrize("scheme", ["forward", "central"])
@pytest.mark.parametrize("model_name", ["hybrid", "black_scholes"])
def test_fd_rho_moving_every_rate_matches_the_stock_drift_shift(
        model_name, scheme, hv_model, hv_init, deg_model, deg_init, call_100):
    """Moving every rate by h, so that the stock drift and D both carry
    r + h, gives the CRN estimate of shifting the stock drift alone and
    discounting by e^{-D - hT}, to rounding.  The forward scheme is gone:
    its spelling is refused, as is the central one."""
    model, init = ((hv_model, hv_init) if model_name == "hybrid"
                   else (deg_model, deg_init))
    cfg = hg.SimConfig(n_paths=2000, n_steps=16, maturity=1.0, seed=71)
    with pytest.raises(TypeError, match="scheme"):
        hg.BumpSpec("rho", scheme=scheme, h=1e-4)
    est = hg.fd_greek(model, init, cfg, call_100, hg.BumpSpec("rho", h=1e-4))
    value, se = stock_drift_fd(model, init, cfg, call_100, 1e-4)
    assert est.value == pytest.approx(value, rel=1e-11, abs=0.0)
    assert est.std_error == pytest.approx(se, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("scheme", ["forward", "backward", "central"])
@pytest.mark.parametrize("greek", ["kappa", "reversion"])
def test_unsupported_fd_bumps_are_refused_before_any_draw(
        greek, scheme, deg_model, deg_init, call_100, monkeypatch):
    """A bump scaled by a Heston–Vasicek parameter is refused on another
    model before the first block is drawn: the backward scheme once drew
    its base price first.  The schemes are gone, and a spelled one is
    refused before a draw too."""
    calls = []
    draws = hg.engine.standard_draws
    monkeypatch.setattr(hg.engine, "standard_draws",
                        lambda *a, **k: calls.append(a) or draws(*a, **k))
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=0)
    with pytest.raises(TypeError, match="scheme"):
        hg.BumpSpec(greek, scheme=scheme)
    with pytest.raises(hg.UnsupportedModel, match=f"fd:{greek}"):
        hg.fd_greek(deg_model, deg_init, cfg, call_100, hg.BumpSpec(greek))
    assert calls == []


@pytest.mark.parametrize("greek", ["vega_v0", "rho_r0"])
def test_initial_state_bumps_run_on_the_degenerate_model(
        greek, deg_model, deg_init, call_100):
    """A bump needs no ellipticity.  On Black–Scholes, where f = g = 0,
    moving r0 moves every rate, so CRN fd:rho_r0 is fd:rho bit for bit,
    and V moves nothing, so CRN fd:vega_v0 is 0.0 +- 0.0, for a digital
    call too: S_T does not move, so no crossing is missing.  Both were once
    refused on every degenerate model."""
    cfg = hg.SimConfig(n_paths=4096, n_steps=16, maturity=1.0, seed=0)
    est = hg.fd_greek(deg_model, deg_init, cfg, call_100, hg.BumpSpec(greek))
    if greek == "vega_v0":
        digital = hg.Payoff("digital_call", strike=100.0)
        assert (est.value, est.std_error) == (0.0, 0.0)
        assert hg.fd_greek(deg_model, deg_init, cfg, digital, hg.BumpSpec(greek)).value == 0.0
    else:
        rho = hg.fd_greek(deg_model, deg_init, cfg, call_100, hg.BumpSpec("rho"))
        assert est == rho
        assert abs(rho.value - BS_RHO) <= 4 * rho.std_error


def test_agrees_helper():
    a = hg.GreekEstimate(1.0, 0.1, 100, "malliavin")
    b = hg.GreekEstimate(1.2, 0.1, 100, "fd_central")
    c = hg.GreekEstimate(2.0, 0.1, 100, "fd_central")
    assert hg.agrees(a, b) and hg.agrees(b, a)
    assert not hg.agrees(a, c)
