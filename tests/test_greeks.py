"""Weighted Greek estimators against frozen closed forms and FD oracles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hsv_greeks as hg
from conftest import (
    BS_DELTA,
    BS_DIGITAL_DELTA,
    BS_PRICE,
    BS_PUT_DELTA,
    BS_RHO,
    BS_VEGA,
    within_se,
)

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
    """The per-path weight of ``greek`` at a unit payoff (s0=100, T=1)."""
    return hg.greeks._GREEKS[greek].samples(paths, 1.0, 100.0, 1.0)


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


def test_stock_shift_is_rho_bitwise(hv_paths_10k, call_100):
    via_rho = hg.rho(hv_paths_10k, call_100, maturity=1.0)
    via_drift = hg.drift_sensitivity(hv_paths_10k, call_100, "stock_shift")
    assert via_drift.value == via_rho.value
    assert via_drift.std_error == via_rho.std_error


def test_bismut_first_component_is_delta_bitwise(hv_paths_10k, call_100):
    d, _, _ = hg.bismut_vector(hv_paths_10k, call_100)
    direct = hg.delta(hv_paths_10k, call_100, 100.0)
    assert d.value == direct.value and d.std_error == direct.std_error


def test_bismut_refused_on_degenerate(deg_paths_100k, call_100):
    with pytest.raises(hg.DegenerateModel):
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


def test_put_call_delta_consistency(hv_paths_10k):
    """call - put = identity - K * constant pathwise, so the same relation
    holds between the four delta estimates (up to summation rounding)."""
    strike = 100.0
    d_call = hg.delta(hv_paths_10k, hg.Payoff("call", strike=strike), 100.0)
    d_put = hg.delta(hv_paths_10k, hg.Payoff("put", strike=strike), 100.0)
    d_id = hg.delta(hv_paths_10k, IDENTITY, 100.0)
    d_const = hg.delta(hv_paths_10k, CONST_1, 100.0)
    lhs = d_call.value - d_put.value
    rhs = d_id.value - strike * d_const.value
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# hybrid-model agreement with finite differences (common random numbers)

def _crn_fd(hv_model, hv_init, cfg, payoff, target, h=None):
    spec = hg.BumpSpec(target, scheme="central",
                       h=h if h is not None else
                       hg.default_bump_size(target, hv_init), crn=True)
    return hg.fd_greek(hv_model, hv_init, cfg, payoff, spec)


def test_vega_v0_and_rho_r0_agree_with_fd(hv_model, hv_init, hv_cfg_10k,
                                          hv_paths_10k, call_100):
    _, vega_v0, rho_r0 = hg.bismut_vector(hv_paths_10k, call_100)
    fd_v0 = _crn_fd(hv_model, hv_init, hv_cfg_10k, call_100, "v0")
    fd_r0 = _crn_fd(hv_model, hv_init, hv_cfg_10k, call_100, "r0")
    assert hg.agrees(vega_v0, fd_v0)
    assert hg.agrees(rho_r0, fd_r0)


def test_kappa_and_reversion_agree_with_fd(hv_model, hv_init, hv_cfg_10k,
                                           hv_paths_10k, call_100):
    mw_kappa = hg.drift_sensitivity(hv_paths_10k, call_100, "kappa")
    mw_rev = hg.drift_sensitivity(hv_paths_10k, call_100, "reversion_speed")
    fd_kappa = _crn_fd(hv_model, hv_init, hv_cfg_10k, call_100,
                       "kappa_epsilon")
    fd_rev = _crn_fd(hv_model, hv_init, hv_cfg_10k, call_100,
                     "reversion_epsilon")
    assert hg.agrees(mw_kappa, fd_kappa)
    assert hg.agrees(mw_rev, fd_rev)


def test_kappa_constant_payoff_zero_mean(hv_paths_10k):
    est = hg.drift_sensitivity(hv_paths_10k, CONST_1, "kappa")
    assert within_se(est, 0.0)


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


def test_empty_input_is_rejected(hv_paths_10k, call_100):
    arrays = {f: getattr(hv_paths_10k, f)[:0]
              for f in ("s_T", "v_T", "r_T", "D", "I1", "I2", "I3", "A", "Q",
                        "w1_T", "P2", "P3", "y12_T", "y13_T", "y22_T",
                        "y33_T")}
    empty = dataclasses.replace(hv_paths_10k, **arrays)
    with pytest.raises(hg.EmptyInput):
        hg.price(empty, call_100)
    with pytest.raises(hg.EmptyInput):
        hg.stable_mean_se(np.array([]))


def test_clamp_warning_when_floor_dominates(deg_init, call_100):
    """A sigma floor above the actual volatility trips on every evaluation;
    the estimate comes back flagged rather than silently biased."""
    model = hg.black_scholes_degenerate(0.2, 0.05)
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
    assert set(shared.factors) == {"discount", "C"}


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
    bump = hg.BumpSpec("s0", h=1.0)
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
    constant = hg.simulate_paths(deg_model, deg_init, cfg)
    assert _refusals(constant) == {
        g: hg.UnsupportedModel if spec.drift_extras else hg.DegenerateModel
        for g, spec in table.items() if spec.hybrid_only}
    no_extras = hg.simulate_paths(hv_model, hv_init, cfg)
    assert _refusals(no_extras) == {
        g: hg.InvalidParams for g, spec in table.items() if spec.drift_extras}


def test_clamp_warning_points_at_the_caller(hv_model, hv_init):
    """Each weighted estimator warns once, at the line that called it (here,
    its lambda in _WEIGHTED); the price's weight is 1, so it never warns."""
    cfg = hg.SimConfig(n_paths=64, n_steps=4, maturity=1.0, seed=2,
                       sigma_floor=0.5)
    paths = hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
    for greek, estimate in _WEIGHTED.items():
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            estimate(paths, hg.Payoff("call", strike=100.0))
        flagged = [w for w in record
                   if issubclass(w.category, hg.DegenerateWeightWarning)]
        assert len(flagged) == (0 if greek == "price" else 1), greek
        assert all(w.filename == __file__ for w in flagged), greek
