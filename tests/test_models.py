"""Model construction, correlation mixing, payoffs, and validation probes."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import hsv_greeks as hg
from conftest import HV_CORR, HV_PARAMS
from reference import check_derivative_consistency


def random_valid_triples(n, seed):
    """Uniform correlation triples filtered to strictly positive radicand."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        r12, r13, r23 = rng.uniform(-0.98, 0.98, size=3)
        radicand = 1 - r12**2 - r13**2 - r23**2 + 2 * r12 * r13 * r23
        if radicand > 1e-4 and 1 - r12**2 > 1e-4:
            out.append(hg.CorrelationTriple(r12, r13, r23))
    return out


# ---------------------------------------------------------------------------
# mixing coefficients

def test_mixing_zero_correlation_is_identity():
    mu = hg.models._mixing_from_correlations(hg.CorrelationTriple(0.0, 0.0, 0.0))
    assert (mu.mu1, mu.mu2, mu.mu3) == (1.0, 0.0, 1.0)


def test_mixing_reference_triple():
    # mu3 = sqrt(1 - .64 - .25 - .0004 + 2*(-.8)(.5)(.02)) / 0.6
    mu = hg.models._mixing_from_correlations(HV_CORR)
    assert abs(mu.mu1 - 0.6) < 1e-12
    assert abs(mu.mu2 - 0.7) < 1e-6
    assert abs(mu.mu3 - 0.5099019513592785) < 1e-6


def test_mixing_rejects_non_psd_triple():
    with pytest.raises(hg.NonPositiveSemiDefinite) as info:
        hg.models._mixing_from_correlations(hg.CorrelationTriple(0.9, 0.9, 0.0))
    assert abs(info.value.radicand - (-0.62)) < 1e-12


def test_mixing_rejects_unit_rho12():
    with pytest.raises(hg.InvalidParams):
        hg.models._mixing_from_correlations(hg.CorrelationTriple(1.0, 0.0, 0.0))


def test_mixing_rejects_out_of_range_correlation():
    with pytest.raises(hg.InvalidParams):
        hg.CorrelationTriple(-1.5, 0.0, 0.0)


def test_unit_row_identities():
    """Rows of the lower-triangular loading matrix have unit norm."""
    for rho in random_valid_triples(300, seed=7):
        mu = hg.models._mixing_from_correlations(rho)
        assert abs(rho.rho12**2 + mu.mu1**2 - 1.0) < 1e-12
        assert abs(rho.rho13**2 + mu.mu2**2 + mu.mu3**2 - 1.0) < 1e-12


def correlations_of(mu, rho12, rho13):
    """The correlation triple of L*L^T for the loading rows (1, 0, 0),
    (rho12, mu1, 0) and (rho13, mu2, mu3), with the diagonal checked to be 1."""
    L = np.array([[1.0, 0.0, 0.0], [rho12, mu.mu1, 0.0], [rho13, mu.mu2, mu.mu3]])
    R = L @ L.T
    assert np.max(np.abs(np.diag(R) - 1.0)) < 1e-12
    return hg.CorrelationTriple(R[1, 0], R[2, 0], R[2, 1])


def test_reconstruct_reference_triple():
    back = correlations_of(hg.models._mixing_from_correlations(HV_CORR), -0.8, 0.5)
    assert abs(back.rho23 - 0.02) < 1e-12


def test_round_trip_both_directions():
    # correlations -> mu -> L*L^T, and mu -> L*L^T -> mu.  With mu1, mu3 > 0
    # the lower-triangular L with L*L^T = R is unique, so this pins the mixing.
    for rho in random_valid_triples(300, seed=11):
        mu = hg.models._mixing_from_correlations(rho)
        back = correlations_of(mu, rho.rho12, rho.rho13)
        assert abs(back.rho23 - rho.rho23) < 1e-12
        mu2 = hg.models._mixing_from_correlations(back)
        assert abs(mu2.mu1 - mu.mu1) < 1e-12
        assert abs(mu2.mu2 - mu.mu2) < 1e-12
        assert abs(mu2.mu3 - mu.mu3) < 1e-12


# ---------------------------------------------------------------------------
# hybrid model factory

def test_hv_coefficient_functions(hv_model):
    v = np.array([0.04])
    assert hv_model.sigma(v)[0] == pytest.approx(0.2, abs=1e-15)
    assert hv_model.u(np.array([HV_PARAMS.theta]))[0] == 0.0
    r = np.array([0.1])
    assert hv_model.f(r)[0] == pytest.approx(0.02 * (0.08 - 0.1))
    assert hv_model.g == 0.002


def test_hv_sigma_prime_matches_half_inverse_sqrt(hv_model):
    for v in (0.01, 0.04, 1.0):
        got = hv_model.sigma_prime(np.array([v]))[0]
        assert abs(got - 0.5 / math.sqrt(v)) < 1e-10


def test_derivative_consistency_probe_accepts_hv(hv_model, deg_model):
    """Each builder's derivative fields match its functions: the package
    takes them as given."""
    for model in (hv_model, deg_model):
        check_derivative_consistency(model)  # should not raise


def test_derivative_consistency_probe_rejects_wrong_derivative(hv_model):
    broken = dataclasses.replace(
        hv_model, f_prime=lambda r: np.full_like(r, 123.0))
    with pytest.raises(hg.InvalidParams, match="f_prime"):
        check_derivative_consistency(broken)


def test_derivative_consistency_probe_reads_number_fields(hv_model):
    # A number is a constant, whose derivative is 0, not 1.
    broken = dataclasses.replace(hv_model, g=0.002, g_prime=1.0)
    with pytest.raises(hg.InvalidParams, match="g_prime"):
        check_derivative_consistency(broken)


def test_derivative_consistency_probe_accepts_a_non_constant_g(affine_g_model):
    check_derivative_consistency(affine_g_model)  # should not raise


def test_positivity_condition_default_is_strict(caplog):
    # kappa*theta = 1e-4 < sigma_vol^2 = 0.04: rejected by default...
    bad = hg.HestonVasicekParams(0.01, 0.01, 0.2, 0.02, 0.08, 0.002)
    with pytest.raises(hg.InvalidParams):
        hg.heston_vasicek_model(bad, HV_CORR)
    # ...but only logged with enforcement off.
    import logging
    with caplog.at_level(logging.WARNING, logger="hsv_greeks.models"):
        hg.heston_vasicek_model(bad, HV_CORR, enforce=False)
    assert any("positivity" in rec.message for rec in caplog.records)


def test_positivity_condition_feller_form_is_weaker():
    # kappa*theta = 0.04 < sigma_vol^2 = 0.06 <= 2*kappa*theta = 0.08
    p = hg.HestonVasicekParams(1.0, 0.04, math.sqrt(0.06), 0.02, 0.08, 0.002)
    with pytest.raises(hg.InvalidParams):
        hg.heston_vasicek_model(p, HV_CORR, condition="strict")
    hg.heston_vasicek_model(p, HV_CORR, condition="feller")


def test_hv_params_must_be_positive():
    with pytest.raises(hg.InvalidParams):
        hg.HestonVasicekParams(2.0, 0.04, 0.04, -0.02, 0.08, 0.002)
    with pytest.raises(hg.InvalidParams):
        hg.HestonVasicekParams(2.0, 0.0, 0.04, 0.02, 0.08, 0.002)


def test_hv_novikov_margin_of_reference_params():
    # 2 * 0.04 = 0.08 >= 0.04^2 = 0.0016 with a wide margin.
    assert HV_PARAMS.kappa * HV_PARAMS.theta >= HV_PARAMS.sigma_vol**2
    hg.heston_vasicek_model(HV_PARAMS, HV_CORR)  # accepted


# ---------------------------------------------------------------------------
# degenerate constant-coefficient model

def test_degenerate_model_flags(deg_model):
    assert deg_model.degenerate
    assert deg_model.sigma == 0.2
    assert deg_model.v == 0.0
    assert deg_model.g == 0.0


def test_degenerate_model_rejects_bad_sigma():
    with pytest.raises(hg.InvalidParams):
        hg.black_scholes_degenerate(0.0)


def test_degenerate_model_rate_is_the_initial_r0():
    """The constant-coefficient model has no rate of its own to disagree
    with the initial state's r0, which the engine steps at."""
    assert list(inspect.signature(hg.black_scholes_degenerate).parameters) == ["sigma"]
    with pytest.raises(TypeError):
        hg.black_scholes_degenerate(0.2, 0.05)


# ---------------------------------------------------------------------------
# state and payoff types

def test_initial_state_validation():
    with pytest.raises(hg.InvalidParams):
        hg.InitialState(0.0, 0.04, 0.02)
    with pytest.raises(hg.InvalidParams):
        hg.InitialState(100.0, 0.0, 0.02)
    with pytest.raises(hg.InvalidParams):
        hg.InitialState(100.0, 0.04, float("nan"))
    hg.InitialState(100.0, 0.04, -0.01)  # negative rates are fine


def test_payoff_evaluation_table():
    s = np.array([95.0, 100.0, 103.0])
    call = hg.evaluate_payoff(hg.Payoff("call", strike=100.0), s)
    assert list(call) == [0.0, 0.0, 3.0]
    put = hg.evaluate_payoff(hg.Payoff("put", strike=100.0), s)
    assert list(put) == [5.0, 0.0, 0.0]
    # strict inequality at the kink: s_T = K pays nothing
    dig = hg.evaluate_payoff(hg.Payoff("digital_call", strike=100.0), s)
    assert list(dig) == [0.0, 0.0, 1.0]
    # cash-or-nothing: a digital pays its level
    dig2 = hg.evaluate_payoff(
        hg.Payoff("digital_call", strike=100.0, level=2.5), s)
    assert list(dig2) == [0.0, 0.0, 2.5]
    const = hg.evaluate_payoff(hg.Payoff("constant", level=1.5), s)
    assert list(const) == [1.5, 1.5, 1.5]
    ident = hg.evaluate_payoff(hg.Payoff("identity"), s)
    assert list(ident) == list(s)


def test_payoff_rejects_unknown_kind_and_negative_strike():
    with pytest.raises(hg.InvalidParams):
        hg.Payoff("straddle", strike=100.0)
    with pytest.raises(hg.InvalidParams):
        hg.Payoff("call", strike=-1.0)
    for kind in ("call", "put", "digital_call"):
        with pytest.raises(hg.InvalidParams, match="^strike must be > 0, got 0.0$"):
            hg.Payoff(kind, strike=0.0)
    with pytest.raises(hg.InvalidParams):
        hg.Payoff("digital_call", strike=100.0, level=float("inf"))
