"""Shared fixtures: the expensive path sets are simulated once per session.

Oracle values below were computed independently of the library (closed-form
Black-Scholes evaluated with scipy's normal distribution at σ=0.2, r=0.05,
S0=K=100, T=1) and are frozen here so regressions cannot hide behind a
drifting reference.
"""

import dataclasses
import os

import numpy as np
import pytest

import hsv_greeks as hg

SEED_DEG = 20_240
SEED_HV = 31_415

# Closed-form references for the constant-coefficient limit.
BS_PRICE = 10.450583572185565
BS_DELTA = 0.6368306511756191
BS_VEGA = 37.52403469169379
BS_RHO = 53.232481545376345
BS_DIGITAL_DELTA = 0.018762017345846895
BS_PUT_DELTA = BS_DELTA - 1.0

HV_PARAMS = hg.HestonVasicekParams(kappa=2.0, theta=0.04, sigma_vol=0.04,
                                   a=0.02, b=0.08, k=0.002)
HV_CORR = hg.CorrelationTriple(rho12=-0.8, rho13=0.5, rho23=0.02)


def within_se(estimate, target, n_se=3.0):
    """|estimate - target| <= n_se * SE, with a floor so SE=0 means equality."""
    band = n_se * max(estimate.std_error, 1e-300)
    return abs(estimate.value - target) <= band


def combined_agree(a, b, n_se=3.0):
    return hg.agrees(a, b, n_se=n_se)


# The directory the package was imported from, for child interpreters.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hg.__file__)))


def cli_env():
    """Environment for a ``python -m hsv_greeks.cli`` child process: this
    one's, with the imported package's directory first on PYTHONPATH so the
    child imports the same code whether or not PYTHONPATH was set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def deg_model():
    return hg.black_scholes_degenerate(0.2)


@pytest.fixture(scope="session")
def deg_init():
    return hg.InitialState(s0=100.0, v0=0.04, r0=0.05)


@pytest.fixture(scope="session")
def deg_cfg_100k():
    return hg.SimConfig(n_paths=100_000, n_steps=252, maturity=1.0,
                        seed=SEED_DEG)


@pytest.fixture(scope="session")
def deg_paths_100k(deg_model, deg_init, deg_cfg_100k):
    return hg.simulate_paths(deg_model, deg_init, deg_cfg_100k)


@pytest.fixture(scope="session")
def hv_model():
    return hg.heston_vasicek_model(HV_PARAMS, HV_CORR)


@pytest.fixture(scope="session")
def affine_g_model():
    """Heston–Vasicek with sigma_vol 0.2, k 0.1 and the rate volatility
    g(r) = k(1 + r), which is no constant: 1/g, L33 and y33 then run the
    engine's array form, which no shipped model does."""
    k = 0.1
    base = hg.heston_vasicek_model(
        dataclasses.replace(HV_PARAMS, sigma_vol=0.2, k=k), HV_CORR)
    return dataclasses.replace(
        base, g=lambda r: k * (1.0 + r),
        g_prime=lambda r: np.full_like(r, k), hv_params=None)


@pytest.fixture(scope="session")
def hv_init():
    return hg.InitialState(s0=100.0, v0=0.04, r0=0.02)


@pytest.fixture(scope="session")
def hv_cfg_100k():
    return hg.SimConfig(n_paths=100_000, n_steps=252, maturity=1.0,
                        seed=SEED_HV)


@pytest.fixture(scope="session")
def hv_paths_100k(hv_model, hv_init, hv_cfg_100k):
    return hg.simulate_paths(hv_model, hv_init, hv_cfg_100k,
                             drift_extras=True)


@pytest.fixture(scope="session")
def hv_cfg_10k():
    return hg.SimConfig(n_paths=10_000, n_steps=252, maturity=1.0,
                        seed=SEED_HV)


@pytest.fixture(scope="session")
def hv_paths_10k(hv_model, hv_init, hv_cfg_10k):
    return hg.simulate_paths(hv_model, hv_init, hv_cfg_10k, drift_extras=True)


@pytest.fixture()
def call_100():
    return hg.Payoff("call", strike=100.0)
