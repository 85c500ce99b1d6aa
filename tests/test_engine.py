"""Path simulation: accumulators, first variations, determinism."""

import dataclasses
import functools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.random import Generator, Philox
from scipy.special import ndtri

import hsv_greeks as hg
from conftest import SEED_HV


def small_cfg(**kw):
    base = dict(n_paths=400, n_steps=32, maturity=1.0, seed=777)
    base.update(kw)
    return hg.SimConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation

@pytest.mark.parametrize("field,value", [
    ("n_paths", 0), ("n_steps", 0), ("maturity", 0.0), ("maturity", -1.0),
    ("variance_floor", -1e-9), ("sigma_floor", 0.0), ("seed", -1),
    ("worker_hint", 0),
])
def test_sim_config_rejects_bad_values(field, value):
    with pytest.raises(hg.InvalidConfig) as info:
        hg.SimConfig(**{field: value})
    assert field in str(info.value)


def test_perturbation_rejects_unknown_target():
    with pytest.raises(hg.InvalidParams):
        hg.Perturbation("volvol_drift", 0.01)


# ---------------------------------------------------------------------------
# RNG purity

def test_draw_purity_under_path_offset():
    """Path p of a block equals path 0 of a block starting at p."""
    all_draws = hg.standard_draws(123, 50, 16)
    for p in (0, 7, 31, 49):
        solo = hg.standard_draws(123, 1, 16, first_path=p)
        assert np.array_equal(all_draws[p], solo[0])


def test_draw_shape_and_normality():
    z = hg.standard_draws(5, 2000, 8)
    assert z.shape == (2000, 8, 3)
    assert abs(z.mean()) < 0.05 and abs(z.std() - 1.0) < 0.05


def test_draw_streams_are_distinct():
    a = hg.standard_draws(5, 10, 8, stream=0)
    b = hg.standard_draws(5, 10, 8, stream=1)
    assert not np.array_equal(a, b)


def test_draws_depend_on_seed():
    assert not np.array_equal(hg.standard_draws(1, 4, 8),
                              hg.standard_draws(2, 4, 8))


def _path_major_draws(seed, n_paths, n_steps):
    """The draws as first defined: one Philox block of path-major rows,
    each row padded to whole counter ticks of four words."""
    stride = 4 * -(-3 * n_steps // 4)
    bg = Philox(key=np.array([seed, 0], dtype=np.uint64))
    u = Generator(bg).random((n_paths, stride))[:, : 3 * n_steps]
    return ndtri(np.maximum(u, 1e-300)).reshape(n_paths, n_steps, 3)


@pytest.mark.parametrize("n_steps", [1, 5, 16])
def test_draws_are_the_path_major_draws_stored_step_major(n_steps):
    n_paths = 2 * hg.engine._DRAW_CHUNK + 3
    z = hg.standard_draws(11, n_paths, n_steps)
    assert z.shape == (n_paths, n_steps, 3)
    assert np.array_equal(z, _path_major_draws(11, n_paths, n_steps))
    assert z[:, n_steps - 1, 2].flags.c_contiguous


_CHUNK = hg.engine._DRAW_CHUNK
_BLOCK = hg.engine._BLOCK_PATHS
_SPAN = _BLOCK + 2 * _CHUNK
_NEAR_EDGE = st.sampled_from((_CHUNK, 2 * _CHUNK, _BLOCK)).flatmap(
    lambda edge: st.integers(edge - 3, edge + 3))
_PATH_INDEX = st.one_of(st.integers(0, _SPAN - 1), _NEAR_EDGE)


@functools.lru_cache(maxsize=None)
def _one_large_draw(n_steps):
    return hg.standard_draws(99, _SPAN, n_steps)


@settings(max_examples=150, deadline=None)
@given(a=_PATH_INDEX, b=_PATH_INDEX, n_steps=st.integers(1, 3))
def test_draws_are_pure_under_any_split(a, b, n_steps):
    """Paths first..last of any draw are rows first..last of one large draw,
    across the chunk edges of the draw and the block edge of the engine."""
    first, stop = min(a, b), max(a, b) + 1
    part = hg.standard_draws(99, stop - first, n_steps, first_path=first)
    assert np.array_equal(part, _one_large_draw(n_steps)[first:stop])


def test_draws_allocate_little_beyond_their_output():
    """The inverse CDF runs in place on one small reused buffer."""
    tracemalloc.start()
    try:
        z = hg.standard_draws(3, 16384, 252)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * z.nbytes


# ---------------------------------------------------------------------------
# accumulator contracts

def test_record_count_and_finiteness(hv_paths_10k):
    acc = hv_paths_10k
    assert acc.s_T.shape == (10_000,)
    for name in ("s_T", "v_T", "r_T", "D", "I1", "I2", "I3", "A", "Q",
                 "w1_T", "P2", "P3", "y12_T", "y13_T", "y22_T", "y33_T"):
        assert np.all(np.isfinite(getattr(acc, name))), name


def test_degenerate_integrals_are_deterministic(deg_model, deg_init):
    """Constant sigma and r make D, A, Q deterministic grid sums.

    Every path produces the identical value, equal to rT, sigma*T and
    T/sigma up to the rounding of the grid sum itself (a few ulp).
    """
    for steps in (32, 252):
        acc = hg.simulate_paths(deg_model, deg_init, small_cfg(n_steps=steps))
        for field, value in (("D", 0.05), ("A", 0.2), ("Q", 5.0)):
            got = getattr(acc, field)
            assert np.all(got == got[0]), field  # identical across paths
            assert got[0] == pytest.approx(value, rel=1e-13)


def test_first_variation_terminals_positive(hv_paths_10k):
    assert np.all(hv_paths_10k.y22_T > 0)
    assert np.all(hv_paths_10k.y33_T > 0)


def test_degenerate_p23_sentinel(deg_model, deg_init):
    acc = hg.simulate_paths(deg_model, deg_init, small_cfg())
    assert not acc.p23_valid
    assert np.all(np.isnan(acc.P2)) and np.all(np.isnan(acc.P3))


def test_drift_extras_refused_on_degenerate(deg_model, deg_init):
    with pytest.raises(hg.DegenerateModel):
        hg.simulate_paths(deg_model, deg_init, small_cfg(), drift_extras=True)


def test_one_step_hand_check(deg_model):
    """One log-Euler step with zero noise: s_T = 100 * exp(r - sigma^2/2)."""
    init = hg.InitialState(100.0, 0.04, 0.05)
    cfg = hg.SimConfig(n_paths=3, n_steps=1, maturity=1.0, seed=0)
    series = hg.simulate_series(deg_model, init, cfg,
                                increments=np.zeros((3, 1, 3)))
    expect = 100.0 * math.exp(0.05 - 0.5 * 0.2**2)
    assert series.accumulators.s_T[0] == pytest.approx(expect, rel=1e-12)


def test_martingale_property(hv_paths_100k, hv_init):
    """Risk-neutral drift: E[e^{-D} s_T] = s0."""
    mean, se = hg.stable_mean_se(np.exp(-hv_paths_100k.D) * hv_paths_100k.s_T)
    assert abs(mean - hv_init.s0) <= 3 * se


def test_ito_integrals_have_zero_mean(hv_paths_10k):
    for name in ("I1", "I2", "I3", "P2", "P3"):
        mean, se = hg.stable_mean_se(getattr(hv_paths_10k, name))
        assert abs(mean) <= 3 * se, f"{name}: mean {mean}, se {se}"


def test_blowup_reports_path_and_step(hv_init):
    # enormous constant rate volatility: r random-walks past the 1e12 limit
    wild = hg.heston_vasicek_model(
        hg.HestonVasicekParams(2.0, 0.04, 0.04, 0.02, 0.08, 1e14),
        hg.CorrelationTriple(-0.8, 0.5, 0.02))
    with pytest.raises(hg.NumericalBlowup) as info:
        hg.simulate_paths(wild, hv_init, small_cfg(n_paths=16))
    assert info.value.path_index is not None
    assert info.value.step_index is not None


# ---------------------------------------------------------------------------
# determinism

def test_bitwise_determinism_across_worker_counts(hv_model, hv_init):
    runs = []
    for hint in (None, 1, 3, 4):
        cfg = small_cfg(n_paths=3000, worker_hint=hint)
        runs.append(hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True))
    first = runs[0]
    for other in runs[1:]:
        for name in ("s_T", "D", "I1", "P2", "P3", "y22_T", "j2", "g3"):
            assert np.array_equal(getattr(first, name), getattr(other, name))


def test_repeat_run_is_bitwise_identical(hv_model, hv_init):
    a = hg.simulate_paths(hv_model, hv_init, small_cfg())
    b = hg.simulate_paths(hv_model, hv_init, small_cfg())
    assert np.array_equal(a.s_T, b.s_T) and np.array_equal(a.I3, b.I3)


def test_series_mode_matches_fast_mode(hv_model, hv_init):
    cfg = small_cfg(n_paths=200)
    fast = hg.simulate_paths(hv_model, hv_init, cfg)
    series = hg.simulate_series(hv_model, hv_init, cfg)
    for name in ("s_T", "v_T", "r_T", "D", "I1", "I2", "I3", "A", "Q",
                 "w1_T", "P2", "P3", "y22_T", "y33_T"):
        assert np.array_equal(getattr(fast, name),
                              getattr(series.accumulators, name)), name


# ---------------------------------------------------------------------------
# state-only runs (weights=False), as the finite-difference prices use

_STATE_ONLY_FIELDS = ("s_T", "v_T", "r_T", "D")
_WEIGHT_FIELDS = ("I1", "I2", "I3", "A", "Q", "w1_T", "P2", "P3",
                  "y12_T", "y13_T", "y22_T", "y33_T")


@pytest.mark.parametrize("target", [None, "stock_drift", "stock_vol",
                                    "v_drift", "r_drift"])
@pytest.mark.parametrize("model_name", ["heston_vasicek", "black_scholes"])
def test_state_only_run_matches_the_full_run_bit_for_bit(
        model_name, target, hv_model, hv_init, deg_model, deg_init):
    model, init = ((hv_model, hv_init) if model_name == "heston_vasicek"
                   else (deg_model, deg_init))
    pert = None if target is None else hg.Perturbation(target, 0.01)
    for n_paths in (1, 16385):
        for workers in (1, 2):
            # a floor near sigma(V_0) = 0.2 clamps part of the evaluations
            cfg = small_cfg(n_paths=n_paths, n_steps=3, sigma_floor=0.2,
                            worker_hint=workers)
            full = hg.simulate_paths(model, init, cfg, perturbation=pert)
            state = hg.simulate_paths(model, init, cfg, perturbation=pert,
                                      weights=False)
            for name in _STATE_ONLY_FIELDS:
                assert np.array_equal(getattr(full, name),
                                      getattr(state, name)), name
            assert state.clamp_count == full.clamp_count
            assert state.n_integrand_evals == full.n_integrand_evals
            assert all(getattr(state, name) is None for name in _WEIGHT_FIELDS)
            if model is hv_model and n_paths > 1:
                assert 0 < full.clamp_count < full.n_integrand_evals


def test_state_only_run_refuses_drift_extras(hv_model, hv_init):
    with pytest.raises(hg.InvalidParams, match="weights=True"):
        hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=8),
                          drift_extras=True, weights=False)


@pytest.mark.parametrize("estimate", [
    lambda p, pay: hg.delta(p, pay, p.s0),
    lambda p, pay: hg.rho(p, pay, p.maturity),
    lambda p, pay: hg.vega(p, pay, p.maturity),
    hg.bismut_vector,
    lambda p, pay: hg.drift_sensitivity(p, pay, "stock_shift"),
    lambda p, pay: hg.drift_sensitivity(p, pay, "kappa"),
    lambda p, pay: hg.drift_sensitivity(p, pay, "reversion_speed"),
    lambda p, pay: hg.weight_bundle(p, p.s0, p.maturity),
], ids=["delta", "rho", "vega", "bismut_vector", "stock_shift", "kappa",
        "reversion_speed", "weight_bundle"])
def test_weighted_estimators_refuse_state_only_paths(estimate, hv_model, hv_init):
    cfg = small_cfg(n_paths=64, n_steps=4)
    state = hg.simulate_paths(hv_model, hv_init, cfg, weights=False)
    with pytest.raises(hg.InvalidParams, match="weights=True"):
        estimate(state, hg.Payoff("call", strike=100.0))


def test_price_reads_state_only_paths(hv_model, hv_init):
    cfg = small_cfg(n_paths=64, n_steps=4)
    payoff = hg.Payoff("call", strike=100.0)
    full = hg.price(hg.simulate_paths(hv_model, hv_init, cfg), payoff)
    state = hg.price(hg.simulate_paths(hv_model, hv_init, cfg, weights=False),
                     payoff)
    assert state == full


def test_state_only_run_ignores_an_overflowing_first_variation(hv_model, hv_init):
    # S * sigma'(V) overflows, so Y12 (and P2 with it) turns non-finite;
    # the state never reads sigma', so a state-only run is unaffected.
    wild = dataclasses.replace(
        hv_model, sigma_prime=lambda V: np.full_like(V, 1e308))
    cfg = small_cfg(n_paths=64, n_steps=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(hg.NumericalBlowup):
            hg.simulate_paths(wild, hv_init, cfg)
        state = hg.simulate_paths(wild, hv_init, cfg, weights=False)
    sane = hg.simulate_paths(hv_model, hv_init, cfg)
    assert np.array_equal(state.s_T, sane.s_T)
    assert np.array_equal(state.D, sane.D)


# ---------------------------------------------------------------------------
# first-variation processes

def test_y11_identity_along_the_whole_path(hv_model, hv_init):
    """The first-variation of S w.r.t. s0 is s_t/s0 at every grid time."""
    series = hg.simulate_series(hv_model, hv_init, small_cfg(n_paths=500))
    ratio = series.s / hv_init.s0
    assert np.max(np.abs(series.y11 - ratio) / ratio) < 1e-12


def test_first_variation_initial_values(hv_model, hv_init):
    series = hg.simulate_series(hv_model, hv_init, small_cfg(n_paths=8))
    assert np.all(series.y11[:, 0] == 1.0)
    assert np.all(series.y22[:, 0] == 1.0)
    assert np.all(series.y33[:, 0] == 1.0)
    assert np.all(series.y12[:, 0] == 0.0)
    assert np.all(series.y13[:, 0] == 0.0)


def test_y33_collapses_to_exponential_for_constant_g(hv_paths_10k):
    # g' = 0 and f' = -a, so the rate first-variation is deterministic.
    expect = math.exp(-0.02 * 1.0)
    assert np.max(np.abs(hv_paths_10k.y33_T - expect)) < 1e-12


def test_y12_vanishes_with_constant_sigma(deg_model, deg_init):
    series = hg.simulate_series(deg_model, deg_init, small_cfg(n_paths=50))
    assert np.all(series.y12 == 0.0)
    assert np.all(series.y13[:, -1] > 0.0)  # positive source S*y33


def test_one_step_y13_equals_s0_dt(deg_model):
    init = hg.InitialState(100.0, 0.04, 0.05)
    cfg = hg.SimConfig(n_paths=2, n_steps=1, maturity=1.0, seed=0)
    series = hg.simulate_series(deg_model, init, cfg,
                                increments=np.zeros((2, 1, 3)))
    dt = cfg.maturity / cfg.n_steps
    assert series.y13[0, -1] == init.s0 * dt
    assert series.y12[0, -1] == 0.0


def test_closed_forms_match_series(hv_model, hv_init):
    cfg = small_cfg(n_paths=300)
    series = hg.simulate_series(hv_model, hv_init, cfg)
    dt = cfg.maturity / cfg.n_steps
    dW = math.sqrt(dt) * hg.standard_draws(cfg.seed, cfg.n_paths, cfg.n_steps)
    rebuilt = hg.simulate_series(hv_model, hv_init, cfg, increments=dW)
    y11, y22_T, y33_T = rebuilt.y11, rebuilt.y22[:, -1], rebuilt.y33[:, -1]
    assert np.max(np.abs(y11 - series.y11) / np.abs(series.y11)) < 1e-12
    assert np.max(np.abs(y22_T - series.y22[:, -1]) / series.y22[:, -1]) < 1e-12
    assert np.max(np.abs(y33_T - series.y33[:, -1]) / series.y33[:, -1]) < 1e-12


def simulate_y12_y13(
    increments: np.ndarray,
    model: hg.ModelSpec,
    s_series: np.ndarray,
    v_series: np.ndarray,
    r_series: np.ndarray,
    y22_series: np.ndarray,
    y33_series: np.ndarray,
    cfg: hg.SimConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler recursion for the off-diagonal variation entries.

        dY^12 = r Y^12 dt + [sigma(V) Y^12 + S sigma'(V) Y^22] dW^1
        dY^13 = [r Y^13 + S Y^33] dt + sigma(V) Y^13 dW^1

    both from zero initial conditions, driven by the supplied state and
    diagonal-variation series on the same grid.  Returns terminal values
    (y12_T, y13_T).
    """
    increments = np.asarray(increments, dtype=float)
    n_paths, n_steps = increments.shape[0], increments.shape[1]
    if s_series.shape != (n_paths, n_steps + 1):
        raise hg.InvalidParams(
            f"state series shape {s_series.shape} does not match increments grid "
            f"({n_paths} paths, {n_steps} steps)"
        )
    dt = cfg.maturity / n_steps
    y12 = np.zeros(n_paths)
    y13 = np.zeros(n_paths)
    for n in range(n_steps):
        S = s_series[:, n]
        Vp = np.maximum(v_series[:, n], cfg.variance_floor)
        r = r_series[:, n]
        sig = model.sigma(Vp)
        sp = model.sigma_prime(Vp)
        dW1 = increments[:, n, 0]
        y12, y13 = (
            y12 + r * y12 * dt + (sig * y12 + S * sp * y22_series[:, n]) * dW1,
            y13 + (r * y13 + S * y33_series[:, n]) * dt + sig * y13 * dW1,
        )
    return y12, y13


def test_standalone_y12_y13_recursion_matches_engine(hv_model, hv_init):
    cfg = small_cfg(n_paths=300)
    series = hg.simulate_series(hv_model, hv_init, cfg)
    dt = cfg.maturity / cfg.n_steps
    dW = math.sqrt(dt) * hg.standard_draws(cfg.seed, cfg.n_paths, cfg.n_steps)
    y12_T, y13_T = simulate_y12_y13(dW, hv_model, series.s, series.v,
                                    series.r, series.y22, series.y33, cfg)
    scale12 = np.maximum(np.abs(series.y12[:, -1]), 1.0)
    scale13 = np.maximum(np.abs(series.y13[:, -1]), 1.0)
    assert np.max(np.abs(y12_T - series.y12[:, -1]) / scale12) < 1e-12
    assert np.max(np.abs(y13_T - series.y13[:, -1]) / scale13) < 1e-12


def test_grid_refinement_insensitivity(hv_model, hv_init, hv_paths_100k,
                                       call_100):
    """Doubling the step count moves the price by less than MC noise."""
    coarse = hg.price(hv_paths_100k, call_100)
    cfg = hg.SimConfig(n_paths=100_000, n_steps=504, maturity=1.0, seed=SEED_HV)
    fine_paths = hg.simulate_paths(hv_model, hv_init, cfg)
    fine = hg.price(fine_paths, call_100)
    assert hg.agrees(coarse, fine, n_se=3.0)


# ---------------------------------------------------------------------------
# deterministic reduction helpers

def test_stable_sum_is_order_independent():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=[1.0, 1e8, 1e-8][0], size=4001) * rng.choice(
        [1e-6, 1.0, 1e6], size=4001)
    total = hg.stable_sum(x)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(x.size)
        assert hg.stable_sum(x[perm]) == total


_AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
            -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
            math.inf, -math.inf, math.nan)


@st.composite
def _samples(draw):
    """Normal draws scaled by 2**e, e from a drawn range that reaches the
    subnormals and 1e300; optionally cancelling in pairs; in one case of
    two, a few awkward values (signed zeros, subnormals, huge values, inf,
    nan) dropped in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 50) | st.integers(1000, 5000))
    low = draw(st.integers(-1080, 997))
    high = draw(st.integers(low, 997))
    x = np.ldexp(rng.standard_normal(n), rng.integers(low, high + 1, n))
    if draw(st.booleans()):
        x[n // 2: 2 * (n // 2)] = -x[: n // 2]
        rng.shuffle(x)
    if n and draw(st.booleans()):
        extra = draw(st.lists(st.sampled_from(_AWKWARD) | st.floats(),
                              min_size=1, max_size=4))
        x[rng.integers(0, n, len(extra))] = extra
    return x


def _outcome(total, x):
    try:
        return struct.pack("<d", total(x))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_samples(), hnp.arrays(
    np.float64, st.integers(0, 40), elements=st.sampled_from(_AWKWARD) | st.floats())))
def test_stable_sum_is_fsum_bit_for_bit(x):
    """Same bits as math.fsum, or the same exception type."""
    assert _outcome(hg.stable_sum, x) == _outcome(lambda v: math.fsum(v.tolist()), x)


def test_stable_mean_se_against_reference():
    rng = np.random.default_rng(4)
    x = rng.normal(2.0, 3.0, size=10_000)
    mean, se = hg.stable_mean_se(x)
    assert mean == pytest.approx(np.mean(x), rel=1e-12)
    assert se == pytest.approx(np.std(x, ddof=1) / math.sqrt(x.size), rel=1e-9)


def test_stable_mean_se_single_sample():
    mean, se = hg.stable_mean_se(np.array([2.5]))
    assert (mean, se) == (2.5, 0.0)
