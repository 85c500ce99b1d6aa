"""Path simulation: accumulators, first variations, determinism."""

import concurrent.futures
import dataclasses
import functools
import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.random import Generator, Philox
from scipy.special import ndtri

import hsv_greeks as hg
from conftest import SEED_HV
from reference import reference_series


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
@given(a=_PATH_INDEX, b=_PATH_INDEX, n_steps=st.integers(1, 3),
       workers=st.sampled_from((None, 1, 2, 3, 8)))
def test_draws_are_pure_under_any_split(a, b, n_steps, workers):
    """Paths first..last of any draw are rows first..last of one large draw,
    across the chunk edges of the draw, the block edge of the engine and
    the ranges the draw's threads split the paths into."""
    first, stop = min(a, b), max(a, b) + 1
    part = hg.standard_draws(99, stop - first, n_steps, first_path=first,
                             workers=workers)
    assert np.array_equal(part, _one_large_draw(n_steps)[first:stop])


def test_draws_allocate_little_beyond_their_output(monkeypatch):
    """The inverse CDF runs in place on one small reused buffer, which the
    draw's threads share out between them."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 4)
    for workers in (1, 2, 4):
        tracemalloc.start()
        try:
            z = hg.standard_draws(3, 16384, 252, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * z.nbytes, workers
        del z


class _InlinePool:
    """Stands in for ThreadPoolExecutor: records ``max_workers`` and runs
    each task on the calling thread, so no thread is started."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("cpus", [1, 2, 64])
@pytest.mark.parametrize("hint", [None, 10**6])
def test_draw_threads_are_capped_by_cpus_and_chunks(monkeypatch, hv_model,
                                                     hv_init, hint, cpus):
    """No hint means every available CPU; a huge hint starts no more threads
    than CPUs or chunks of draws in the block; a block of one chunk needs no
    pool."""
    sizes = []
    monkeypatch.setattr(hg.engine, "ThreadPoolExecutor",
                        lambda max_workers: _InlinePool(sizes, max_workers))
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: cpus)
    cfg = small_cfg(n_paths=_BLOCK + 1, n_steps=2, worker_hint=hint)
    paths = hg.simulate_paths(hv_model, hv_init, cfg)
    # The first block has 16 chunks; the second, one path.
    assert sizes == ([] if cpus == 1 else [min(cpus, _BLOCK // _CHUNK)])
    reference = hg.simulate_paths(hv_model, hv_init,
                                  dataclasses.replace(cfg, worker_hint=1))
    assert np.array_equal(paths.s_T, reference.s_T)
    hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=250, worker_hint=hint))
    assert len(sizes) == (0 if cpus == 1 else 1)


@pytest.mark.parametrize("inline", [False, True])
@pytest.mark.parametrize("n_steps", [1, 9, 17])
@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_consume_sees_each_run_once_in_step_order(monkeypatch, workers,
                                                  n_steps, inline):
    """Each run of steps reaches ``consume`` once, on the calling thread and
    in step order, already mapped: together the runs are every row of the
    returned draws and of a draw without ``consume``, bit for bit."""
    sizes = []
    if inline:
        monkeypatch.setattr(hg.engine, "ThreadPoolExecutor",
                            lambda max_workers: _InlinePool(sizes, max_workers))
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 4)
    n_paths = 2 * _CHUNK + 3
    seen = []
    caller = threading.get_ident()

    def consume(first_step, run):
        assert threading.get_ident() == caller
        seen.append((first_step, run.copy()))

    z = hg.standard_draws(7, n_paths, n_steps, workers=workers, consume=consume)
    run_steps = hg.engine._MAP_STEPS
    assert [first for first, _ in seen] == list(range(0, n_steps, run_steps))
    assert [len(run) for _, run in seen] == [
        min(run_steps, n_steps - first) for first, _ in seen]
    rows = np.concatenate([run for _, run in seen])
    assert np.array_equal(rows, z.transpose(1, 2, 0))
    assert np.array_equal(z, hg.standard_draws(7, n_paths, n_steps, workers=workers))
    if inline:
        assert sizes == ([] if workers == 1 else [3, 3] if workers is None
                         else [workers, workers])


@pytest.mark.parametrize("run_steps", [1, 5, None])
def test_simulation_does_not_depend_on_the_run_length(monkeypatch, hv_model,
                                                      hv_init, run_steps):
    """Runs of one step, of a length that leaves a short last run, and of
    the whole block step the same paths as the default length."""
    cfg = small_cfg(n_paths=2 * _CHUNK + 1, n_steps=12, sigma_floor=0.2,
                    worker_hint=2)
    reference = hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
    monkeypatch.setattr(hg.engine, "_MAP_STEPS", run_steps or cfg.n_steps)
    paths = hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
    for name in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS + ("j2", "j3", "g3"):
        assert np.array_equal(getattr(paths, name), getattr(reference, name)), name
    assert paths.clamp_count == reference.clamp_count > 0


def test_two_block_run_holds_one_block_of_draws(hv_model, hv_init):
    """Blocks run one at a time, also with two workers: the run holds one
    block of draws, never two."""
    n_steps = 64
    cfg = small_cfg(n_paths=2 * _BLOCK, n_steps=n_steps, worker_hint=2)
    tracemalloc.start()
    try:
        hg.simulate_paths(hv_model, hv_init, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_draws = _BLOCK * n_steps * 3 * 8
    accumulators = len(_STATE_ONLY_FIELDS + _WEIGHT_FIELDS) * cfg.n_paths * 8
    # Allowance for one block's step-loop state and temporaries: 64 arrays
    # of one value per path.
    step_loop = 64 * _BLOCK * 8
    assert peak < block_draws + accumulators + step_loop


# ---------------------------------------------------------------------------
# accumulator contracts

@pytest.mark.parametrize("weights", [True, False])
def test_simulated_arrays_are_read_only(hv_model, hv_init, weights):
    paths = hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=8, n_steps=4),
                              drift_extras=weights, weights=weights)
    arrays = [f.name for f in dataclasses.fields(paths)
              if isinstance(getattr(paths, f.name), np.ndarray)]
    assert len(arrays) == (19 if weights else 4)
    for name in arrays:
        with pytest.raises(ValueError):
            getattr(paths, name)[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        paths.D = np.zeros(8)


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
    assert all(getattr(acc, name) is None
               for name in ("P2", "P3", "j2", "j3", "g3"))


def test_drift_extras_refused_on_degenerate(deg_model, deg_init, monkeypatch):
    """Refused before the first block is drawn."""
    calls = []
    draws = hg.engine.standard_draws
    monkeypatch.setattr(hg.engine, "standard_draws",
                        lambda *a, **k: calls.append(a) or draws(*a, **k))
    with pytest.raises(hg.DegenerateModel):
        hg.simulate_paths(deg_model, deg_init, small_cfg(), drift_extras=True)
    assert calls == []


def test_one_step_hand_check(deg_model):
    """One log-Euler step: s_T = 100 * exp(r - sigma^2/2 + sigma*z)."""
    init = hg.InitialState(100.0, 0.04, 0.05)
    cfg = hg.SimConfig(n_paths=3, n_steps=1, maturity=1.0, seed=0)
    z = hg.standard_draws(cfg.seed, cfg.n_paths, cfg.n_steps)[:, 0, 0]
    paths = hg.simulate_paths(deg_model, init, cfg)
    expect = 100.0 * np.exp(0.05 - 0.5 * 0.2**2 + 0.2 * z)
    np.testing.assert_allclose(paths.s_T, expect, rtol=1e-12)


def test_martingale_property(hv_paths_100k, hv_init):
    """Risk-neutral drift: E[e^{-D} s_T] = s0."""
    mean, se = hg.stable_mean_se(np.exp(-hv_paths_100k.D) * hv_paths_100k.s_T)
    assert abs(mean - hv_init.s0) <= 3 * se


def test_ito_integrals_have_zero_mean(hv_paths_10k):
    for name in ("I1", "I2", "I3", "P2", "P3"):
        mean, se = hg.stable_mean_se(getattr(hv_paths_10k, name))
        assert abs(mean) <= 3 * se, f"{name}: mean {mean}, se {se}"


def _wild_model():
    # enormous constant rate volatility: r random-walks past the 1e12 limit
    return hg.heston_vasicek_model(
        hg.HestonVasicekParams(2.0, 0.04, 0.04, 0.02, 0.08, 1e14),
        hg.CorrelationTriple(-0.8, 0.5, 0.02))


def test_blowup_reports_path_and_step(hv_init):
    with pytest.raises(hg.NumericalBlowup) as info:
        hg.simulate_paths(_wild_model(), hv_init, small_cfg(n_paths=16))
    assert info.value.path_index is not None
    assert info.value.step_index is not None


def test_blowup_inside_a_pipelined_block_stops_its_threads(monkeypatch, hv_init):
    """A blow-up raised by the step loop while draw threads still map later
    runs: the same path and step as on one thread, and every thread the
    block started has ended when the error arrives."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 2)
    found = []
    for hint in (1, 2):
        before = threading.active_count()
        with pytest.raises(hg.NumericalBlowup) as info:
            hg.simulate_paths(_wild_model(), hv_init,
                              small_cfg(n_paths=2048, worker_hint=hint))
        assert threading.active_count() == before
        found.append((info.value.path_index, info.value.step_index))
    assert found[0] == found[1]
    # In the first run of steps: the later runs are still to be consumed.
    assert found[0][1] < hg.engine._MAP_STEPS < small_cfg().n_steps


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("weights", [True, False])
@pytest.mark.parametrize("stream", [0, 1])
def test_two_block_runs_are_bitwise_identical_across_worker_counts(
        monkeypatch, hv_model, hv_init, stream, weights):
    """Two blocks (16,385 paths), each block's draws split across 1 to 8
    threads: every array, clamp and evaluation count is the same."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 8)
    runs = []
    for hint in (None, 1, 2, 3, 8):
        cfg = small_cfg(n_paths=_BLOCK + 1, n_steps=2, sigma_floor=0.2,
                        worker_hint=hint)
        runs.append(hg.simulate_paths(hv_model, hv_init, cfg, stream=stream,
                                      drift_extras=weights, weights=weights))
    first = runs[0]
    names = (_STATE_ONLY_FIELDS + _WEIGHT_FIELDS + ("j2", "j3", "g3")
             if weights else _STATE_ONLY_FIELDS)
    for other in runs[1:]:
        for name in names:
            assert np.array_equal(getattr(first, name), getattr(other, name)), name
        assert other.clamp_count == first.clamp_count > 0
        assert other.n_integrand_evals == first.n_integrand_evals


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
], ids=["delta", "rho", "vega", "bismut_vector", "stock_shift", "kappa",
        "reversion_speed"])
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

@pytest.mark.parametrize("sigma_floor", [1e-8, 0.2])
@pytest.mark.parametrize("model_name", ["heston_vasicek", "black_scholes"])
def test_reference_stepper_matches_simulate_paths_bit_for_bit(
        model_name, sigma_floor, hv_model, hv_init, deg_model, deg_init):
    """The terminal state, first variations and integrals equal those of a
    stepper that keeps every grid point; at sigma_floor=0.2 part of sigma
    clamps."""
    model, init = ((hv_model, hv_init) if model_name == "heston_vasicek"
                   else (deg_model, deg_init))
    cfg = small_cfg(n_paths=300, sigma_floor=sigma_floor)
    paths = hg.simulate_paths(model, init, cfg, drift_extras=not model.degenerate)
    series = reference_series(model, init, cfg)
    for name in ("s", "v", "r", "y12", "y13", "y22", "y33"):
        assert np.array_equal(getattr(paths, name + "_T"),
                              getattr(series, name)[:, -1]), name
    for name, values in series.integrals.items():
        assert np.array_equal(getattr(paths, name), values), name
    if model is hv_model and sigma_floor == 0.2:
        assert 0 < paths.clamp_count < paths.n_integrand_evals


def test_y11_identity_along_the_whole_path(hv_model, hv_init):
    """The first variation of S w.r.t. s0, carried by its own recursion,
    is s_t/s0 at every grid time."""
    series = reference_series(hv_model, hv_init, small_cfg(n_paths=500))
    ratio = series.s / hv_init.s0
    assert np.max(np.abs(series.y11 - ratio) / ratio) < 1e-12


def test_first_variation_initial_values(hv_model, hv_init):
    """One step from Y12 = Y13 = 0 and Y22 = Y33 = 1, by hand."""
    cfg = small_cfg(n_paths=8, n_steps=1)
    z = hg.standard_draws(cfg.seed, cfg.n_paths, cfg.n_steps)[:, 0, :]
    paths = hg.simulate_paths(hv_model, hv_init, cfg)
    v0, mu1 = np.full(cfg.n_paths, hv_init.v0), hv_model.mixing.mu1
    dZ2 = hv_model.correlations.rho12 * z[:, 0] + mu1 * z[:, 1]
    vp = hv_model.v_prime(v0)
    assert np.all(paths.y13_T == hv_init.s0)
    np.testing.assert_allclose(
        paths.y12_T, hv_init.s0 * hv_model.sigma_prime(v0) * z[:, 0], rtol=1e-12)
    np.testing.assert_allclose(
        paths.y22_T, np.exp(hv_model.u_prime(v0) - 0.5 * vp * vp + vp * dZ2),
        rtol=1e-12)
    np.testing.assert_allclose(paths.y33_T, math.exp(-0.02), rtol=1e-12)


def test_y33_collapses_to_exponential_for_constant_g(hv_paths_10k):
    # g' = 0 and f' = -a, so the rate first-variation is deterministic.
    expect = math.exp(-0.02 * 1.0)
    assert np.max(np.abs(hv_paths_10k.y33_T - expect)) < 1e-12


def test_y12_vanishes_with_constant_sigma(deg_model, deg_init):
    series = reference_series(deg_model, deg_init, small_cfg(n_paths=50))
    assert np.all(series.y12 == 0.0)
    assert np.all(series.y13[:, -1] > 0.0)  # positive source S*y33


def test_one_step_y13_equals_s0_dt(deg_model):
    init = hg.InitialState(100.0, 0.04, 0.05)
    cfg = hg.SimConfig(n_paths=2, n_steps=1, maturity=1.0, seed=0)
    paths = hg.simulate_paths(deg_model, init, cfg)
    dt = cfg.maturity / cfg.n_steps
    assert np.all(paths.y13_T == init.s0 * dt)
    assert np.all(paths.y12_T == 0.0)


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
    """Normal draws scaled by 2**e, e from a drawn range, narrow or wide,
    that reaches the subnormals and 1e300: cancelling in pairs, of mixed
    sign or all nonnegative; or near-equal values in [2**e, 2**(e+1)).  In
    one case of two, a few awkward values (signed zeros, subnormals, huge
    values, inf, nan) dropped in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 16,000 to 20,000 straddles 16,384, where stable_sum's 2**M >= n+2 grows.
    n = draw(st.integers(0, 50) | st.integers(1000, 5000) | st.integers(16_000, 20_000))
    low = draw(st.integers(-1080, 997))
    high = min(997, low + draw(st.integers(0, 8) | st.integers(0, 2077)))
    x = np.ldexp(rng.standard_normal(n), rng.integers(low, high + 1, n))
    form = draw(st.sampled_from(("cancel", "mixed", "nonnegative", "level")))
    if form == "cancel":
        x[n // 2: 2 * (n // 2)] = -x[: n // 2]
        rng.shuffle(x)
    elif form == "nonnegative":  # as payoffs and squared deviations are
        np.abs(x, out=x)
    elif form == "level":  # near-equal, as a digital payoff's nonzero samples
        x = np.ldexp(1.0 + rng.random(n), high)
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


def _fsum_mean_se(x):
    mean = math.fsum(x.tolist()) / x.size
    if x.size < 2:
        return mean, 0.0
    with np.errstate(over="ignore"):
        squares = (x - mean) ** 2
    return mean, math.sqrt(math.fsum(squares.tolist()) / (x.size - 1) / x.size)


@settings(max_examples=200, deadline=None)
@given(_samples().filter(lambda x: x.size and np.isfinite(x).all()))
def test_stable_mean_se_is_the_fsum_reference_bit_for_bit(x):
    """mean = fsum(x)/n and se = sqrt(fsum((x-mean)**2)/(n-1)/n) to the
    bit, or the same exception type."""
    def bits(mean_se):
        return lambda v: struct.pack("<2d", *mean_se(v))
    assert _outcome(bits(hg.stable_mean_se), x) == _outcome(bits(_fsum_mean_se), x)


def test_stable_mean_se_against_reference():
    rng = np.random.default_rng(4)
    x = rng.normal(2.0, 3.0, size=10_000)
    mean, se = hg.stable_mean_se(x)
    assert mean == pytest.approx(np.mean(x), rel=1e-12)
    assert se == pytest.approx(np.std(x, ddof=1) / math.sqrt(x.size), rel=1e-9)


def test_stable_mean_se_single_sample():
    mean, se = hg.stable_mean_se(np.array([2.5]))
    assert (mean, se) == (2.5, 0.0)
