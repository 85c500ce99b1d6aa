"""Path simulation: accumulators, first variations, determinism."""

import contextlib
import dataclasses
import functools
import inspect
import math
import queue
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.random import Generator, Philox

import hsv_greeks as hg
from conftest import HV_CORR, HV_PARAMS, SEED_HV, cli_env
from reference import draws_array, fsum_mean_se, moved, reference_series


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
    with pytest.raises(hg.InvalidParams) as info:
        hg.SimConfig(**{field: value})
    assert field in str(info.value)
    assert info.value.field == field


# The entry points that take plain arguments, called with valid ones but
# ``kwargs``.
def _simulate_paths(**kwargs):
    return hg.simulate_paths(hg.heston_vasicek_model(HV_PARAMS, HV_CORR),
                             hg.InitialState(100.0, 0.04, 0.02),
                             small_cfg(n_paths=8, n_steps=4), **kwargs)


def _bs_closed_form(**kwargs):
    return hg.bs_closed_form(**{"s0": 100.0, "strike": 100.0, "r": 0.05, "sigma": 0.2,
                                "maturity": 1.0, **kwargs})


def _heston_vasicek_model(**kwargs):
    return hg.heston_vasicek_model(HV_PARAMS, HV_CORR, **kwargs)


def _greek_estimate(**kwargs):
    return hg.GreekEstimate(1.0, 0.1, 10, "malliavin", **kwargs)


@pytest.mark.parametrize("cls,kwargs", [
    (hg.SimConfig, {"n_steps": True}), (hg.SimConfig, {"seed": False}),
    (hg.SimConfig, {"worker_hint": True}), (hg.SimConfig, {"maturity": True}),
    (hg.InitialState, {"s0": True, "v0": 0.04, "r0": 0.02}),
    (hg.InitialState, {"s0": 100.0, "v0": True, "r0": 0.02}),
    (hg.InitialState, {"s0": 100.0, "v0": 0.04, "r0": False}),
    (hg.SimConfig, {"sigma_floor": "1"}), (hg.SimConfig, {"variance_floor": None}),
    (hg.InitialState, {"s0": "100", "v0": 0.04, "r0": 0.02}),
    (hg.HestonVasicekParams, {**vars(HV_PARAMS), "kappa": True}),
    (hg.HestonVasicekParams, {**vars(HV_PARAMS), "kappa": "2"}),
    (hg.HestonVasicekParams, {**vars(HV_PARAMS), "b": "0.08"}),
    (hg.CorrelationTriple, {"rho12": False, "rho13": 0.5, "rho23": 0.02}),
    (hg.CorrelationTriple, {"rho12": -0.8, "rho13": "0.5", "rho23": 0.02}),
    (hg.black_scholes_degenerate, {"sigma": True}),
    (hg.Payoff, {"kind": "call", "strike": True}),
    (hg.Payoff, {"kind": "call", "strike": "100"}),
    (hg.Payoff, {"kind": "digital_call", "strike": 100.0, "level": "1"}),
    (_simulate_paths, {"stream": True}), (_simulate_paths, {"stream": "0"}),
    (_simulate_paths, {"stream": 1.5}), (_simulate_paths, {"stream": None}),
    (_simulate_paths, {"stream": -1}),
    (_simulate_paths, {"weights": 1}), (_simulate_paths, {"weights": "I1"}),
    (_simulate_paths, {"drift_extras": "yes"}),
    (_bs_closed_form, {"s0": True}), (_bs_closed_form, {"level": math.nan}),
    (_bs_closed_form, {"strike": "100"}),
    (_heston_vasicek_model, {"enforce": "no"}),
    *((_greek_estimate, {"clamp_count": bad}) for bad in (-1, True, "x", 2.5, None)),
])
def test_bools_are_refused_as_numbers(cls, kwargs):
    """Every dataclass and entry point refuses a bool, text or a float where
    a number, an integer or a flag belongs, with InvalidParams naming the
    argument, as the config does.  The dataclasses once took True as 1 and
    text raised a bare TypeError; SimConfig raised InvalidConfig; the draws
    raised a bare TypeError for a float or text size and took a float or
    True as workers, before simulate_paths checked the stream and SimConfig
    the rest; simulate_paths raised a bare TypeError for weights=1,
    read weights="I1" as the fields '1' and 'I', and took any truthy
    drift_extras; bs_closed_form took True and never checked level;
    heston_vasicek_model took any truthy enforce; and GreekEstimate took any
    clamp_count."""
    field = next(name for name, value in kwargs.items()
                 if len(kwargs) == 1 or not isinstance(value, float) and name != "kind")
    with pytest.raises(hg.InvalidParams, match=f"^{field} must ") as info:
        cls(**kwargs)
    assert info.value.field == field
    assert str(info.value).endswith(f", got {kwargs[field]!r}")
    if isinstance(cls, type):  # every dataclass field here takes a number
        assert "must be a number" in str(info.value)


def test_numpy_scalars_pass_the_argument_rule(hv_model, hv_init):
    """A numpy scalar skips the rule's exact float and int fast path for
    the numbers ABCs: numpy's integers and floats are numbers, with the bits
    of Python's, and numpy's bool is refused as a bool is."""
    cfg = small_cfg(n_paths=300, n_steps=8, worker_hint=2)
    as_numpy = hg.SimConfig(n_paths=np.int64(300), n_steps=np.int32(8),
                            maturity=np.float64(1.0), seed=np.int64(777),
                            worker_hint=np.int64(2))
    got, want = (hg.simulate_paths(hv_model, hv_init, c) for c in (as_numpy, cfg))
    for field in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    with pytest.raises(hg.InvalidParams, match="n_paths must be a number"):
        hg.SimConfig(n_paths=np.bool_(True))


# ---------------------------------------------------------------------------
# RNG purity

def test_draw_purity_under_path_offset():
    """Path b*B + p of a draw over two blocks of B paths is path p of a draw
    of block b alone."""
    size = hg.engine._BLOCK_PATHS
    two = draws_array(123, size + 50, 16)
    for b in (0, 1):
        assert np.array_equal(two[b * size:b * size + 50], draws_array(123, 50, 16, block=b))


def test_draw_shape_and_normality():
    z = draws_array(5, 2000, 8)
    assert z.shape == (2000, 8, 3)
    assert abs(z.mean()) < 0.05 and abs(z.std() - 1.0) < 0.05


def test_draw_streams_are_distinct():
    a = draws_array(5, 10, 8, stream=0)
    b = draws_array(5, 10, 8, stream=1)
    assert not np.array_equal(a, b)


def test_draws_depend_on_seed():
    assert not np.array_equal(draws_array(1, 4, 8), draws_array(2, 4, 8))


def _row_by_row_draws(seed, n_paths, n_steps, block=0, stream=0):
    """The draws by their definition: path p of block b at (step s, driver
    d) is normal p of the ziggurat sampler on the Philox stream keyed
    (seed, stream) that starts at counter ((3*s + d) << 62) + (b << 128);
    one fresh generator per row, drawn from the block's start."""
    z = np.empty((n_paths, n_steps, 3))
    for s in range(n_steps):
        for d in range(3):
            bg = Philox(key=np.array([seed, stream], dtype=np.uint64),
                        counter=((3 * s + d) << 62) + (block << 128))
            z[:, s, d] = Generator(bg).standard_normal(n_paths)
    return z


@pytest.mark.parametrize("n_steps", [1, 9, 17])
def test_draws_are_the_step_major_philox_rows(monkeypatch, n_steps):
    """The first paths of blocks 0 and 1, a whole block among them, on
    every stream and at every worker count (17 steps make three runs, one
    per thread), give the rows of the definition."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 4)
    for block in (0, 1):
        for n_paths, streams in ((13, (0, 1, 2)), (_THREAD_PATHS + 1, (0,)), (_BLOCK, (2,))):
            for stream in streams:
                expected = _row_by_row_draws(11, n_paths, n_steps, block, stream)
                for workers in (None, 1, 2, 3):
                    z = draws_array(11, n_paths, n_steps, block=block, stream=stream,
                                    workers=workers)
                    assert z.shape == (n_paths, n_steps, 3)
                    assert np.array_equal(z, expected), (block, n_paths, stream, workers)


def test_adjacent_rows_of_draws_are_uncorrelated():
    """Rows whose counters are neighbours (the drivers of one step, and the
    last driver of a step with the first of the next), the rows of one
    driver at neighbouring steps, and each row in two adjacent blocks,
    whose counters differ by 1 << 128: sample correlations within
    4/sqrt(n)."""
    size, n_steps = hg.engine._BLOCK_PATHS, 4
    n_paths = 2 * size
    rows = draws_array(3, n_paths, n_steps).reshape(n_paths, -1).T
    corr = np.corrcoef(rows)
    pairs = [(r, r + 1) for r in range(3 * n_steps - 1)]
    pairs += [(r, r + 3) for r in range(3 * n_steps - 3)]
    assert max(abs(corr[a, b]) for a, b in pairs) < 4 / math.sqrt(n_paths)
    across = [np.corrcoef(row[:size], row[size:])[0, 1] for row in rows]
    assert max(map(abs, across)) < 4 / math.sqrt(size)


def test_draws_have_normal_tails():
    """Over 2**22 draws of one fixed seed, across four blocks and every
    row of 22 steps: the counts of |z| > 2, 3, 4 lie within 5 binomial
    standard deviations of n*erfc(c/sqrt(2)), and the mean and variance
    within 5 of their standard errors of 0 and 1."""
    n_paths, n_steps = 4 * hg.engine._BLOCK_PATHS, 22
    n = n_paths * n_steps * 3
    assert n >= 2**22
    cuts = (2.0, 3.0, 4.0)
    tails = [0] * len(cuts)
    total = squares = 0.0

    runs = (run for block in range(4)
            for _, run in hg.engine.standard_draws(20240601, _BLOCK, n_steps, block=block))
    for run in runs:
        size = np.abs(run)
        for i, c in enumerate(cuts):
            tails[i] += int(np.count_nonzero(size > c))
        total += exact_sum(run.ravel())
        squares += exact_sum(np.square(run).ravel())
    for c, count in zip(cuts, tails):
        p = math.erfc(c / math.sqrt(2.0))
        assert abs(count - n * p) <= 5 * math.sqrt(n * p * (1 - p)), (c, count, n * p)
    mean = total / n
    variance = squares / n - mean * mean
    assert abs(mean) <= 5 / math.sqrt(n)
    # The variance of a normal sample's variance is 2/n.
    assert abs(variance - 1.0) <= 5 * math.sqrt(2.0 / n)


# Path counts near multiples of these, some of them multiples of the four
# words of a Philox tick and some not, are where a split of the draws could
# go wrong.
_CHUNK = 1024
_BLOCK = hg.engine._BLOCK_PATHS
_THREAD_PATHS = hg.engine._THREAD_PATHS
_NEAR_EDGE = st.sampled_from((_CHUNK, 2 * _CHUNK, _BLOCK)).flatmap(
    lambda edge: st.integers(edge - 3, min(edge + 3, _BLOCK)))
_PREFIX = st.one_of(st.integers(1, _BLOCK), _NEAR_EDGE)


@functools.lru_cache(maxsize=None)
def _one_large_draw(n_steps):
    return draws_array(99, 2 * _BLOCK, n_steps)


@settings(max_examples=150, deadline=None)
@given(n=_PREFIX, block=st.sampled_from((0, 1)), n_steps=st.integers(1, 3),
       workers=st.sampled_from((None, 1, 2, 3, 8)))
def test_draws_are_pure_under_any_split(n, block, n_steps, workers):
    """The first n paths of block 0 or 1, drawn alone, are its rows of one
    large draw, across the chunk edges of the draw and whatever ranges the
    draw's threads split the steps into: the first n paths of a run are
    those of an n-path run."""
    part = draws_array(99, n, n_steps, block=block, workers=workers)
    assert np.array_equal(part, _one_large_draw(n_steps)[block * _BLOCK:block * _BLOCK + n])


@pytest.mark.parametrize("kwargs, name", [
    (dict(n_paths=-1), "n_paths"), (dict(n_steps=-1), "n_steps"),
    (dict(stream=True), "stream"), (dict(worker_hint=0), "worker_hint"),
    (dict(worker_hint=-1), "worker_hint"), (dict(seed=-1), "seed"),
    (dict(seed=2**64), "seed"), (dict(seed=1.5), "seed"), (dict(seed=True), "seed"),
    (dict(stream=-1), "stream"), (dict(stream=2**64), "stream"),
    (dict(stream=1.5), "stream"), (dict(stream=False), "stream")])
def test_draws_refuse_negative_sizes_and_no_workers(monkeypatch, hv_model, hv_init,
                                                    kwargs, name):
    """A negative size, fewer than one worker, or a seed or stream that is
    no integer in [0, 2**64) is refused by name, before any run is drawn or
    any thread started: SimConfig refuses its fields and simulate_paths the
    stream, as standard_draws takes its arguments unchecked.  A seed or
    stream of -1 once raised a bare OverflowError, and 1.5 and True were
    taken."""
    calls = []
    draws = hg.engine.standard_draws
    monkeypatch.setattr(hg.engine, "standard_draws",
                        lambda *a, **k: calls.append(a) or draws(*a, **k))
    kwargs = dict(kwargs)
    stream = kwargs.pop("stream", 0)
    before = threading.active_count()
    with pytest.raises(hg.InvalidParams, match=name) as info:
        hg.simulate_paths(hv_model, hv_init, small_cfg(**{"n_paths": 4, "n_steps": 4, **kwargs}),
                          stream=stream)
    assert info.value.field == name
    assert calls == [] and threading.active_count() == before


@pytest.mark.parametrize("n_paths", [1, _BLOCK, _BLOCK + 1, 40_000])
def test_simulate_paths_draws_each_block_once(monkeypatch, hv_model, hv_init, n_paths):
    """One standard_draws call per block of at most 16,384 paths, with the
    block indices 0, 1, ... in order."""
    calls = []
    draws = hg.engine.standard_draws
    signature = inspect.signature(draws)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["block"], bound.arguments["n_paths"]))
        return draws(*args, **kwargs)

    monkeypatch.setattr(hg.engine, "standard_draws", spy)
    hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=n_paths, n_steps=1),
                      weights=False)
    sizes = [min(_BLOCK, n_paths - start) for start in range(0, n_paths, _BLOCK)]
    assert calls == list(enumerate(sizes))


class _InlineThread:
    """Stands in for the engine's draw threads: records itself and runs its
    target on the calling thread once joined, so no thread is started.  The
    calling thread has then drawn every run itself."""

    def __init__(self, helpers, target, daemon):
        helpers.append(self)
        self.target = target
        self.ident = None

    def start(self):
        self.ident = 0

    def join(self):
        self.target()


@pytest.mark.parametrize("cpus", [1, 2, 64])
@pytest.mark.parametrize("hint", [None, 10**6])
def test_draw_threads_are_capped_by_cpus_and_chunks(monkeypatch, hv_model,
                                                     hv_init, hint, cpus):
    """No hint means every available CPU; a huge hint starts no more threads
    than CPUs, steps in the block, chunks of ``_THREAD_PATHS`` paths, or
    steps the ring's budget holds less one; the calling thread is one of
    them, so one thread fewer is started, and a block of one chunk starts
    none."""
    helpers = []
    monkeypatch.setattr(hg.engine, "Thread", functools.partial(_InlineThread, helpers))
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: cpus)
    cfg = small_cfg(n_paths=_BLOCK + 1, n_steps=17, worker_hint=hint)
    paths = hg.simulate_paths(hv_model, hv_init, cfg)
    # The first block has 17 steps and 16 chunks, and the budget holds
    # fewer steps; the second block is one path.
    budget_threads = hg.engine._RING_BYTES // (3 * 8 * _BLOCK) - 1
    assert 1 < budget_threads < 16
    started = 0 if cpus == 1 else min(cpus, budget_threads) - 1
    assert len(helpers) == started
    reference = hg.simulate_paths(hv_model, hv_init,
                                  dataclasses.replace(cfg, worker_hint=1))
    assert np.array_equal(paths.s_T, reference.s_T)
    # A block of one chunk starts no thread.
    hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=_THREAD_PATHS,
                                                   worker_hint=hint))
    assert len(helpers) == started


def _set_budget(monkeypatch, n_paths, steps):
    """Sets the ring's byte budget to ``steps`` steps of n_paths paths."""
    monkeypatch.setattr(hg.engine, "_RING_BYTES", steps * 3 * 8 * n_paths)


def _run_starts(n_paths, n_steps, workers, cpus):
    """The first steps of the runs standard_draws yields, with its plan."""
    return list(range(0, n_steps, hg.engine._ring_plan(n_paths, n_steps, workers, cpus)[2]))


@pytest.mark.parametrize("inline", [False, True])
@pytest.mark.parametrize("n_steps", [1, 9, 17])
@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_consume_sees_each_run_once_in_step_order(monkeypatch, workers,
                                                  n_steps, inline):
    """The caller that iterates the draws gets each run of steps once, in
    step order, as one C-contiguous array: together the runs are every row
    of the draws on one thread, bit for bit.  The ring's budget is eight
    steps, so that there are several runs."""
    helpers = []
    if inline:
        monkeypatch.setattr(hg.engine, "Thread", functools.partial(_InlineThread, helpers))
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 4)
    n_paths = 2 * _THREAD_PATHS + 3
    _set_budget(monkeypatch, n_paths, 8)
    seen = []
    for first_step, run in hg.engine.standard_draws(7, n_paths, n_steps, workers=workers):
        assert run.flags.c_contiguous
        seen.append((first_step, run.copy()))
    threads, _, run_steps = hg.engine._ring_plan(n_paths, n_steps, workers, 4)
    assert [first for first, _ in seen] == list(range(0, n_steps, run_steps))
    assert [len(run) for _, run in seen] == [
        min(run_steps, n_steps - first) for first, _ in seen]
    rows = np.concatenate([run for _, run in seen])
    z = draws_array(7, n_paths, n_steps, workers=1)
    assert np.array_equal(rows, z.transpose(1, 2, 0))
    # Threads: the workers, at most 4 CPUs, one per step and one per
    # _THREAD_PATHS paths (3 here); the budget holds 7.
    assert threads == min(workers or 4, n_steps, 3)
    if inline:
        # The calling thread is one of them, so one fewer is started.
        assert len(helpers) == threads - 1


def test_many_draw_threads_hand_over_every_run(monkeypatch):
    """Eight threads on a ring of nine slots, with thread switches forced
    often: every run arrives once, in step order, as the draws on one
    thread have it, and no wait is left hanging."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 8)
    n_paths, n_steps = 8 * _THREAD_PATHS, 136
    assert hg.engine._ring_plan(n_paths, n_steps, 8, 8)[:2] == (8, 9)
    expected = draws_array(5, n_paths, 3, workers=1)
    seen, head = [], []

    def iterate():
        for first_step, run in hg.engine.standard_draws(5, n_paths, n_steps, workers=8):
            seen.append(first_step)
            head.append(run[:max(0, 3 - first_step)].copy())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=iterate)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert seen == _run_starts(n_paths, n_steps, 8, 8)
    assert np.array_equal(np.concatenate(head), expected.transpose(1, 2, 0))


class _DrawFailed(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 3])
def test_a_failed_draw_stops_the_block(monkeypatch, workers):
    """A run that fails to draw, on whichever thread draws it, raises its
    error from the iterator once every thread it started has ended, and
    no later run arrives."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 3)
    n_paths, n_steps = 3 * _THREAD_PATHS, 48
    _set_budget(monkeypatch, n_paths, 8)
    starts = _run_starts(n_paths, n_steps, workers, 3)
    assert len(starts) >= 6
    drawer = hg.engine._row_drawer
    bad_row = 3 * starts[2]  # the first row of the third run

    def failing_drawer(*args):
        draw = drawer(*args)

        def fail_on_bad_row(row, out):
            if row == bad_row:
                raise _DrawFailed(row)
            draw(row, out)
        return fail_on_bad_row

    monkeypatch.setattr(hg.engine, "_row_drawer", failing_drawer)
    seen = []
    before = threading.active_count()
    with pytest.raises(_DrawFailed):
        for first, _ in hg.engine.standard_draws(1, n_paths, n_steps, workers=workers):
            seen.append(first)
    assert threading.active_count() == before
    assert seen == starts[:len(seen)] and len(seen) <= 2


def test_closing_the_draws_after_one_run_stops_their_threads(monkeypatch):
    """A caller that closes the iterator after its first run, while two
    helper threads draw later runs or wait for a slot: every thread has
    ended once ``close`` returns."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 3)
    before = threading.active_count()
    assert len(_run_starts(3 * _THREAD_PATHS, 64, 3, 3)) > 4
    runs = hg.engine.standard_draws(1, 3 * _THREAD_PATHS, 64, workers=3)
    first, _ = next(runs)
    assert first == 0 and threading.active_count() == before + 2
    runs.close()
    assert threading.active_count() == before


@settings(max_examples=40, deadline=None)
@given(cpus=st.integers(1, 8), workers=st.none() | st.integers(1, 8),
       n_steps=st.integers(1, 40), n_paths=st.sampled_from((1, 1025, 3077)),
       budget_steps=st.integers(1, 12), data=st.data())
def test_the_hand_off_survives_a_failure_and_a_close_at_any_thread_count(
        cpus, workers, n_steps, n_paths, budget_steps, data):
    """Whatever the threads and the ring's budget, a run that fails to draw
    and a caller that closes the iterator after some run: the runs seen
    arrive in step order as the draws on one thread have them; the failure
    surfaces as the injected error and no other, before the failed run,
    and is missed only by a caller that closed the iterator before that
    run; and every thread started has ended.  Thread switches are forced
    often."""
    budget = budget_steps * 3 * 8 * n_paths
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hg.engine, "_RING_BYTES", budget)
        run_steps = hg.engine._ring_plan(n_paths, n_steps, workers, cpus)[2]
    n_runs = len(range(0, n_steps, run_steps))
    fail = data.draw(st.none() | st.integers(0, n_runs - 1), label="failed run")
    close = data.draw(st.none() | st.integers(0, n_runs - 1), label="closed after run")
    expected = draws_array(3, n_paths, n_steps, workers=1).transpose(1, 2, 0)
    drawer = hg.engine._row_drawer
    bad_row = None if fail is None else 3 * fail * run_steps

    def failing_drawer(*args):
        draw = drawer(*args)

        def fail_on_bad_row(row, out):
            if row == bad_row:
                raise _DrawFailed(row)
            draw(row, out)
        return fail_on_bad_row

    seen, raised = [], []

    def iterate():
        runs = hg.engine.standard_draws(3, n_paths, n_steps, workers=workers)
        try:
            for first, run in runs:
                # Read the run a moment later, as the step loop does, while
                # the other threads wait for its slot.
                time.sleep(5e-3)
                seen.append((first, run.copy()))
                if close is not None and len(seen) == close + 1:
                    runs.close()
                    break
        except BaseException as exc:
            raised.append(exc)

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hg.engine, "_RING_BYTES", budget)
        patch.setattr(hg.engine, "_available_cpus", lambda: cpus)
        patch.setattr(hg.engine, "_row_drawer", failing_drawer)
        before = threading.active_count()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=iterate, daemon=True)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert threading.active_count() == before
    assert [first for first, _ in seen] == list(range(0, n_steps, run_steps))[:len(seen)]
    for first, run in seen:
        assert np.array_equal(run, expected[first:first + len(run)])
    if raised:
        assert len(raised) == 1 and isinstance(raised[0], _DrawFailed)
        assert raised[0].args == (bad_row,) and len(seen) <= fail
    else:
        assert fail is None or (close is not None and close < fail)
        assert len(seen) == (n_runs if close is None else close + 1)


class _LateTicket:
    """Stands in for the queue of run tickets.  ``get_nowait`` finds it
    empty, so the helpers draw every run, and a helper's ``get`` holds run
    1's ticket back until run 2's draw has failed: the next ``get`` after
    the failure hands it out."""

    def __init__(self, failed):
        self.queue = queue.SimpleQueue()
        self.failed = failed
        self.released = threading.Event()

    def put(self, item):
        self.queue.put(item)

    def get_nowait(self):
        raise queue.Empty

    def get(self):
        if self.failed.is_set():
            self.released.set()
        item = self.queue.get()
        if item == 1:
            self.released.wait(timeout=30)
        return item


def test_the_hand_off_of_a_ticket_taken_after_a_failure(monkeypatch):
    """A helper that takes an earlier run's ticket after a later run's draw
    has failed sets that run's event without drawing it, so the caller,
    waiting for it, gets the failure: run 0 arrives, then the injected
    error, and every thread ends.  A helper that exited on seeing the
    failure instead would drop the ticket and leave the caller waiting.
    Run 2 fails only once the caller has run 0, which it would not yield
    after a failure."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 3)
    n_paths, n_steps = 3 * _THREAD_PATHS, 48
    assert hg.engine._ring_plan(n_paths, n_steps, 3, 3) == (3, 4, 6)
    first_seen, failed = threading.Event(), threading.Event()
    drawer = hg.engine._row_drawer
    bad_row = 3 * 12  # the first row of run 2

    def failing_drawer(*args):
        draw = drawer(*args)

        def fail_on_bad_row(row, out):
            if row == bad_row:
                first_seen.wait(timeout=30)
                failed.set()
                raise _DrawFailed(row)
            draw(row, out)
        return fail_on_bad_row

    monkeypatch.setattr(hg.engine, "_row_drawer", failing_drawer)
    monkeypatch.setattr(hg.engine, "SimpleQueue", lambda: _LateTicket(failed))
    seen, raised = [], []

    def iterate():
        try:
            for first, _ in hg.engine.standard_draws(1, n_paths, n_steps, workers=3):
                seen.append(first)
                first_seen.set()
        except BaseException as exc:
            raised.append(exc)

    before = threading.active_count()
    worker = threading.Thread(target=iterate, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert threading.active_count() == before
    assert seen == [0]
    assert len(raised) == 1 and isinstance(raised[0], _DrawFailed)
    assert raised[0].args == (bad_row,)


def test_draws_left_open_at_exit_let_the_interpreter_exit():
    """The draw threads of an iterator neither closed nor dropped wait for
    a slot when the interpreter exits; they must not keep it running."""
    code = ("import hsv_greeks.engine as e; e._available_cpus = lambda: 3; "
            "runs = e.standard_draws(1, 3 * 1024, 64, workers=3); next(runs)")
    subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True, timeout=60)


@pytest.mark.parametrize("run_steps", [1, 5, None])
def test_simulation_does_not_depend_on_the_run_length(monkeypatch, hv_model,
                                                      hv_init, run_steps):
    """Budgets that give runs of one step, of a length that leaves a short
    last run, and of the whole block step the same paths as the default
    budget on two threads."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 2)
    cfg = small_cfg(n_paths=2 * _CHUNK + 1, n_steps=12, sigma_floor=0.2,
                    worker_hint=2)
    reference = hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
    # Two threads draw into a ring of three runs; a run of the whole block
    # is one thread's, as two threads' runs are at most a block-step of
    # normals long (8 steps here).
    _set_budget(monkeypatch, cfg.n_paths, 3 * (run_steps or cfg.n_steps))
    workers = 2 if run_steps else 1
    plan = (2, 3, run_steps) if run_steps else (1, 1, cfg.n_steps)
    assert hg.engine._ring_plan(cfg.n_paths, cfg.n_steps, workers, 2) == plan
    paths = hg.simulate_paths(hv_model, hv_init, dataclasses.replace(cfg, worker_hint=workers),
                              drift_extras=True)
    for name in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS + ("j2", "j3", "g3"):
        assert np.array_equal(getattr(paths, name), getattr(reference, name)), name
    assert paths.clamp_count == reference.clamp_count > 0


def test_two_block_run_holds_one_copy_of_each_returned_field(hv_model, hv_init):
    """Blocks run one at a time, also with two workers, and each sums its
    integrals straight into its slice of the returned arrays: a weighted
    two-block run with the drift extras holds the ring of draws, one
    block's step loop and one copy of each of its 13 fields.  About 8.8
    MiB traced, within 10.25 MiB; 10.6 MiB when it also returned V, r and
    the first variations, and 12.8 MiB when each block also summed into
    arrays of its own and copied them out."""
    cfg = small_cfg(n_paths=2 * _BLOCK, n_steps=64, worker_hint=2)
    tracemalloc.start()
    try:
        hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fields = len(_STATE_ONLY_FIELDS + _WEIGHT_FIELDS + ("j2", "j3", "g3")) * cfg.n_paths * 8
    # Allowance for one block's step-loop state, scratch and the model's
    # temporaries: 32 arrays of one value per path (about 27 measured).
    step_loop = 32 * _BLOCK * 8
    assert peak <= hg.engine._RING_BYTES + fields + step_loop, peak / 2**20


def test_a_weighted_block_holds_a_few_runs_of_draws(hv_model, hv_init):
    """One weighted 16,384 x 252 block with the drift extras, on two
    threads: its draws are made a run at a time into a ring within the
    byte budget, so the traced peak stays within 12 MiB (about 7.2 MiB
    measured on two CPUs), where the block's draws alone are 95 MiB."""
    cfg = small_cfg(n_paths=_BLOCK, n_steps=252, worker_hint=2)
    tracemalloc.start()
    try:
        hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak / 2**20


def test_a_multi_thread_ring_holds_runs_of_about_one_block_step(monkeypatch, hv_model,
                                                                hv_init):
    """A weighted 10,000 x 252 block with the drift extras on two CPUs: two
    threads draw runs of 2 steps, about one block-step of normals, into a
    ring of three (1.4 MB), and the step loop updates its first variations
    in place and hands its S_T over, so the traced peak stays within
    5.5 MiB: about 4.4 MiB measured, 6.2 MiB with runs of 4 steps (2.9 MB),
    as long as the budget allows, and a copied-out state."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 2)
    cfg = small_cfg(n_paths=10_000, n_steps=252)
    assert hg.engine._ring_plan(cfg.n_paths, cfg.n_steps, None, 2) == (2, 3, 2)
    tracemalloc.start()
    try:
        hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20, peak / 2**20


def test_the_ring_of_draws_is_bounded_by_bytes_not_by_cpus(monkeypatch, hv_model,
                                                           hv_init):
    """A weighted 16,384 x 252 block with the drift extras on 1, 2 and 16
    CPUs, where sixteen would start sixteen draw threads, each with a run
    in the ring: the budget caps the threads and sizes the runs, so the
    traced peak stays within the step loop's allowance plus the budget on
    every CPU count, and every bit is the same."""
    cfg = small_cfg(n_paths=_BLOCK, n_steps=252)
    # Allowance for the block's step-loop state, temporaries and
    # accumulators: 64 arrays of one value per path.
    step_loop = 64 * _BLOCK * 8

    def traced_run(cpus):
        monkeypatch.setattr(hg.engine, "_available_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            paths = hg.simulate_paths(hv_model, hv_init, cfg, drift_extras=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= step_loop + hg.engine._RING_BYTES, (cpus, peak / 2**20)
        return paths

    one = traced_run(1)
    for cpus in (2, 16):
        paths = traced_run(cpus)
        for name in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS + ("j2", "j3", "g3"):
            assert np.array_equal(getattr(paths, name), getattr(one, name)), (cpus, name)


def test_one_draw_thread_draws_into_a_ring_of_one_run(monkeypatch):
    """One thread draws run k+1 only once run k has been stepped, so its ring
    holds one run, as long as the budget allows, where two threads share
    the budget among three: every run arrives in the same slot, no row of
    a later run is drawn before the run is handed back, and the runs are
    the draws of two threads, bit for bit."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 2)
    n_paths, n_steps = 2 * _THREAD_PATHS, 20
    _set_budget(monkeypatch, n_paths, 6)
    assert hg.engine._ring_plan(n_paths, n_steps, 1, 2) == (1, 1, 6)
    assert hg.engine._ring_plan(n_paths, n_steps, 2, 2) == (2, 3, 2)
    drawer = hg.engine._row_drawer
    rows_drawn = []

    def counting_drawer(*args):
        draw = drawer(*args)

        def counted(row, out):
            rows_drawn.append(row)
            draw(row, out)
        return counted

    monkeypatch.setattr(hg.engine, "_row_drawer", counting_drawer)
    seen, slots = [], []
    for first_step, run in hg.engine.standard_draws(3, n_paths, n_steps, workers=1):
        assert rows_drawn == list(range(3 * (first_step + len(run))))
        seen.append((first_step, run.copy()))
        slots.append(run.base)
    assert [first for first, _ in seen] == [0, 6, 12, 18]
    assert all(slot is slots[0] for slot in slots)
    monkeypatch.setattr(hg.engine, "_row_drawer", drawer)
    rows = np.concatenate([run for _, run in seen])
    z = draws_array(3, n_paths, n_steps, workers=2)
    assert np.array_equal(rows, z.transpose(1, 2, 0))


@pytest.mark.parametrize("n_paths, workers, cpus, plan", [
    (10_000, None, 2, (2, 3, 2)), (16_384, None, 2, (2, 3, 2)),
    (5_000, None, 2, (2, 3, 4)), (2_000, None, 2, (2, 3, 9)),
    (16_384, None, 16, (7, 8, 1)),
    (10_000, 1, 2, (1, 1, 13)), (16_384, None, 1, (1, 1, 8)), (250, None, 2, (1, 1, 252)),
])
def test_ring_plans_of_252_step_blocks(n_paths, workers, cpus, plan):
    """Several threads draw runs of about one block-step of normals, two
    steps at least, within the budget; one thread draws runs as long as
    the budget allows."""
    assert hg.engine._ring_plan(n_paths, 252, workers, cpus) == plan


@settings(max_examples=300, deadline=None)
@given(n_paths=st.integers(1, 3 * _BLOCK), n_steps=st.integers(1, 600),
       workers=st.none() | st.integers(1, 64), cpus=st.integers(1, 64),
       budget_eighths=st.none() | st.integers(0, 400))
def test_the_ring_plan_keeps_its_budget_and_covers_every_step(
        n_paths, n_steps, workers, cpus, budget_eighths):
    """Whatever the block, workers, CPUs and budget (the default, or eighths
    of a step): the ring of ``depth`` runs of ``steps`` steps holds at most
    the budget, or one step; the runs cover every step once, in order; at
    least one thread draws and no more than the workers or the CPUs; one
    thread draws into a ring of one run, and more into a ring of a run per
    thread plus at most one, and of no more runs than the block has.  Runs
    on one worker or CPU are as long as the budget allows, and runs of
    several threads at most a block-step of normals, or two steps."""
    step_bytes = 3 * 8 * n_paths
    with pytest.MonkeyPatch.context() as patch:
        if budget_eighths is not None:
            patch.setattr(hg.engine, "_RING_BYTES", max(1, budget_eighths * step_bytes // 8))
        threads, depth, steps = hg.engine._ring_plan(n_paths, n_steps, workers, cpus)
        budget = hg.engine._RING_BYTES
    assert depth * steps * step_bytes <= max(budget, step_bytes)
    runs = [range(first, min(first + steps, n_steps)) for first in range(0, n_steps, steps)]
    assert [step for run in runs for step in run] == list(range(n_steps))
    assert 1 <= threads <= min(workers or cpus, cpus, len(runs))
    if threads == 1:
        assert depth == 1
    else:
        assert threads <= depth <= min(threads + 1, len(runs))
        assert steps <= max(2, -(-_BLOCK // n_paths))
    if min(workers or cpus, cpus) == 1:
        assert steps == max(1, min(n_steps, budget // step_bytes))


# ---------------------------------------------------------------------------
# accumulator contracts

@pytest.mark.parametrize("weights", [True, False])
def test_simulated_arrays_are_read_only(hv_model, hv_init, weights):
    paths = hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=8, n_steps=4),
                              drift_extras=weights, weights=weights)
    arrays = [f.name for f in dataclasses.fields(paths)
              if isinstance(getattr(paths, f.name), np.ndarray)]
    assert arrays == list(_STATE_ONLY_FIELDS + _WEIGHT_FIELDS + _DRIFT_FIELDS
                          if weights else _STATE_ONLY_FIELDS)
    for name in arrays:
        with pytest.raises(ValueError):
            getattr(paths, name)[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        paths.D = np.zeros(8)


@pytest.mark.parametrize("weights", [True, False])
@pytest.mark.parametrize("state", [(100, 0.04, 0.02), (100.0, 1, 0.02), (100, 1, 0)])
def test_integer_initial_states_give_the_float_bits(hv_model, weights, state):
    """An initial state given as integers steps the same paths as the same
    values given as floats, weighted and state only."""
    cfg = small_cfg(n_paths=64, n_steps=8)
    paths = hg.simulate_paths(hv_model, hg.InitialState(*state), cfg,
                              drift_extras=weights, weights=weights)
    reference = hg.simulate_paths(hv_model, hg.InitialState(*map(float, state)), cfg,
                                  drift_extras=weights, weights=weights)
    for f in dataclasses.fields(paths):
        value = getattr(reference, f.name)
        if isinstance(value, np.ndarray):
            assert getattr(paths, f.name).dtype == np.float64, f.name
            assert np.array_equal(getattr(paths, f.name), value), f.name
    assert paths.clamp_count == reference.clamp_count


def test_record_count_and_finiteness(hv_paths_10k):
    acc = hv_paths_10k
    assert acc.s_T.shape == (10_000,)
    for name in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS:
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


def test_first_variation_terminals_positive(hv_model, hv_init):
    """Y22 and Y33, exponentials of their logs, stay positive at every
    grid point of the reference stepper, whose first variations the
    engine's P2 and P3 read."""
    series = reference_series(hv_model, hv_init, small_cfg(n_paths=500))
    assert np.all(series.y22 > 0)
    assert np.all(series.y33 > 0)


def test_degenerate_p23_sentinel(deg_model, deg_init):
    acc = hg.simulate_paths(deg_model, deg_init, small_cfg())
    assert all(getattr(acc, name) is None
               for name in ("P2", "P3", "j2", "j3", "g3"))


def test_a_degenerate_weighted_run_calls_no_derivative_field(deg_model, deg_init):
    """P2 and P3 are undefined on a degenerate model, so a weighted run
    steps no first variation: derivative fields that raise when called
    leave every field and both counts as they are, across the 16,384-path
    block edge and with every path clamped."""
    def refuse(x):
        raise AssertionError("a derivative field was called")

    raising = dataclasses.replace(deg_model, **{
        name: refuse for name in ("sigma_prime", "u_prime", "v_prime", "f_prime", "g_prime")})
    cfg = small_cfg(n_paths=_BLOCK + 1, n_steps=3, sigma_floor=0.25)
    for weights in (True, ("P2",), ("I1", "P3")):
        got = hg.simulate_paths(raising, deg_init, cfg, weights=weights)
        want = hg.simulate_paths(deg_model, deg_init, cfg, weights=weights)
        assert got.P2 is None and got.P3 is None
        for field in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), (weights, field)
        assert got.clamp_count == want.clamp_count >= cfg.n_paths * cfg.n_steps
        assert got.n_integrand_evals == want.n_integrand_evals


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
    z = draws_array(cfg.seed, cfg.n_paths, cfg.n_steps)[:, 0, 0]
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
    """A blow-up raised by the step loop while draw threads still draw later
    runs: the same path and step as on one thread, and every thread the
    block started has ended when the error arrives.  The block has more
    runs than its ring has slots, and the step loop starts late, so the
    other threads have filled the ring and wait for a slot when it raises."""
    monkeypatch.setattr(hg.engine, "_available_cpus", lambda: 3)
    draws = hg.engine.standard_draws

    def late_draws(*args, **kwargs):
        with contextlib.closing(draws(*args, **kwargs)) as runs:
            for item in runs:
                time.sleep(0.05)
                yield item

    monkeypatch.setattr(hg.engine, "standard_draws", late_draws)
    cfg = small_cfg(n_paths=4 * _THREAD_PATHS, n_steps=64)
    # On three threads, more runs than the ring's four slots.
    threads, depth, run_steps = hg.engine._ring_plan(cfg.n_paths, cfg.n_steps, 3, 3)
    assert threads == 3 and -(-cfg.n_steps // run_steps) > depth
    found = []
    for hint in (1, 2, 3):
        before = threading.active_count()
        with pytest.raises(hg.NumericalBlowup) as info:
            hg.simulate_paths(_wild_model(), hv_init,
                              dataclasses.replace(cfg, worker_hint=hint))
        assert threading.active_count() == before
        found.append((info.value.path_index, info.value.step_index))
    assert found[0] == found[1] == found[2]
    # In the first run of steps: the later runs are still to be stepped.
    assert found[0][1] < run_steps


def test_a_blowup_in_the_second_block_names_its_path_among_all(monkeypatch, hv_model,
                                                              hv_init):
    """A normal of 1e12 at path 5 of the second block's first step blows S
    up there: the error names that path's index among all the paths,
    16,384 + 5, and step 0.  A state-only run, so that no S overflows exp
    first."""
    draws = hg.engine.standard_draws

    def wild_draws(seed, n_paths, n_steps, block=0, **kwargs):
        with contextlib.closing(draws(seed, n_paths, n_steps, block=block, **kwargs)) as runs:
            for first, run in runs:
                if block == 1 and first == 0:
                    run[0, 0, 5] = 1e12
                yield first, run

    monkeypatch.setattr(hg.engine, "standard_draws", wild_draws)
    with pytest.raises(hg.NumericalBlowup) as info:
        hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=_BLOCK + 16, n_steps=4),
                          weights=False)
    assert (info.value.path_index, info.value.step_index) == (16_389, 0)
    assert info.value.detail == "state S"


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
        for name in ("s_T", "D", "I1", "P2", "P3", "j2", "g3"):
            assert np.array_equal(getattr(first, name), getattr(other, name))


def test_repeat_run_is_bitwise_identical(hv_model, hv_init):
    a = hg.simulate_paths(hv_model, hv_init, small_cfg())
    b = hg.simulate_paths(hv_model, hv_init, small_cfg())
    assert np.array_equal(a.s_T, b.s_T) and np.array_equal(a.I3, b.I3)


# ---------------------------------------------------------------------------
# state-only runs (weights=False), as the finite-difference prices use

_STATE_ONLY_FIELDS = ("s_T", "D")
_WEIGHT_FIELDS = ("I1", "I2", "I3", "A", "Q", "w1_T", "P2", "P3")


# The finite-difference Greeks of each model, and those whose bump moves a
# model field rather than the initial state.
_FD_GREEKS = {"heston_vasicek": ("delta", "rho", "vega", "vega_v0", "rho_r0",
                                 "kappa", "reversion"),
              "black_scholes": ("delta", "rho", "vega")}
_MODEL_MOVES = {"heston_vasicek": ("rho", "vega", "kappa", "reversion"),
                "black_scholes": ("rho", "vega")}


@pytest.mark.parametrize("model_name,greek", [
    (name, greek) for name, greeks in _FD_GREEKS.items() for greek in (None, *greeks)])
def test_state_only_run_matches_the_full_run_bit_for_bit(
        model_name, greek, hv_model, hv_init, deg_model, deg_init):
    """A state-only run of each finite-difference price's moved pair has
    the full run's S_T, D and counts."""
    model, init = ((hv_model, hv_init) if model_name == "heston_vasicek"
                   else (deg_model, deg_init))
    if greek is not None:
        model, init = moved(model, init, greek, 0.01)
    for n_paths in (1, 16385):
        for workers in (1, 2):
            # a floor near sigma(V_0) = 0.2 clamps part of the evaluations
            cfg = small_cfg(n_paths=n_paths, n_steps=3, sigma_floor=0.2,
                            worker_hint=workers)
            full = hg.simulate_paths(model, init, cfg)
            state = hg.simulate_paths(model, init, cfg, weights=False)
            for name in _STATE_ONLY_FIELDS:
                assert np.array_equal(getattr(full, name),
                                      getattr(state, name)), name
            assert state.clamp_count == full.clamp_count
            assert state.n_integrand_evals == full.n_integrand_evals
            assert all(getattr(state, name) is None for name in _WEIGHT_FIELDS)
            if model_name == "heston_vasicek" and n_paths > 1:
                assert 0 < full.clamp_count < full.n_integrand_evals


# The weight fields by the group that computes them: a run that asks for one
# field of a group computes the whole group.
_FIELD_GROUPS = (("I1", "I2", "I3", "A", "Q", "w1_T"),
                 ("P2", "P3"),
                 ("j2", "j3", "g3"))
_DRIFT_FIELDS = _FIELD_GROUPS[2]


def _field_sets():
    """Each Greek's ``reads``, and the union the compare_fd tokens read."""
    table = hg.greeks._GREEKS
    sets = {greek: spec.reads for greek, spec in table.items()}
    sets["compare_fd"] = table["delta"].reads + table["vega"].reads
    return sets


@pytest.mark.parametrize("model_name", ["heston_vasicek", "black_scholes"])
def test_field_subset_run_matches_the_full_run_bit_for_bit(
        model_name, hv_model, hv_init, deg_model, deg_init):
    """A run for some fields computes their groups with the full run's bits
    and leaves every other weight field None."""
    model, init = ((hv_model, hv_init) if model_name == "heston_vasicek"
                   else (deg_model, deg_init))
    for n_paths in (1, 16385):
        # a floor near sigma(V_0) = 0.2 clamps part of the evaluations
        cfg = small_cfg(n_paths=n_paths, n_steps=3, sigma_floor=0.2)
        full = hg.simulate_paths(model, init, cfg, drift_extras=not model.degenerate)
        for name, fields in _field_sets().items():
            if model.degenerate and set(fields) & set(_DRIFT_FIELDS):
                with pytest.raises(hg.DegenerateModel):
                    hg.simulate_paths(model, init, cfg, weights=fields)
                continue
            part = hg.simulate_paths(model, init, cfg, weights=fields)
            kept = {f for group in _FIELD_GROUPS if set(group) & set(fields)
                    for f in group}
            assert set(fields) <= kept, name
            for field in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS + _DRIFT_FIELDS:
                got, want = getattr(part, field), getattr(full, field)
                if field in kept or field in _STATE_ONLY_FIELDS:
                    # P2 and P3 are undefined on a degenerate model.
                    if model.degenerate and field in ("P2", "P3"):
                        assert got is None and want is None, (name, field)
                    else:
                        assert np.array_equal(got, want), (name, field)
                else:
                    assert got is None, (name, field)
            assert part.clamp_count == full.clamp_count, name
            assert part.n_integrand_evals == full.n_integrand_evals, name
        if model is hv_model and n_paths > 1:
            assert 0 < full.clamp_count < full.n_integrand_evals


def test_weights_refuses_a_name_that_is_no_weight_field(hv_model, hv_init):
    for fields in (("I1", "s_T"), ("P4",), ["y12_T"], ("v_T",)):
        with pytest.raises(hg.InvalidParams, match="no weight field"):
            hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=8),
                              weights=fields)


# Default parameters; a floor that clamps most sigma evaluations; and a
# volatility of variance large enough for V to reach 0 and clamp v(V).
_PREFIX_CONFIGS = ({}, {"sim.sigma_floor": "0.5"},
                   {"model.sigma_vol": "0.25", "model.k": "0.02"})


@pytest.mark.parametrize("entries", _PREFIX_CONFIGS,
                         ids=["defaults", "sigma_floor", "sigma_vol"])
def test_path_prefix_matches_a_shorter_run_bit_for_bit(entries):
    """The first n paths of a run are those of an n-path run, in every
    field, across the 16,384-path block edge.  clamp_count, a total over
    the paths, has no prefix to compare."""
    config = hg.build_run_config({**entries, "sim.n_steps": "64"})
    long = hg.simulate_paths(config.model, config.init,
                             dataclasses.replace(config.sim, n_paths=20000),
                             drift_extras=True)
    if entries:
        assert long.clamp_count > 0
    for n in (250, 1000, 2000, 5000, 10000, 16384, 16385):
        short = hg.simulate_paths(config.model, config.init,
                                  dataclasses.replace(config.sim, n_paths=n),
                                  drift_extras=True)
        for field in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS + _DRIFT_FIELDS:
            assert np.array_equal(getattr(long, field)[:n],
                                  getattr(short, field)), (n, field)


_COEFFICIENTS = ("sigma", "u", "v", "f", "g",
                 "sigma_prime", "u_prime", "v_prime", "f_prime", "g_prime")


def _as_callables(model):
    """``model`` with each number field a function that returns an array
    of that number, as ``np.full_like``; a degenerate model keeps v and g,
    whose callables would make it hybrid."""
    def constant(value):
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)

    kept = {"v", "g"} if model.degenerate else set()
    return dataclasses.replace(model, **{
        name: constant(getattr(model, name)) for name in _COEFFICIENTS
        if not callable(getattr(model, name)) and name not in kept})


@pytest.mark.parametrize("sigma_floor", [1e-8, 0.2, 0.25])
@pytest.mark.parametrize("model_name", ["heston_vasicek", "number_v", "black_scholes"])
def test_number_fields_give_the_bits_of_callables(
        model_name, sigma_floor, hv_model, hv_init, deg_model, deg_init):
    """Number fields, carried as numbers, give every field and both counts
    of the same model with array callables, across the 16,384-path block
    edge; so does each finite-difference price's moved model, in which a
    number field stays a number.  The number-v model is Heston–Vasicek
    with the constant v = 0.01, a number v of a hybrid model."""
    model, init = {"heston_vasicek": (hv_model, hv_init),
                   "number_v": (dataclasses.replace(hv_model, v=0.01, v_prime=0.0), hv_init),
                   "black_scholes": (deg_model, deg_init)}[model_name]
    numbers = {name for name in _COEFFICIENTS if not callable(getattr(model, name))}
    hybrid_numbers = {"g", "u_prime", "f_prime", "g_prime"}
    assert numbers == {"heston_vasicek": hybrid_numbers,
                       "number_v": hybrid_numbers | {"v", "v_prime"},
                       "black_scholes": set(_COEFFICIENTS)}[model_name]
    callables = _as_callables(model)
    cfg = small_cfg(n_paths=16385, n_steps=64, sigma_floor=sigma_floor)
    runs = [{"weights": True}, {"weights": {"P3"}}, {"weights": False}]
    if not model.degenerate:
        runs.append({"drift_extras": True})
    cases = [(kwargs, model, callables, init, kwargs) for kwargs in runs]
    for greek in _MODEL_MOVES.get(model_name, ()):
        (moved_model, moved_init), (moved_callables, _) = (
            moved(m, init, greek, 0.001) for m in (model, callables))
        assert numbers == {name for name in _COEFFICIENTS
                           if not callable(getattr(moved_model, name))}, greek
        cases.append((f"fd:{greek}", moved_model, moved_callables, moved_init,
                      {"weights": False}))
    for case, spec, as_callables, state, kwargs in cases:
        got = hg.simulate_paths(spec, state, cfg, **kwargs)
        want = hg.simulate_paths(as_callables, state, cfg, **kwargs)
        for field in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS + _DRIFT_FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), (case, field)
        assert got.clamp_count == want.clamp_count, case
        assert got.n_integrand_evals == want.n_integrand_evals, case
        # The number that divides, g or the Black–Scholes sigma, clamps
        # every path at every step when it is below the floor.
        divisor = spec.sigma if spec.degenerate else spec.g
        assert ((got.clamp_count >= cfg.n_paths * cfg.n_steps)
                == (divisor < sigma_floor)), case


def test_replaced_correlations_carry_their_mixing(hv_model, hv_init):
    """ModelSpec.mixing is derived from the correlations, so a replace copy
    with zero correlations simulates bit for bit like the model built with
    them; it once kept the old loadings and stepped Z^2 with mu1 = 0.6."""
    zero = hg.CorrelationTriple(0.0, 0.0, 0.0)
    replaced = dataclasses.replace(hv_model, correlations=zero)
    rebuilt = hg.heston_vasicek_model(HV_PARAMS, zero)
    assert replaced.mixing == rebuilt.mixing == (1.0, 0.0, 1.0)
    cfg = small_cfg(n_paths=4000, n_steps=16)
    got, want = (hg.simulate_paths(m, hv_init, cfg, drift_extras=True)
                 for m in (replaced, rebuilt))
    for field in _STATE_ONLY_FIELDS + _WEIGHT_FIELDS + _DRIFT_FIELDS:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


def test_replaced_v_and_g_make_a_hybrid_model(deg_model, hv_init):
    """ModelSpec.degenerate is derived from v and g, so a replace copy of
    the Black–Scholes model with a square-root v and g = 0.01 is hybrid: it
    computes P2 and P3, counts the clamps of v and g, and gives vega_v0.
    The copy once kept the builder's flag, computed no P2 or P3, and
    refused vega_v0."""
    hybrid = dataclasses.replace(
        deg_model, v=lambda V: 0.04 * np.sqrt(np.maximum(V, 0.0)),
        v_prime=lambda V: 0.02 / np.sqrt(np.maximum(V, 1e-300)), g=0.01)
    cfg = small_cfg(n_paths=2000, n_steps=16)
    paths = hg.simulate_paths(hybrid, hv_init, cfg)
    assert paths.n_integrand_evals == 3 * cfg.n_paths * cfg.n_steps
    assert np.all(np.isfinite(paths.P2)) and np.any(paths.P2 != 0.0)
    assert np.all(np.isfinite(paths.P3)) and np.any(paths.P3 != 0.0)
    hg.bismut_vector(paths, hg.Payoff("call", strike=100.0))
    assert not hybrid.degenerate


def test_zero_v_and_g_make_a_degenerate_model(hv_model, hv_init):
    """A model whose v and g are the number 0 is degenerate whatever built
    it: it refuses vega_v0 and counts no clamp of v or g.  Heston–Vasicek
    with v = g = 0 was once hybrid, and at 2,000 x 16 paths clamped 64,000
    of its 96,000 integrand evaluations and built P2 and P3 from
    1/sigma_floor."""
    flat = dataclasses.replace(hv_model, v=0.0, v_prime=0.0, g=0.0)
    cfg = small_cfg(n_paths=2000, n_steps=16)
    paths = hg.simulate_paths(flat, hv_init, cfg)
    assert (paths.clamp_count, paths.n_integrand_evals) == (0, cfg.n_paths * cfg.n_steps)
    assert paths.P2 is None and paths.P3 is None
    with pytest.raises(hg.DegenerateModel, match="^malliavin:vega_v0 "):
        hg.bismut_vector(paths, hg.Payoff("call", strike=100.0))
    assert flat.degenerate


def test_state_only_run_refuses_drift_extras(hv_model, hv_init):
    with pytest.raises(hg.InvalidParams, match="weights=True"):
        hg.simulate_paths(hv_model, hv_init, small_cfg(n_paths=8),
                          drift_extras=True, weights=False)


@pytest.mark.parametrize("estimate", [
    lambda p, pay: hg.delta(p, pay, p.s0),
    lambda p, pay: hg.rho(p, pay, p.maturity),
    lambda p, pay: hg.vega(p, pay, p.maturity),
    hg.bismut_vector,
    lambda p, pay: hg.drift_sensitivity(p, pay, "kappa"),
    lambda p, pay: hg.drift_sensitivity(p, pay, "reversion_speed"),
], ids=["delta", "rho", "vega", "bismut_vector", "kappa", "reversion_speed"])
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
@pytest.mark.parametrize("model_name", ["heston_vasicek", "black_scholes", "affine_g",
                                        "identity_drifts"])
def test_reference_stepper_matches_simulate_paths_bit_for_bit(
        model_name, sigma_floor, hv_model, hv_init, deg_model, deg_init,
        affine_g_model):
    """S_T and the integrals equal those of a stepper that keeps every grid
    point, P2 and P3 through the first variations both step; at
    sigma_floor=0.2 part of sigma clamps.  The affine-g model runs the array form of 1/g, L33 and y33.
    The identity-drifts model's u(V) = V and f(r) = r return their own
    argument object, the aliasing for which the engine steps V and r
    through a spare buffer.  The two-block run checks the integrals the
    second block sums in place into its slice of the returned arrays."""
    identity_drifts = dataclasses.replace(
        hv_model, u=lambda V: V, u_prime=1.0,
        f=lambda r: r, f_prime=1.0, hv_params=None)
    model, init = {"heston_vasicek": (hv_model, hv_init),
                   "black_scholes": (deg_model, deg_init),
                   "affine_g": (affine_g_model, hv_init),
                   "identity_drifts": (identity_drifts, hv_init)}[model_name]
    for cfg in (small_cfg(n_paths=300, sigma_floor=sigma_floor),
                small_cfg(n_paths=_BLOCK + 300, n_steps=4, sigma_floor=sigma_floor)):
        paths = hg.simulate_paths(model, init, cfg, drift_extras=not model.degenerate)
        series = reference_series(model, init, cfg)
        assert np.array_equal(paths.s_T, series.s[:, -1]), cfg.n_paths
        for name, values in series.integrals.items():
            assert np.array_equal(getattr(paths, name), values), (cfg.n_paths, name)
        if model is hv_model and sigma_floor == 0.2:
            assert 0 < paths.clamp_count < paths.n_integrand_evals


def test_y11_identity_along_the_whole_path(hv_model, hv_init):
    """The first variation of S w.r.t. s0, carried by its own recursion,
    is s_t/s0 at every grid time."""
    series = reference_series(hv_model, hv_init, small_cfg(n_paths=500))
    ratio = series.s / hv_init.s0
    assert np.max(np.abs(series.y11 - ratio) / ratio) < 1e-12


def test_first_variation_initial_values(hv_model, hv_init):
    """One step from Y12 = Y13 = 0 and Y22 = Y33 = 1, by hand, of the
    reference stepper, whose first variations the engine's P2 and P3 read
    (test_reference_stepper_matches_simulate_paths_bit_for_bit)."""
    cfg = small_cfg(n_paths=8, n_steps=1)
    z = draws_array(cfg.seed, cfg.n_paths, cfg.n_steps)[:, 0, :]
    series = reference_series(hv_model, hv_init, cfg)
    v0, mu1 = np.full(cfg.n_paths, hv_init.v0), hv_model.mixing.mu1
    dZ2 = hv_model.correlations.rho12 * z[:, 0] + mu1 * z[:, 1]
    vp = hv_model.v_prime(v0)
    assert np.all(series.y12[:, 0] == 0.0) and np.all(series.y13[:, 0] == 0.0)
    assert np.all(series.y22[:, 0] == 1.0) and np.all(series.y33[:, 0] == 1.0)
    assert np.all(series.y13[:, 1] == hv_init.s0)
    np.testing.assert_allclose(
        series.y12[:, 1], hv_init.s0 * hv_model.sigma_prime(v0) * z[:, 0], rtol=1e-12)
    np.testing.assert_allclose(
        series.y22[:, 1], np.exp(hv_model.u_prime - 0.5 * vp * vp + vp * dZ2),
        rtol=1e-12)
    np.testing.assert_allclose(series.y33[:, 1], math.exp(-0.02), rtol=1e-12)


def test_y33_collapses_to_exponential_for_constant_g(hv_model, hv_init):
    # g' = 0 and f' = -a, so the rate first-variation is deterministic.
    series = reference_series(hv_model, hv_init, small_cfg(n_paths=500))
    expect = math.exp(-0.02 * 1.0)
    assert np.max(np.abs(series.y33[:, -1] - expect)) < 1e-12


def test_y12_vanishes_with_constant_sigma(deg_model, deg_init):
    series = reference_series(deg_model, deg_init, small_cfg(n_paths=50))
    assert np.all(series.y12 == 0.0)
    assert np.all(series.y13[:, -1] > 0.0)  # positive source S*y33


def test_one_step_y13_equals_s0_dt(deg_model):
    init = hg.InitialState(100.0, 0.04, 0.05)
    cfg = hg.SimConfig(n_paths=2, n_steps=1, maturity=1.0, seed=0)
    series = reference_series(deg_model, init, cfg)
    dt = cfg.maturity / cfg.n_steps
    assert np.all(series.y13[:, 1] == init.s0 * dt)
    assert np.all(series.y12[:, 1] == 0.0)


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

def exact_sum(x):
    """The engine's exactly rounded sum of the 1-D float array ``x``, with
    the top it takes (nan for an empty ``x``, which has none)."""
    top = max(x.max(), -x.min()) if x.size else math.nan
    return hg.engine._exact_sum(x, top)


def test_exact_sum_is_order_independent():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=[1.0, 1e8, 1e-8][0], size=4001) * rng.choice(
        [1e-6, 1.0, 1e6], size=4001)
    total = exact_sum(x)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(x.size)
        assert exact_sum(x[perm]) == total


def _near_a_midpoint(n, sign):
    """n values whose exact sum, 1 + 2**-53 + sign * 2**-120, lies 2**-120
    from the midpoint of 1 and its successor: 1.0, then 2**-53 split into
    a power of two of equal parts, then 2**-120, in a shuffled order."""
    parts = 1 << (n - 2).bit_length() - 1
    x = np.zeros(n)
    x[0] = 1.0
    x[1:1 + parts] += 2.0 ** -53 / parts
    x[-1] += sign * 2.0 ** -120
    np.random.default_rng(n).shuffle(x)
    return x


@pytest.mark.parametrize("n", [3, 16_384])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("negate", [False, True])
def test_exact_sum_rounds_sums_beside_a_midpoint(n, sign, negate):
    """The floating-point sum of the remainders cannot tell on which side
    of the midpoint these sums lie, so fsum sums the values, and the
    result is fsum's to the bit; the mean and standard error as well."""
    x = _near_a_midpoint(n, sign)
    if negate:
        x = -x
    expected = math.fsum(x.tolist())
    assert abs(expected) == (1.0 + 2.0 ** -52 if sign > 0 else 1.0)
    assert exact_sum(x).hex() == expected.hex()
    assert (struct.pack("<2d", *hg.stable_mean_se(x))
            == struct.pack("<2d", *fsum_mean_se(x)))


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
    # 16,000 to 20,000 straddles 16,384, where the exact sum's 2**M >= n+2 grows.
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
def test_exact_sum_is_fsum_bit_for_bit(x):
    """The exact sum has the bits of math.fsum, or the same exception type."""
    assert _outcome(exact_sum, x) == _outcome(lambda v: math.fsum(v.tolist()), x)


@settings(max_examples=200, deadline=None)
@given(_samples().filter(lambda x: x.size and np.isfinite(x).all()))
def test_stable_mean_se_is_the_fsum_reference_bit_for_bit(x):
    """mean = fsum(x)/n and se = sqrt(fsum((x-mean)**2)/(n-1)/n) to the
    bit, or the same exception type."""
    def bits(mean_se):
        return lambda v: struct.pack("<2d", *mean_se(v))
    assert _outcome(bits(hg.stable_mean_se), x) == _outcome(bits(fsum_mean_se), x)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stable_mean_se_of_one_signed_samples_is_the_fsum_reference(sign):
    """Samples of one sign over 60 binades, as payoffs times a weight of
    either sign are: the largest squared deviation is that of the largest
    sample or of the smallest, and the result is fsum's to the bit."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5000))
        x = sign * np.abs(np.ldexp(rng.standard_normal(n), rng.integers(-30, 30, n)))
        assert (struct.pack("<2d", *hg.stable_mean_se(x))
                == struct.pack("<2d", *fsum_mean_se(x))), seed


def test_stable_mean_se_against_reference():
    rng = np.random.default_rng(4)
    x = rng.normal(2.0, 3.0, size=10_000)
    mean, se = hg.stable_mean_se(x)
    assert mean == pytest.approx(np.mean(x), rel=1e-12)
    assert se == pytest.approx(np.std(x, ddof=1) / math.sqrt(x.size), rel=1e-9)


def test_stable_mean_se_single_sample():
    mean, se = hg.stable_mean_se(np.array([2.5]))
    assert (mean, se) == (2.5, 0.0)


@pytest.mark.parametrize("x", [np.ones((2, 2)), np.array(2.5)], ids=["2-D", "0-d"])
def test_stable_mean_se_refuses_a_sample_that_is_not_1d(x):
    """Refused by name, not with numpy's TypeError or IndexError."""
    with pytest.raises(hg.InvalidParams, match=r"must be 1-D, got shape \("):
        hg.stable_mean_se(x)
