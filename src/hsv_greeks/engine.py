"""Path engine for the merged three-factor SDE system.

Simulates

    dS_t = r_t S_t dt + S_t sigma(V_t) dW^1_t
    dV_t = u(V_t) dt + v(V_t) dZ^2_t
    dr_t = f(r_t) dt + g(r_t) dZ^3_t

on a uniform grid together with the first-variation entries
Y^12, Y^13, Y^22, Y^33 (Y^11 is S_t/S_0, see below), accumulating per path
every integral the Malliavin-weight estimators consume.  A bump-and-revalue
price reads only S_T and the discount integral D, so a state-only run
(``simulate_paths(..., weights=False)``) steps S, V and r and accumulates D
alone: same draws, same clamp counts and the same S_T/D bits as the full run.

Scheme choices
--------------
* S is stepped in log space (log-Euler), which keeps S positive and makes
  the discrete identity Y^11_t = S_t / S_0 hold to rounding, so the engine
  carries S and no Y^11.
* V uses full-truncation Euler: the state may go negative, but drift and
  diffusion are evaluated at max(V, variance_floor).
* r uses plain Euler.
* All dt-integrals are left-Riemann sums on the grid; all dW-integrals use
  the same increments that drive the state.
* Integrands dividing by sigma(V), v(V) or g(r) evaluate the denominator as
  max(., sigma_floor); every clamp is counted and surfaced.

Randomness
----------
Draws come from a counter-based generator (Philox) with the counter laid
out so that the normal draw for (seed, path, step, driver) is a pure
function of those four indices: path ``p`` owns the counter range
``[p*stride, (p+1)*stride)`` of the stream keyed by (seed, stream).  Draws
are therefore independent of block sizes, worker counts, and execution
order, and bumped re-simulations with the same seed reuse identical draws
(exact common random numbers).  A block of draws is stored step-major, as
one contiguous (n_steps*3, n_paths) array, so the step loop reads each
step's increments for all paths as contiguous rows.

Threads
-------
Blocks are simulated one at a time, so one block of draws is in memory at
a time.  The worker count (``SimConfig.worker_hint``; None means the CPUs
in the process's affinity mask) caps the threads that draw each block, in
two phases.  First the Philox uniforms: the block's paths are split into
contiguous ranges, one thread each, and each range draws its own counter
range, so the draws are the same bits for any split.  Then the inverse
normal CDF maps the uniforms in place, one run of a few steps at a time,
and the step loop runs on the calling thread beside it: the threads map
the runs in step order, and the loop steps each run as soon as it is
mapped.  The Philox uniforms and the inverse CDF release the GIL.

Monte Carlo reductions are exactly rounded, so estimates are independent
of the order of the paths and of worker count.  :func:`stable_sum` splits
the values by error-free extraction (Rump, Ogita & Oishi, "Accurate
floating-point summation part I", SIAM J. Sci. Comput. 31, 2008): adding
and subtracting a power of two rounds every value to a common grid coarse
enough that numpy sums the rounded parts exactly, and the exact remainders
go to the next, finer level.  The few level totals are rounded once by
:func:`math.fsum`.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import (
    DegenerateModel,
    EmptyInput,
    InvalidConfig,
    InvalidParams,
    NumericalBlowup,
)
from .models import InitialState, ModelSpec

__all__ = [
    "SimConfig",
    "Perturbation",
    "PathAccumulators",
    "standard_draws",
    "simulate_paths",
    "stable_sum",
    "stable_mean_se",
]

# Paths are simulated one fixed-size block at a time, whatever the worker
# count: threads split a block's draws, so one block of draws is in memory
# at a time.  The RNG mapping makes results independent of this constant.
_BLOCK_PATHS = 16384
_BLOWUP_LIMIT = 1e12
_LOG_BLOWUP_LIMIT = math.log(_BLOWUP_LIMIT)
# Philox emits 4 uint64 words per counter tick; advance() counts ticks.
_PHILOX_WORDS = 4
# Paths whose uniforms are drawn and mapped at once, summed over the draw
# threads (bounds the scratch buffer of standard_draws and the threads it
# starts; the draws do not depend on it).
_DRAW_CHUNK = 1024
# Steps per run: standard_draws maps its uniforms to normals, and hands
# them to its consumer, this many steps at a time (the last run may be
# shorter; the draws do not depend on it).
_MAP_STEPS = 8
# stable_sum extracts exactly below 2**26 values (each level then takes
# 52 - 27 = 25 bits at least) and when no partial sum of fsum can overflow.
# Its sigma = 2**k needs k >= -1021, where the grid ulp(sigma)/2 is still
# a multiple of the smallest subnormal, 2**-1074.
_EXACT_SUM_MAX_N = 2**26
_EXACT_SUM_MAX_TOTAL = 2.0**1000
_MIN_SIGMA_EXP = -1021


@dataclass(frozen=True)
class SimConfig:
    """Simulation grid, seed, safeguarding floors, and worker hint.

    ``worker_hint`` caps the threads that draw each block; None means the
    CPUs in the process's affinity mask.
    """

    n_paths: int = 10000
    n_steps: int = 252
    maturity: float = 1.0
    seed: int = 12345
    variance_floor: float = 0.0
    sigma_floor: float = 1e-8
    worker_hint: int | None = None

    def __post_init__(self):
        if not (isinstance(self.n_paths, int) and self.n_paths >= 1):
            raise InvalidConfig("n_paths", f"must be an integer >= 1, got {self.n_paths!r}")
        if not (isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise InvalidConfig("n_steps", f"must be an integer >= 1, got {self.n_steps!r}")
        if not (isinstance(self.maturity, (int, float)) and math.isfinite(self.maturity) and self.maturity > 0):
            raise InvalidConfig("maturity", f"must be > 0, got {self.maturity!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise InvalidConfig("seed", f"must fit in an unsigned 64-bit integer, got {self.seed!r}")
        if not (math.isfinite(self.variance_floor) and self.variance_floor >= 0):
            raise InvalidConfig("variance_floor", f"must be >= 0, got {self.variance_floor!r}")
        if not (math.isfinite(self.sigma_floor) and self.sigma_floor > 0):
            raise InvalidConfig("sigma_floor", f"must be > 0, got {self.sigma_floor!r}")
        if self.worker_hint is not None and not (isinstance(self.worker_hint, int) and self.worker_hint >= 1):
            raise InvalidConfig("worker_hint", f"must be None or an integer >= 1, got {self.worker_hint!r}")


@dataclass(frozen=True)
class Perturbation:
    """Additive drift / volatility shift used for bump-and-revalue runs.

    target:
      * ``stock_drift`` — the S drift rate becomes r_t + delta (the matching
        discount shift exp(-delta*T) is applied by the caller at pricing
        time; the accumulated D still integrates the unperturbed r path);
      * ``stock_vol``   — the S update uses sigma(V_t) + delta;
      * ``v_drift``     — the V drift becomes u(V_t) + delta;
      * ``r_drift``     — the r drift becomes f(r_t) + delta (D then
        integrates the perturbed r path).
    """

    target: str
    delta: float

    _TARGETS = ("stock_drift", "stock_vol", "v_drift", "r_drift")

    def __post_init__(self):
        if self.target not in self._TARGETS:
            raise InvalidParams(f"perturbation target must be one of {self._TARGETS}, got {self.target!r}")
        if not math.isfinite(self.delta):
            raise InvalidParams(f"perturbation delta must be finite, got {self.delta!r}")


@dataclass(frozen=True)
class PathAccumulators:
    """Per-path terminal states and integrals, stored as parallel arrays,
    with the run they came from.

    One entry per path in every array; :func:`simulate_paths` returns the
    arrays read-only, and the fields are frozen.  A state-only run
    (``simulate_paths(..., weights=False)``) fills ``s_T``, ``v_T``, ``r_T``
    and ``D`` and leaves every weight field, ``I1`` to ``y33_T``, None.  On
    a degenerate model the Bismut integrands 1/v(V_t) and 1/g(r_t) are
    undefined, so ``P2`` and ``P3`` are None.  ``j2``, ``j3``, ``g3`` are
    the drift-sensitivity integrals ∫(1/v)dW^2, ∫(1/v)dW^3, ∫(1/g)dW^3,
    present only when requested.  ``factors`` holds the payoff-independent
    per-path factors the estimators compute on first use; a
    ``dataclasses.replace`` copy starts with none.
    """

    model: ModelSpec
    s0: float
    maturity: float
    clamp_count: int
    n_integrand_evals: int
    s_T: np.ndarray
    v_T: np.ndarray
    r_T: np.ndarray
    D: np.ndarray
    I1: np.ndarray | None = None
    I2: np.ndarray | None = None
    I3: np.ndarray | None = None
    A: np.ndarray | None = None
    Q: np.ndarray | None = None
    w1_T: np.ndarray | None = None
    P2: np.ndarray | None = None
    P3: np.ndarray | None = None
    y12_T: np.ndarray | None = None
    y13_T: np.ndarray | None = None
    y22_T: np.ndarray | None = None
    y33_T: np.ndarray | None = None
    j2: np.ndarray | None = None
    j3: np.ndarray | None = None
    g3: np.ndarray | None = None
    factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.s_T.shape[0])


def _stride(n_steps: int) -> int:
    """uint64 words reserved per path: 3 doubles per step, padded to a
    multiple of the Philox output width so every path starts on a counter
    tick boundary."""
    need = 3 * n_steps
    return _PHILOX_WORDS * ((need + _PHILOX_WORDS - 1) // _PHILOX_WORDS)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def standard_draws(
    seed: int,
    n_paths: int,
    n_steps: int,
    first_path: int = 0,
    stream: int = 0,
    workers: int | None = None,
    consume: Callable[[int, np.ndarray], object] | None = None,
) -> np.ndarray:
    """Standard-normal draws z[path, step, driver], shape (n_paths, n_steps, 3).

    The draw at (path, step, driver) is a pure function of
    (seed, stream, first_path+path, step, driver): uniforms come from a
    Philox stream keyed by (seed, stream) at counter offset path*stride and
    are mapped through the inverse normal CDF.  Identical indices always
    yield identical draws, which is what makes common-random-number bumping
    and worker-count independence exact.

    The result is a view of one step-major (n_steps*3, n_paths) array, so
    ``z[:, step, driver]`` is a contiguous row.  It is filled in two phases
    by the same threads: at most ``workers`` (None: every available CPU),
    the available CPUs, and one per ``_DRAW_CHUNK`` paths.

    * Uniforms.  The paths are split into contiguous ranges, one per
      thread.  Each range is drawn from its own Philox advanced to its
      first path, a few paths at a time into its share of one
      ``_DRAW_CHUNK``-path buffer, and written step-major into ``z``.  The
      buffer is freed when every range is drawn.
    * Normals.  The inverse CDF maps ``z`` in place one run of
      ``_MAP_STEPS`` steps at a time.  The threads claim the runs in step
      order; the calling thread is one of them, and claims a run whenever
      the next run it needs is not yet mapped.

    The threads change wall time, never the draws.  ``consume``, if given,
    is called on the calling thread as ``consume(first_step, run)`` for each
    run once it is mapped, in step order: ``run`` is the (steps, 3, n_paths)
    band of ``z`` for steps first_step, first_step+1, ...  The caller can
    so step its paths while the later runs are mapped.  If ``consume``
    raises, no further run is claimed, and the exception propagates once
    the threads have stopped.
    """
    stride = _stride(n_steps)
    z = np.empty((3 * n_steps, n_paths))
    # Every thread's scratch is carved from this one buffer: a large
    # allocation inside a pool thread would stay resident in that thread's
    # malloc arena after the call.
    buf = np.empty((min(_DRAW_CHUNK, n_paths), stride))
    cpus = _available_cpus()
    # len(buf) keeps at least one buffer row per thread.
    threads = min(workers or cpus, cpus, -(-n_paths // _DRAW_CHUNK), len(buf))
    rows = len(buf) // threads
    edges = [n_paths * i // threads for i in range(threads + 1)]
    # The tasks hold the only references to the buffer once it is carved.
    tasks = [(z, buf[i * rows:(i + 1) * rows], seed, stream, first_path,
              edges[i], edges[i + 1]) for i in range(threads)]
    del buf
    runs = _NormalRuns(z.reshape(n_steps, 3, n_paths))
    if threads == 1:
        _draw_range(*tasks.pop())
        runs.feed(consume)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(_draw_range, *task) for task in tasks]:
                future.result()
            tasks.clear()
            # The calling thread maps runs too, while it waits for one.
            helpers = [pool.submit(runs.help) for _ in range(threads - 1)]
            try:
                runs.feed(consume)
            finally:
                runs.stop()
                for future in helpers:
                    future.result()
    return z.reshape(n_steps, 3, n_paths).transpose(2, 0, 1)


def _draw_range(z: np.ndarray, buf: np.ndarray, seed: int, stream: int,
                first_path: int, lo: int, hi: int) -> None:
    """Fill columns lo..hi-1 of the step-major ``z`` with the uniforms of
    paths first_path+lo .. first_path+hi-1, ``len(buf)`` paths at a time.

    Each chunk is a whole number of counter ticks, so the chunks continue
    one stream.  Allocates nothing large: it may run on a pool thread.
    """
    stride = buf.shape[1]
    width = z.shape[0]
    bg = Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance((first_path + lo) * stride // _PHILOX_WORDS)
    gen = Generator(bg)
    for start in range(lo, hi, len(buf)):
        stop = min(start + len(buf), hi)
        u = gen.random(out=buf[: stop - start])[:, :width]
        # random() yields [0,1); floor away exact zeros before the inverse CDF.
        np.maximum(u, 1e-300, out=u)
        z[:, start:stop] = u.T


class _NormalRuns:
    """The runs of ``_MAP_STEPS`` steps of a (n_steps, 3, n_paths) block of
    uniforms, each mapped to normals in place by the thread that claims it.

    Runs are claimed in step order under a lock.  A run's event is set once
    it is mapped, which also publishes its normals to the thread that waits
    on it.
    """

    def __init__(self, z: np.ndarray):
        self.z = z
        self.starts = range(0, len(z), _MAP_STEPS)
        self.mapped = [threading.Event() for _ in self.starts]
        self.lock = threading.Lock()
        self.claimed = 0

    def _run(self, k: int) -> np.ndarray:
        return self.z[self.starts[k]:self.starts[k] + self.starts.step]

    def _map_next(self) -> bool:
        """Claim the next run and map it; False if none is left."""
        with self.lock:
            k = self.claimed
            if k == len(self.starts):
                return False
            self.claimed = k + 1
        run = self._run(k)
        try:
            ndtri(run, out=run)
        finally:
            self.mapped[k].set()
        return True

    def help(self) -> None:
        """Map runs until none is left to claim (on a pool thread)."""
        while self._map_next():
            pass

    def stop(self) -> None:
        """Leave every unclaimed run unclaimed for good."""
        with self.lock:
            self.claimed = len(self.starts)

    def feed(self, consume) -> None:
        """Hand each run to ``consume`` in step order once it is mapped.

        While the next run is not ready, this thread maps the next unclaimed
        run, which is that run itself if no thread has claimed it yet.
        """
        for k, start in enumerate(self.starts):
            while not self.mapped[k].is_set() and self._map_next():
                pass
            self.mapped[k].wait()
            if consume is not None:
                consume(start, self._run(k))


def _run_block(
    model: ModelSpec,
    init: InitialState,
    cfg: SimConfig,
    nb: int,
    perturbation: Perturbation | None,
    drift_extras: bool,
    weights: bool,
):
    """Advance one block of ``nb`` paths through all steps, as a coroutine.

    Prime it with ``next``, then ``send`` it the runs of draws that
    :func:`standard_draws` hands to ``consume``, in step order, each of
    shape (steps, 3, nb).  After the last run, ``send(None)`` returns
    (dict of accumulator arrays, clamp_count, n_evals).  With ``weights``
    False only the state and D are carried: no weight integral and no first
    variation is formed, while the clamps and integrand evaluations are
    counted as in a full run.

    Each step runs through ``out=`` ufuncs into buffers allocated once per
    block: the same operations in the same order as the expressions quoted
    beside them, so the same bits.
    """
    dt = cfg.maturity / cfg.n_steps
    sqdt = math.sqrt(dt)
    floor = cfg.sigma_floor
    rho = model.correlations
    mu = model.mixing
    r12, r13 = rho.rho12, rho.rho13
    m1, m2, m3 = mu.mu1, mu.mu2, mu.mu3
    # Column coefficients of (a^{-1} Y)^T against (dW^1, dW^2, dW^3); t below
    # stands for y1j/(S*sigma), q for y22/v, w for y33/g.
    cA = -r12 / m1
    cB = 1.0 / m1
    cC = (r12 * m2 - r13 * m1) / (m1 * m3)
    cD = -m2 / (m1 * m3)
    cE = 1.0 / m3

    pert_target = perturbation.target if perturbation is not None else None
    pert_delta = perturbation.delta if perturbation is not None else 0.0

    hybrid = not model.degenerate
    want_p23 = weights and hybrid

    log_s0 = math.log(init.s0)
    logS = np.full(nb, log_s0)
    S = np.full(nb, init.s0)
    V = np.full(nb, init.v0)
    r = np.full(nb, init.r0)
    L22 = np.zeros(nb)
    L33 = np.zeros(nb)
    y22 = np.ones(nb)
    y33 = np.ones(nb)
    y12 = np.zeros(nb)
    y13 = np.zeros(nb)

    zeros = lambda: np.zeros(nb)  # noqa: E731
    sum_r, sum_sig, sum_invsig = zeros(), zeros(), zeros()
    sI1, sI2, sI3, sW1 = zeros(), zeros(), zeros(), zeros()
    sP2, sP3 = (zeros(), zeros()) if want_p23 else (None, None)
    sJ2, sJ3, sG3 = (zeros(), zeros(), zeros()) if drift_extras else (None, None, None)
    clamps = 0
    n_evals = 0

    # Step scratch.  V_next and r_next receive the new V and r, and then
    # swap with them, as y12_next and y13_next do: a model function may
    # return its own argument.
    empty = lambda: np.empty(nb)  # noqa: E731
    dW1, dZ2, dZ3, Vp, tmp, tmp2, V_next, r_next = (empty() for _ in range(8))
    low = np.empty(nb, dtype=bool)
    bumped = empty() if perturbation is not None else None
    if weights:
        inv_sig, y12_next, y13_next = empty(), empty(), empty()
    if want_p23 or drift_extras:
        inv_vv, inv_gg = empty(), empty()
    if want_p23:
        t1, t2, q, w, acc = (empty() for _ in range(5))

    n = 0
    run = yield
    while run is not None:
        for z1, z2, z3 in run:
            np.multiply(sqdt, z1, out=dW1)
            # dZ2 = r12 * dW1 + (m1 * sqdt) * z2
            np.multiply(r12, dW1, out=dZ2)
            dZ2 += np.multiply(m1 * sqdt, z2, out=tmp)
            # dZ3 = r13 * dW1 + (m2 * sqdt) * z2 + (m3 * sqdt) * z3
            np.multiply(r13, dW1, out=dZ3)
            dZ3 += np.multiply(m2 * sqdt, z2, out=tmp)
            dZ3 += np.multiply(m3 * sqdt, z3, out=tmp)

            np.maximum(V, cfg.variance_floor, out=Vp)
            sig = model.sigma(Vp)
            clamps += int(np.count_nonzero(np.less(sig, floor, out=low)))
            n_evals += nb
            sum_r += r
            if weights:
                np.divide(1.0, np.maximum(sig, floor, out=inv_sig), out=inv_sig)
                sum_sig += sig
                sum_invsig += inv_sig
                sI1 += np.multiply(z1, inv_sig, out=tmp)
                sI2 += np.multiply(z2, inv_sig, out=tmp)
                sI3 += np.multiply(z3, inv_sig, out=tmp)
                sW1 += z1

            vv = model.v(Vp)
            gg = model.g(r)
            if hybrid:
                clamps += int(np.count_nonzero(np.less(vv, floor, out=low)))
                clamps += int(np.count_nonzero(np.less(gg, floor, out=low)))
                n_evals += 2 * nb
            if want_p23 or drift_extras:
                np.divide(1.0, np.maximum(vv, floor, out=inv_vv), out=inv_vv)
                np.divide(1.0, np.maximum(gg, floor, out=inv_gg), out=inv_gg)
            if want_p23:
                # t1 = y12 * inv_sig / S, t2 = y13 * inv_sig / S,
                # q = y22 * inv_vv, w = y33 * inv_gg
                np.divide(np.multiply(y12, inv_sig, out=t1), S, out=t1)
                np.divide(np.multiply(y13, inv_sig, out=t2), S, out=t2)
                np.multiply(y22, inv_vv, out=q)
                np.multiply(y33, inv_gg, out=w)
                # sP2 += t1 * z1 + (cA * t1 + cB * q) * z2 + (cC * t1 + cD * q) * z3
                np.multiply(t1, z1, out=acc)
                np.multiply(cA, t1, out=tmp)
                tmp += np.multiply(cB, q, out=tmp2)
                tmp *= z2
                acc += tmp
                np.multiply(cC, t1, out=tmp)
                tmp += np.multiply(cD, q, out=tmp2)
                tmp *= z3
                acc += tmp
                sP2 += acc
                # sP3 += t2 * z1 + cA * t2 * z2 + (cC * t2 + cE * w) * z3
                np.multiply(t2, z1, out=acc)
                np.multiply(cA, t2, out=tmp)
                tmp *= z2
                acc += tmp
                np.multiply(cC, t2, out=tmp)
                tmp += np.multiply(cE, w, out=tmp2)
                tmp *= z3
                acc += tmp
                sP3 += acc
            if drift_extras:
                sJ2 += np.multiply(z2, inv_vv, out=tmp)
                sJ3 += np.multiply(z3, inv_vv, out=tmp)
                sG3 += np.multiply(z3, inv_gg, out=tmp)

            if weights:
                # First-variation updates, all from left-point values.
                sp = model.sigma_prime(Vp)
                vp = model.v_prime(Vp)
                up = model.u_prime(Vp)
                fp = model.f_prime(r)
                gp = model.g_prime(r)
                # y12_next = y12 + r * y12 * dt + (sig * y12 + S * sp * y22) * dW1
                np.multiply(r, y12, out=y12_next)
                y12_next *= dt
                y12_next += y12
                np.multiply(sig, y12, out=tmp)
                tmp += np.multiply(np.multiply(S, sp, out=tmp2), y22, out=tmp2)
                tmp *= dW1
                y12_next += tmp
                # y13_next = y13 + (r * y13 + S * y33) * dt + sig * y13 * dW1
                np.multiply(r, y13, out=y13_next)
                y13_next += np.multiply(S, y33, out=tmp)
                y13_next *= dt
                y13_next += y13
                np.multiply(sig, y13, out=tmp)
                tmp *= dW1
                y13_next += tmp
                # L22 += (up - 0.5 * vp * vp) * dt + vp * dZ2
                np.multiply(0.5, vp, out=tmp)
                tmp *= vp
                np.subtract(up, tmp, out=tmp)
                tmp *= dt
                tmp += np.multiply(vp, dZ2, out=tmp2)
                L22 += tmp
                # L33 += (fp - 0.5 * gp * gp) * dt + gp * dZ3
                np.multiply(0.5, gp, out=tmp)
                tmp *= gp
                np.subtract(fp, tmp, out=tmp)
                tmp *= dt
                tmp += np.multiply(gp, dZ3, out=tmp2)
                L33 += tmp

            # State updates (log-Euler / full truncation / Euler).
            sig_s = np.add(sig, pert_delta, out=bumped) if pert_target == "stock_vol" else sig
            rate_s = np.add(r, pert_delta, out=bumped) if pert_target == "stock_drift" else r
            u_eval = model.u(Vp)
            if pert_target == "v_drift":
                u_eval = np.add(u_eval, pert_delta, out=bumped)
            f_eval = model.f(r)
            if pert_target == "r_drift":
                f_eval = np.add(f_eval, pert_delta, out=bumped)

            # logS += (rate_s - 0.5 * sig_s * sig_s) * dt + sig_s * dW1
            np.multiply(0.5, sig_s, out=tmp)
            tmp *= sig_s
            np.subtract(rate_s, tmp, out=tmp)
            tmp *= dt
            tmp += np.multiply(sig_s, dW1, out=tmp2)
            logS += tmp
            # V_next = V + u_eval * dt + vv * dZ2
            np.multiply(u_eval, dt, out=V_next)
            V_next += V
            V_next += np.multiply(vv, dZ2, out=tmp)
            # r_next = r + f_eval * dt + gg * dZ3
            np.multiply(f_eval, dt, out=r_next)
            r_next += r
            r_next += np.multiply(gg, dZ3, out=tmp)
            V, V_next = V_next, V
            r, r_next = r_next, r
            if weights:
                np.exp(logS, out=S)
                np.exp(L22, out=y22)
                np.exp(L33, out=y33)
                y12, y12_next = y12_next, y12
                y13, y13_next = y13_next, y13

            for name, arr, limit in (("S", logS, _LOG_BLOWUP_LIMIT), ("V", V, _BLOWUP_LIMIT), ("r", r, _BLOWUP_LIMIT)):
                if not (np.abs(arr, out=tmp).max() <= limit):  # also catches NaN
                    bad = ~(np.abs(arr) <= limit)
                    raise NumericalBlowup(int(np.argmax(bad)), n, f"state {name}")
            n += 1
        run = yield
    # The last rows are views of the draws: let the draws go before the
    # outputs are formed.
    del z1, z2, z3

    if not weights:
        out = {"s_T": np.exp(logS), "v_T": V, "r_T": r, "D": dt * sum_r}
        yield out, clamps, n_evals
        return
    out = {
        "s_T": S, "v_T": V, "r_T": r,
        "D": dt * sum_r,
        "I1": sqdt * sI1, "I2": sqdt * sI2, "I3": sqdt * sI3,
        "A": dt * sum_sig, "Q": dt * sum_invsig,
        "w1_T": sqdt * sW1,
    }
    if want_p23:
        out["P2"] = sqdt * sP2
        out["P3"] = sqdt * sP3
    out.update(y12_T=y12, y13_T=y13, y22_T=y22, y33_T=y33)
    if drift_extras:
        out["j2"] = sqdt * sJ2
        out["j3"] = sqdt * sJ3
        out["g3"] = sqdt * sG3
    yield out, clamps, n_evals


def simulate_paths(
    model: ModelSpec,
    init: InitialState,
    cfg: SimConfig,
    drift_extras: bool = False,
    perturbation: Perturbation | None = None,
    stream: int = 0,
    weights: bool = True,
) -> PathAccumulators:
    """Simulate ``cfg.n_paths`` paths and return their accumulator arrays.

    Parameters
    ----------
    model, init, cfg
        Model instance, initial state, and simulation grid/seed.
    drift_extras : bool
        Also accumulate the drift-sensitivity integrals ∫(1/v)dW^2,
        ∫(1/v)dW^3, ∫(1/g)dW^3 (refused for degenerate models).
    perturbation : Perturbation, optional
        Additive drift / volatility shift for bump-and-revalue runs.
    stream : int
        RNG sub-stream selector; distinct values give independent draws for
        the same seed (used by FD without common random numbers).
    weights : bool
        Accumulate the weight integrals and first variations.  With False
        the run steps the state only, as a bump-and-revalue price needs: it
        returns ``s_T``, ``v_T``, ``r_T``, ``D``, ``clamp_count`` and
        ``n_integrand_evals`` bit-identical to the full run's and leaves
        the weight fields None, so the weighted estimators refuse it.
        On a degenerate model a weighted run leaves ``P2`` and ``P3`` None.

    Notes
    -----
    Results are bit-identical for a given (model, init, cfg, drift_extras,
    perturbation, stream, weights) regardless of ``worker_hint`` and block
    layout.

    Raises
    ------
    NumericalBlowup
        If any state exceeds 1e12 in magnitude or an accumulator turns
        non-finite (reports path and step index).
    DegenerateModel
        If ``drift_extras`` is requested on a degenerate model.
    InvalidParams
        If ``drift_extras`` is requested with ``weights=False``.
    """
    if drift_extras and not weights:
        raise InvalidParams("drift_extras=True needs weights=True")
    if drift_extras and model.degenerate:
        raise DegenerateModel(
            "drift-sensitivity integrals need non-degenerate v(V) and g(r)"
        )
    n = cfg.n_paths
    arrays = {}
    clamps = evals = 0
    for start in range(0, n, _BLOCK_PATHS):
        stop = min(start + _BLOCK_PATHS, n)
        block = _run_block(model, init, cfg, stop - start, perturbation,
                           drift_extras, weights)
        next(block)
        # The block steps each run of draws as soon as it is mapped.  The
        # copies below first touch the pages of the run's arrays: the draws
        # are freed before them, once this call returns, and the block's
        # outputs after them.
        try:
            standard_draws(cfg.seed, stop - start, cfg.n_steps, first_path=start,
                           stream=stream, workers=cfg.worker_hint,
                           consume=lambda _, run: block.send(run))
        except NumericalBlowup as exc:
            raise NumericalBlowup(exc.path_index + start, exc.step_index, exc.detail) from None
        out, block_clamps, block_evals = block.send(None)
        del block
        if not arrays:
            arrays = {name: np.empty(n) for name in out}
        for name, arr in out.items():
            arrays[name][start:stop] = arr
        del out
        clamps += block_clamps
        evals += block_evals
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            idx = int(np.argmin(np.isfinite(arr)))
            raise NumericalBlowup(idx, cfg.n_steps, f"non-finite accumulator {name}")
        arr.flags.writeable = False
    return PathAccumulators(model=model, s0=init.s0, maturity=cfg.maturity,
                            clamp_count=clamps, n_integrand_evals=evals, **arrays)


def stable_sum(x: np.ndarray | Sequence[float]) -> float:
    """Exactly rounded sum, the value :func:`math.fsum` returns.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008): with 2**M >= n+2,
    max|p| < 2**e and sigma = 2**(M+e), ``q = (sigma + p) - sigma`` is p
    rounded to a multiple of ulp(sigma)/2, computed exactly, and so is the
    remainder ``p - q``.  Every sum of the n values q is a multiple of that
    grid below sigma in magnitude, hence exact in any order.  Each level
    sums its q and keeps p - q, with sigma shrunk by 2**(M-52), until p is
    all zero; fsum of the few level totals, an exact split of the sum,
    rounds it once.  The result does not depend on the order of ``x``; an
    exact zero is +0.0, as from fsum.  Inputs this cannot take exactly
    (empty, non-1-D, non-finite, all zero, large enough for fsum to
    overflow, 2**26 values or more) go to fsum itself, and so does what is
    left once sigma would leave the normal range.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        return math.fsum(x)
    n = x.shape[0]
    if not 0 < n < _EXACT_SUM_MAX_N:
        return math.fsum(x.tolist())
    top = max(x.max(), -x.min())
    # Also refuses nan, inf, and the all-zero sum whose sign fsum sets.
    if not 0.0 < top < _EXACT_SUM_MAX_TOTAL / n:
        return math.fsum(x.tolist())
    m = (n + 1).bit_length()
    k = m + math.frexp(top)[1]
    totals = []
    p = x.copy()
    q = np.empty_like(p)
    while True:
        if k < _MIN_SIGMA_EXP:
            totals += p.tolist()
            break
        sigma = math.ldexp(1.0, k)
        np.add(p, sigma, out=q)
        q -= sigma
        totals.append(float(q.sum()))
        p -= q
        if not p.any():
            break
        k += m - 52
    return math.fsum(totals)


def stable_mean_se(x: np.ndarray) -> tuple[float, float]:
    """Mean and standard error (sample std / sqrt(n)) via exactly rounded sums.

    Returns (mean, 0.0) for n < 2.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise EmptyInput("cannot average an empty sample")
    mean = stable_sum(x) / n
    if n < 2:
        return mean, 0.0
    # Huge finite samples may overflow the squares: the standard error is
    # then inf, which the caller refuses, and numpy need not warn about it.
    with np.errstate(over="ignore"):
        var = stable_sum((x - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)
