"""Path engine for the merged three-factor SDE system.

Simulates

    dS_t = r_t S_t dt + S_t sigma(V_t) dW^1_t
    dV_t = u(V_t) dt + v(V_t) dZ^2_t
    dr_t = f(r_t) dt + g(r_t) dZ^3_t

on a uniform grid, accumulating per path S_T, the discount integral D and
the integrals the Malliavin-weight estimators read.  The Bismut integrals
P2 and P3 read the first-variation entries Y^12, Y^13, Y^22, Y^33 (Y^11 is
S_t/S_0, see below) at every step, so a run that computes them steps those
too, as step-loop state it does not return.  A run computes only the
groups of weight fields it is asked for (``simulate_paths(..., weights=)``):
the weight integrals, the Bismut group (P2 and P3) or the drift integrals;
a bump-and-revalue price, a run of a moved model or initial state, reads
S_T and D alone (``weights=False``).  Every run has the same draws and
clamp counts, and each field it computes the same bits, as the full run.

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

Model coefficients
------------------
A ``ModelSpec`` field that is a number is carried as a number: it takes
part in every ``out=`` ufunc by broadcasting, with the bits of an array of
equal values, and clamps every path of a step or none.  1/g is a number
when g is, and L^33 = log Y^33 and Y^33 are numbers when f' and g' are and
g' = 0; Y^33 then comes from numpy's ``exp`` of one value, as in the array
form.

Randomness
----------
Draws come from a counter-based generator (Philox; Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) with the counters
laid out step-major and split into blocks of ``_BLOCK_PATHS`` paths, so
that the normal draw for (seed, path, step, driver) is a pure function of
those four indices: path ``p`` lies in block ``b = p // _BLOCK_PATHS``,
and its draw at step ``s`` and driver ``d`` is normal ``p % _BLOCK_PATHS``
of numpy's ziggurat sampler (Marsaglia & Tsang, J. Stat. Softw. 5(8),
2000) on the stream keyed by (seed, stream) that starts at counter
``((3*s + d) << 62) + (b << 128)``.  The ziggurat takes one Philox word
for most normals and a few more for the rest, so a block's row is drawn
from its start, and the first n paths of a block are an n-path draw of
it; the block size is part of the RNG definition.  Draws are therefore
independent of worker counts and execution order, and bumped
re-simulations with the same seed reuse identical draws (exact common
random numbers).  Each (step, driver) row of a block is drawn by one call
straight into the row the step loop reads, so no block of draws need be
held.

Threads
-------
Blocks are simulated one at a time.  :func:`standard_draws` yields a
block's draws one run of steps at a time, each drawn into a ring of run
buffers, one run per thread plus one (one run for a single thread), and
the step loop, on the calling thread, steps each run as soon as it is
drawn; so a block holds a ring of runs of draws, never all of them.  The
ring holds at most one byte budget, ``_RING_BYTES``, whatever the CPU
count: the worker count (``SimConfig.worker_hint``; None means the CPUs in
the process's affinity mask) and the budget cap the threads that draw.
Each run is as many steps as the ring of that many runs can hold (one
step at least) and, when several threads draw, about one block-step of
normals at most (two steps at least).  A thread draws a run only with
its ticket, taken from one FIFO that holds a ticket per free slot, in
step order: the calling thread puts the next one after it steps a run,
so a run's slot is free when its ticket is taken.  Each run's event is
set once its ticket has been used; while the next run's is not, the
calling thread draws the run of a ticket still queued.  Every draw is the
same bits whichever thread makes it.  The normal draws release the GIL.

A run therefore holds the ring, one block's step-loop state and scratch,
and one copy of each returned field: :func:`simulate_paths` allocates
each returned array once, and every block steps log S in its slice of
S_T and sums its integrals straight into its slices of the others.  The
CLI lets a size's weighted paths go after its last weighted row, so its
finite-difference runs never simulate beside them.

Monte Carlo reductions are exactly rounded, so estimates are independent
of the order of the paths and of worker count.  ``_exact_sum`` splits
the values by one level of error-free extraction (Rump, Ogita & Oishi,
"Accurate floating-point summation part I", SIAM J. Sci. Comput. 31, 2008):
adding and subtracting a power of two rounds every value to a common grid
coarse enough that numpy sums the rounded parts exactly, and leaves exact
remainders that are small.  numpy sums the remainders in floating point,
and a bound on that sum's error in any order of additions (Higham,
"Accuracy and Stability of Numerical Algorithms", 2nd ed., section 4.2)
proves, for almost every input, which double the exact sum rounds to;
otherwise :func:`math.fsum` sums the values.  :func:`stable_mean_se`
finds the largest value and the largest squared deviation from one max
and one min of the samples.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import dataclass, field
from threading import Event, Thread
from typing import Collection, Iterator
# queue's SimpleQueue and Empty are those of its C module: importing queue
# itself raised compare_fd's peak RSS by about 0.1 MiB (2 vCPUs, 4 runs).
from _queue import Empty, SimpleQueue

import numpy as np
from numpy.random import Generator, Philox

from .errors import DegenerateModel, EmptyInput, InvalidParams, NumericalBlowup
from .models import InitialState, ModelSpec, _inverse_loadings, _require

__all__ = [
    "SimConfig",
    "PathAccumulators",
    "simulate_paths",
    "stable_mean_se",
]

# Paths are simulated one fixed-size block at a time, whatever the worker
# count; a block holds its step-loop state and a few runs of draws.  The
# block is part of the RNG definition, so changing this constant changes
# the draws of every path past the first block.
_BLOCK_PATHS = 16384
_BLOWUP_LIMIT = 1e12
_LOG_BLOWUP_LIMIT = math.log(_BLOWUP_LIMIT)
# Philox emits 4 uint64 words per counter tick.
_PHILOX_WORDS = 4
# Paths per draw thread, at least: on a 250-path block two threads were
# slower than one, as handing runs between them costs more than drawing
# them (the draws do not depend on it).
_THREAD_PATHS = 1024
# Bytes the ring of runs of one standard_draws call may hold: it caps the
# threads at one fewer than the steps that fit, and sets the steps per run
# (the draws do not depend on either).  Only a ring of one step may exceed
# it, on a block of more than _RING_BYTES // 24 paths.
_RING_BYTES = 3 * 2**20
# _exact_sum extracts below 2**26 values (past that the remainders' error
# bound, about n**3 * 2**-106 of the largest value, is too wide for its
# rounding check to decide) and when no partial sum of fsum can overflow.
# Its sigma = 2**k needs k >= -1021, where the grid ulp(sigma)/2 is still
# a multiple of the smallest subnormal, 2**-1074.
_EXACT_SUM_MAX_N = 2**26
_EXACT_SUM_MAX_TOTAL = 2.0**1000
_MIN_SIGMA_EXP = -1021
# The weight fields of PathAccumulators, by the group that computes them
# together.
_FIELD_GROUPS = {
    "sums": ("I1", "I2", "I3", "A", "Q", "w1_T"),
    "bismut": ("P2", "P3"),
    "drift": ("j2", "j3", "g3"),
}


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
        _require(vars(self), "be an integer >= 1", "n_paths", "n_steps")
        _require(vars(self), "be > 0", "maturity", "sigma_floor")
        _require(vars(self), "be an integer in [0, 2**64)", "seed")
        _require(vars(self), "be >= 0", "variance_floor")
        if self.worker_hint is not None:
            _require(vars(self), "be an integer >= 1", "worker_hint")


@dataclass(frozen=True)
class PathAccumulators:
    """Per-path terminal spot and integrals, stored as parallel arrays, with
    the run they came from: what the weighted estimators and the
    finite-difference prices read.

    One entry per path in every array; :func:`simulate_paths` returns the
    arrays read-only, and the fields are frozen.  ``s_T`` and ``D`` are
    always there; a weight field, ``I1`` to ``g3``, is None unless its
    group was simulated (see :func:`simulate_paths`).  On a degenerate
    model the Bismut integrands 1/v(V_t) and 1/g(r_t) are undefined, so
    ``P2`` and ``P3`` are None.  ``factors`` holds the payoff-independent
    per-path factors the estimators compute on first use; a
    ``dataclasses.replace`` copy starts with none.
    """

    model: ModelSpec
    s0: float
    maturity: float
    clamp_count: int
    n_integrand_evals: int
    s_T: np.ndarray
    D: np.ndarray
    I1: np.ndarray | None = None
    I2: np.ndarray | None = None
    I3: np.ndarray | None = None
    A: np.ndarray | None = None
    Q: np.ndarray | None = None
    w1_T: np.ndarray | None = None
    P2: np.ndarray | None = None
    P3: np.ndarray | None = None
    j2: np.ndarray | None = None
    j3: np.ndarray | None = None
    g3: np.ndarray | None = None
    factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.s_T.shape[0])


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _ring_plan(n_paths: int, n_steps: int, workers: int | None,
               cpus: int) -> tuple[int, int, int]:
    """(threads, depth, steps) of the draws of an n_paths x n_steps block:
    the threads that draw, the runs the ring holds and the steps per run.

    The threads are capped by ``workers`` (None: every CPU), the CPUs, the
    steps, the chunks of ``_THREAD_PATHS`` paths and the steps the budget
    holds less one; the ring holds a run per thread plus one, or one run
    for one thread, and its runs are as long as ``_RING_BYTES`` allows:
    so the ring holds at most ``_RING_BYTES`` or one step, whichever is
    larger.  Several threads' runs are also at most about one block-step
    of normals, or two steps: longer runs kept them no busier, and runs
    of one step were slower.
    """
    step_bytes = 3 * 8 * n_paths
    threads = min(workers or cpus, cpus, n_steps, -(-n_paths // _THREAD_PATHS),
                  max(1, _RING_BYTES // step_bytes - 1))
    # One thread draws run k+1 only once run k has been stepped.
    depth = 1 if threads == 1 else threads + 1
    steps = max(1, min(n_steps, _RING_BYTES // (depth * step_bytes)))
    if threads > 1:
        steps = min(steps, max(2, -(-_BLOCK_PATHS // n_paths)))
    runs = -(-n_steps // steps)
    threads = min(threads, runs)
    return threads, 1 if threads == 1 else min(depth, runs), steps


def standard_draws(
    seed: int,
    n_paths: int,
    n_steps: int,
    block: int = 0,
    stream: int = 0,
    workers: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield the standard-normal draws of the first ``n_paths`` paths of
    block ``block`` as (first_step, run) in step order, ``run`` being the
    (steps, 3, n_paths) draws of steps first_step, ...

    The draw at (path, step, driver) is the pure function of (seed, stream,
    block*_BLOCK_PATHS + path, step, driver) the module docstring defines,
    whichever thread draws it.  The arguments are unchecked: those of a
    :class:`SimConfig` and a stream that :func:`simulate_paths` checked,
    with 1 <= n_paths <= _BLOCK_PATHS.  At most ``workers`` threads draw
    (None: every available CPU), the calling thread among them; they, the
    ring's ``depth`` and the steps per run are sized so that the ring holds
    at most ``_RING_BYTES`` (:func:`_ring_plan`).  Run k goes to slot
    k % depth of the ring.  A thread draws a run only with its ticket, its
    index, taken from one FIFO: the tickets of runs 0 to depth - 1 start
    there, and the ticket of run k + depth is put once run k has been
    stepped, so its slot is free.  Helpers wait for tickets; the calling
    thread takes queued ones while the run it needs is being drawn.  A
    thread that takes a ticket sets the run's event, drawn or, once the
    draws have stopped, not.  A failed draw raises its error, and closing
    the iterator stops the draws; either way every thread it started has
    ended, each told to by a None ticket.
    """
    assert n_paths <= _BLOCK_PATHS, n_paths
    threads, depth, steps = _ring_plan(n_paths, n_steps, workers, _available_cpus())
    starts = range(0, n_steps, steps)
    slots = [np.empty((steps, 3, n_paths)) for _ in range(depth)]
    tickets = SimpleQueue()
    for k in range(depth):
        tickets.put(k)
    drawn = [Event() for _ in starts]
    # Failed draws' errors, then None once the caller is done: not empty
    # means stopped.
    stopped: list[BaseException | None] = []

    def run(k: int) -> np.ndarray:
        return slots[k % depth][:min(starts.step, n_steps - starts[k])]

    def fill(draw, k: int) -> None:
        """Draw run k, unless stopped, and set its event either way: a
        ticket taken is never dropped, so no wait for its run hangs."""
        if not stopped:
            try:
                for i, row in enumerate(run(k).reshape(-1, n_paths), start=3 * starts[k]):
                    draw(i, row)
            except BaseException as exc:
                stopped.append(exc)
        drawn[k].set()

    def draw_runs() -> None:
        draw = _row_drawer(seed, stream, block)
        while (k := tickets.get()) is not None:
            fill(draw, k)

    # Daemon threads: an iterator left open at exit, neither closed nor
    # dropped, leaves them waiting for a ticket, and must not keep the
    # interpreter from exiting.
    helpers = [Thread(target=draw_runs, daemon=True) for _ in range(threads - 1)]
    try:
        for helper in helpers:
            helper.start()
        draw = _row_drawer(seed, stream, block)
        for k, start in enumerate(starts):
            # Run k's ticket is queued or taken: the calling thread draws
            # queued runs, run k's among them, until run k is drawn.
            while not drawn[k].is_set():
                try:
                    j = tickets.get_nowait()
                except Empty:
                    drawn[k].wait()
                else:
                    fill(draw, j)
            if stopped:
                raise stopped[0]
            yield start, run(k)
            if k + depth < len(starts):
                tickets.put(k + depth)
    finally:
        stopped.append(None)
        for helper in helpers:
            tickets.put(None)
        for helper in helpers:
            if helper.ident is not None:
                helper.join()


def _row_drawer(seed: int, stream: int, block: int):
    """A function ``draw(row, out)`` that fills ``out`` with the normals of
    the first len(out) paths of block ``block`` at counter row ``row`` =
    3*step + driver, from one Philox moved to each row through its state:
    the row's stream starts at counter ``(row << 62) + (block << 128)``.
    """
    bg = Philox(key=np.array([seed, stream], dtype=np.uint64))
    gen = Generator(bg)
    # Plain lists, which the state setter reads faster than arrays.  An
    # empty buffer makes the next word the first of the next tick, as from
    # a Philox constructed at the counter.
    counter = [0] * 4
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": [seed, stream]},
             "buffer": [0] * 4, "buffer_pos": _PHILOX_WORDS,
             "has_uint32": 0, "uinteger": 0}
    mask = (1 << 64) - 1
    offset = block << 128

    def draw(row: int, out: np.ndarray) -> None:
        start = (row << 62) + offset
        for i in range(4):
            counter[i] = (start >> (64 * i)) & mask
        bg.state = state
        gen.standard_normal(out=out)

    return draw


def _run_block(
    model: ModelSpec,
    init: InitialState,
    cfg: SimConfig,
    first_path: int,
    runs: Iterator[tuple[int, np.ndarray]],
    groups: frozenset[str],
    out: dict[str, np.ndarray],
) -> tuple[int, int]:
    """Advance the block of paths that starts at ``first_path`` through all
    steps, writing its fields into its slice of the zeroed
    ``cfg.n_paths``-long arrays ``out``, the returned fields.

    ``runs`` is the iterator of :func:`standard_draws` over the block's
    draws, each run of shape (steps, 3, nb), nb the block's paths.  The
    block steps log S inside its slice of ``out["s_T"]`` and exponentiates
    it in place at the end; it sums each integral straight into its slice
    and scales the slice in place at the end.  A blow-up names the path's
    index among all ``cfg.n_paths``.  Returns (clamp_count, n_evals).
    Of the weight fields only the groups of ``_FIELD_GROUPS`` named in
    ``groups``, each with its arrays in ``out``, are carried; the clamps
    and integrand evaluations are counted alike whatever is carried.

    Each step runs through ``out=`` ufuncs into buffers allocated once per
    block: the same operations in the same order as the expressions quoted
    beside them, so the same bits.  The first variations update in place,
    and V and r step through one spare buffer that then swaps with them.
    """
    nb = min(_BLOCK_PATHS, cfg.n_paths - first_path)
    block = slice(first_path, first_path + nb)
    dt = cfg.maturity / cfg.n_steps
    sqdt = math.sqrt(dt)
    floor = cfg.sigma_floor
    rho = model.correlations
    mu = model.mixing
    r12, r13 = rho.rho12, rho.rho13
    m1, m2, m3 = mu.mu1, mu.mu2, mu.mu3
    # Column coefficients of (a^{-1} Y)^T against (dW^1, dW^2, dW^3); t below
    # stands for y1j/(S*sigma), q for y22/v, w for y33/g.
    cA, cC = _inverse_loadings(model)
    cB = 1.0 / m1
    cD = -m2 / (m1 * m3)
    cE = 1.0 / m3

    # Each field as a function of the state: a number field gives itself.
    sigma, u, v, f, g, sigma_prime, u_prime, v_prime, f_prime, g_prime = (
        c if callable(c) else (lambda x, c=float(c): c) for c in (
            model.sigma, model.u, model.v, model.f, model.g, model.sigma_prime,
            model.u_prime, model.v_prime, model.f_prime, model.g_prime))
    # 1/g is a number when g is, L33 and y33 when f' and g' are and g' = 0,
    # and w = y33/g when both are.
    g_number = not callable(model.g)
    y33_number = not (callable(model.f_prime) or callable(model.g_prime)) and model.g_prime == 0
    w_number = g_number and y33_number

    hybrid = not model.degenerate
    # P2 and P3 need S and the first variations at every step.
    sums, bismut, drift = "sums" in groups, "bismut" in groups, "drift" in groups

    zeros = lambda: np.zeros(nb)  # noqa: E731
    empty = lambda: np.empty(nb)  # noqa: E731

    logS = out["s_T"][block]
    logS.fill(math.log(init.s0))
    # Float whatever the type of the initial values: an integer state
    # would make the in-place float steps fail.
    S = np.full(nb, init.s0, dtype=float) if bismut else None
    V = np.full(nb, init.v0, dtype=float)
    r = np.full(nb, init.r0, dtype=float)
    if bismut:
        L22, L33 = zeros(), 0.0 if y33_number else zeros()
        y22, y33 = np.ones(nb), 1.0 if y33_number else np.ones(nb)
        y12, y13 = zeros(), zeros()
    sum_r = out["D"][block]
    if sums:
        sum_sig, sum_invsig, sI1, sI2, sI3, sW1 = (
            out[name][block] for name in ("A", "Q", "I1", "I2", "I3", "w1_T"))
    if bismut:
        sP2, sP3 = out["P2"][block], out["P3"][block]
    if drift:
        sJ2, sJ3, sG3 = (out[name][block] for name in ("j2", "j3", "g3"))
    clamps = 0
    n_evals = 0

    # Step scratch.  nxt receives the new V, then the new r, each swapped
    # with it in turn: a model function may return its own argument.
    dW1, dZ2, dZ3, Vp, tmp, tmp2, nxt = (empty() for _ in range(7))
    low = np.empty(nb, dtype=bool)

    def clamped(x) -> int:
        """Paths at which a denominator, an array or a number, is below the floor."""
        if isinstance(x, float):
            return nb if x < floor else 0
        return int(np.count_nonzero(np.less(x, floor, out=low)))

    def log_step(drift, vol, dZ) -> np.ndarray:
        """tmp = (drift - 0.5 * vol * vol) * dt + vol * dZ, a log-Euler step."""
        np.multiply(0.5, vol, out=tmp)
        np.multiply(tmp, vol, out=tmp)
        np.subtract(drift, tmp, out=tmp)
        np.multiply(tmp, dt, out=tmp)
        return np.add(tmp, np.multiply(vol, dZ, out=tmp2), out=tmp)

    if sums or bismut:
        inv_sig = empty()
    if bismut or drift:
        inv_vv = empty()
        inv_gg = 1.0 / max(float(model.g), floor) if g_number else empty()
    if bismut:
        # t holds t1, then t2.
        t, acc = empty(), empty()
        w = None if w_number else empty()

    for first, run in runs:
        for n, (z1, z2, z3) in enumerate(run, start=first):
            np.multiply(sqdt, z1, out=dW1)
            # dZ2 = r12 * dW1 + (m1 * sqdt) * z2
            np.multiply(r12, dW1, out=dZ2)
            dZ2 += np.multiply(m1 * sqdt, z2, out=tmp)
            # dZ3 = r13 * dW1 + (m2 * sqdt) * z2 + (m3 * sqdt) * z3
            np.multiply(r13, dW1, out=dZ3)
            dZ3 += np.multiply(m2 * sqdt, z2, out=tmp)
            dZ3 += np.multiply(m3 * sqdt, z3, out=tmp)

            np.maximum(V, cfg.variance_floor, out=Vp)
            sig = sigma(Vp)
            clamps += clamped(sig)
            n_evals += nb
            sum_r += r
            if sums or bismut:
                np.divide(1.0, np.maximum(sig, floor, out=inv_sig), out=inv_sig)
            if sums:
                sum_sig += sig
                sum_invsig += inv_sig
                sI1 += np.multiply(z1, inv_sig, out=tmp)
                sI2 += np.multiply(z2, inv_sig, out=tmp)
                sI3 += np.multiply(z3, inv_sig, out=tmp)
                sW1 += z1

            vv = v(Vp)
            gg = g(r)
            if hybrid:
                clamps += clamped(vv) + clamped(gg)
                n_evals += 2 * nb
            if bismut or drift:
                np.divide(1.0, np.maximum(vv, floor, out=inv_vv), out=inv_vv)
                if not g_number:
                    np.divide(1.0, np.maximum(gg, floor, out=inv_gg), out=inv_gg)
            if bismut:
                # t1 = y12 * inv_sig / S, w = y33 * inv_gg, and q = y22 * inv_vv
                # formed where it is read, so that no buffer holds it
                np.divide(np.multiply(y12, inv_sig, out=t), S, out=t)
                w = y33 * inv_gg if w_number else np.multiply(y33, inv_gg, out=w)
                # sP2 += t1 * z1 + (cA * t1 + cB * q) * z2 + (cC * t1 + cD * q) * z3
                np.multiply(t, z1, out=acc)
                np.multiply(cA, t, out=tmp)
                tmp += np.multiply(cB, np.multiply(y22, inv_vv, out=tmp2), out=tmp2)
                tmp *= z2
                acc += tmp
                np.multiply(cC, t, out=tmp)
                tmp += np.multiply(cD, np.multiply(y22, inv_vv, out=tmp2), out=tmp2)
                tmp *= z3
                acc += tmp
                sP2 += acc
                # t2 = y13 * inv_sig / S
                np.divide(np.multiply(y13, inv_sig, out=t), S, out=t)
                # sP3 += t2 * z1 + cA * t2 * z2 + (cC * t2 + cE * w) * z3
                np.multiply(t, z1, out=acc)
                np.multiply(cA, t, out=tmp)
                tmp *= z2
                acc += tmp
                np.multiply(cC, t, out=tmp)
                tmp += cE * w if w_number else np.multiply(cE, w, out=tmp2)
                tmp *= z3
                acc += tmp
                sP3 += acc
            if drift:
                sJ2 += np.multiply(z2, inv_vv, out=tmp)
                sJ3 += np.multiply(z3, inv_vv, out=tmp)
                sG3 += np.multiply(z3, inv_gg, out=tmp)

            if bismut:
                # First-variation updates, all from left-point values, each
                # derivative evaluated where it is read: at most one is held.
                # y12 = y12 + r * y12 * dt + (sig * y12 + S * sp * y22) * dW1,
                # in place: the dW1 term first, from the old y12, as for y13
                np.multiply(sig, y12, out=tmp)
                tmp += np.multiply(np.multiply(S, sigma_prime(Vp), out=tmp2), y22, out=tmp2)
                tmp *= dW1
                np.multiply(r, y12, out=tmp2)
                tmp2 *= dt
                tmp2 += y12
                np.add(tmp2, tmp, out=y12)
                # y13 = y13 + (r * y13 + S * y33) * dt + sig * y13 * dW1
                np.multiply(sig, y13, out=tmp)
                tmp *= dW1
                np.multiply(r, y13, out=tmp2)
                tmp2 += np.multiply(S, y33, out=nxt)
                tmp2 *= dt
                tmp2 += y13
                np.add(tmp2, tmp, out=y13)
                L22 += log_step(u_prime(Vp), v_prime(Vp), dZ2)
                fp, gp = f_prime(r), g_prime(r)
                # L33 += log_step(fp, gp, dZ3), whose last term adds zero
                # when gp = 0
                if y33_number:
                    L33 += (fp - 0.5 * gp * gp) * dt
                else:
                    L33 += log_step(fp, gp, dZ3)

            # State updates (log-Euler / full truncation / Euler).
            logS += log_step(r, sig, dW1)
            # V = V + u(Vp) * dt + vv * dZ2
            np.multiply(u(Vp), dt, out=nxt)
            nxt += V
            nxt += np.multiply(vv, dZ2, out=tmp)
            V, nxt = nxt, V
            # r = r + f(r) * dt + gg * dZ3
            np.multiply(f(r), dt, out=nxt)
            nxt += r
            nxt += np.multiply(gg, dZ3, out=tmp)
            r, nxt = nxt, r
            if bismut:
                np.exp(logS, out=S)
                np.exp(L22, out=y22)
                y33 = float(np.exp([L33])[0]) if y33_number else np.exp(L33, out=y33)

            for name, arr, limit in (("S", logS, _LOG_BLOWUP_LIMIT), ("V", V, _BLOWUP_LIMIT), ("r", r, _BLOWUP_LIMIT)):
                if not (np.abs(arr, out=tmp).max() <= limit):  # also catches NaN
                    bad = ~(np.abs(arr) <= limit)
                    raise NumericalBlowup(first_path + int(np.argmax(bad)), n, f"state {name}")

    # x *= c gives the bits of c * x.
    sum_r *= dt
    if sums:
        sum_sig *= dt
        sum_invsig *= dt
        for x in (sI1, sI2, sI3, sW1):
            x *= sqdt
    if bismut:
        sP2 *= sqdt
        sP3 *= sqdt
    if drift:
        for x in (sJ2, sJ3, sG3):
            x *= sqdt
    # exp(logS) once gives the bits of S formed at every step.
    np.exp(logS, out=logS)
    return clamps, n_evals


def simulate_paths(
    model: ModelSpec,
    init: InitialState,
    cfg: SimConfig,
    drift_extras: bool = False,
    stream: int = 0,
    weights: bool | Collection[str] = True,
) -> PathAccumulators:
    """Simulate ``cfg.n_paths`` paths and return their accumulator arrays.

    Parameters
    ----------
    model, init, cfg
        Model instance, initial state, and simulation grid/seed.
    drift_extras : bool
        Add the drift integrals ``j2`` = ∫(1/v)dW^2, ``j3`` = ∫(1/v)dW^3 and
        ``g3`` = ∫(1/g)dW^3 to ``weights`` (refused for degenerate models).
    stream : int
        RNG sub-stream selector, an integer in [0, 2**64); distinct values
        give independent draws for the same seed (used by FD without common
        random numbers).
    weights : bool or collection of field names
        True for every weight field from ``I1`` to ``P3``, False for none
        (S_T and D only, as a bump-and-revalue price needs), or the names
        the Greeks to estimate read.  Each group holding a named field is
        computed, and every other weight field is None: ``_FIELD_GROUPS``
        lists the weight integrals, the Bismut group (``P2`` and ``P3``) and
        the drift integrals.  S_T, D, the clamp counts and every computed
        field have the full run's bits.

    Notes
    -----
    Results are bit-identical for a given (model, init, cfg, drift_extras,
    stream, weights) regardless of ``worker_hint``.

    Raises
    ------
    NumericalBlowup
        If any state exceeds 1e12 in magnitude or an accumulator turns
        non-finite (reports path and step index).
    DegenerateModel
        If a drift integral is requested on a degenerate model.
    InvalidParams
        If ``drift_extras`` is no bool or is requested with
        ``weights=False``, ``stream`` is no integer in [0, 2**64), or
        ``weights`` is neither a bool nor a collection of weight field
        names.
    """
    _require(locals(), "be True or False", "drift_extras")
    _require(locals(), "be an integer in [0, 2**64)", "stream")
    if isinstance(weights, str) or not isinstance(weights, (bool, Collection)):
        raise InvalidParams("weights must be True, False or a collection of field names, "
                            f"got {weights!r}", "weights")
    fields = set(_FIELD_GROUPS["sums"] + _FIELD_GROUPS["bismut"] if weights is True
                 else weights or ())
    if drift_extras:
        if weights is False:
            raise InvalidParams("drift_extras=True needs weights=True")
        fields.update(_FIELD_GROUPS["drift"])
    if unknown := fields.difference(*_FIELD_GROUPS.values()):
        raise InvalidParams(f"weights names no weight field {sorted(map(str, unknown))}", "weights")
    # On a degenerate model the Bismut integrands 1/v(V_t) and 1/g(r_t) are
    # undefined, and P2 and P3 are None.
    groups = frozenset(g for g, names in _FIELD_GROUPS.items() if fields.intersection(names)
                       and not (g == "bismut" and model.degenerate))
    if "drift" in groups and model.degenerate:
        raise DegenerateModel(
            "drift-sensitivity integrals need non-degenerate v(V) and g(r)"
        )
    n = cfg.n_paths
    # Each returned array, allocated once in field order: every block
    # writes its slice, and the check below names the first non-finite
    # field.
    arrays = {name: np.zeros(n) for name in ("s_T", "D", *(
        name for g, names in _FIELD_GROUPS.items() if g in groups for name in names))}
    clamps = evals = 0
    for block, start in enumerate(range(0, n, _BLOCK_PATHS)):
        # The block steps each run of draws as soon as it is drawn; closing
        # the runs stops the draw threads before an error leaves the block.
        with closing(standard_draws(cfg.seed, min(_BLOCK_PATHS, n - start), cfg.n_steps,
                                    block=block, stream=stream,
                                    workers=cfg.worker_hint)) as runs:
            block_clamps, block_evals = _run_block(
                model, init, cfg, start, runs, groups, arrays)
        clamps += block_clamps
        evals += block_evals
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            idx = int(np.argmin(np.isfinite(arr)))
            raise NumericalBlowup(idx, cfg.n_steps, f"non-finite accumulator {name}")
        arr.flags.writeable = False
    return PathAccumulators(model=model, s0=init.s0, maturity=cfg.maturity,
                            clamp_count=clamps, n_integrand_evals=evals, **arrays)


def _exact_sum(x: np.ndarray, top: float) -> float:
    """Exactly rounded sum of the 1-D float array ``x``, the value
    :func:`math.fsum` returns, given ``top = max(x.max(), -x.min())``.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008): with 2**M >= n+2,
    max|x| < 2**e and sigma = 2**k, k = M+e, ``q = (sigma + x) - sigma`` is
    x rounded to a multiple of 2**(k-53), computed exactly, and so is the
    remainder ``p = x - q``, with |p| <= 2**(k-53).  Every sum of the n
    values q is a multiple of that grid below sigma in magnitude, hence
    exact in any order: t1 = sum(q) is exact.

    The remainders are then summed once in floating point, s2 = sum(p).  In
    any order of additions its error is at most gamma_(n-1) * sum|p| <=
    n**2 * 2**(k-106) (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., section 4.2), which, rounded up and with the
    smallest subnormal added, is ``err``.  The exact sum lies within err of
    t1 + s2, and rounding to nearest is monotone, so when fsum rounds
    t1 + s2 - err and t1 + s2 + err to the same double the exact sum rounds
    to it as well: that double is returned.  Otherwise, as for a sum close
    to a midpoint between two doubles, fsum sums the values.

    The result does not depend on the order of ``x`` nor on the order in
    which numpy adds; an exact zero is +0.0, as from fsum.  Inputs this
    cannot take exactly (non-finite or with a nan ``top``, as an empty
    ``x`` has no top; all zero, large enough for fsum to overflow, 2**26
    values or more, or so small that sigma would leave the normal range)
    go to fsum itself.
    """
    n = x.shape[0]
    # Also refuses nan, inf, and the all-zero sum whose sign fsum sets.
    if not (n < _EXACT_SUM_MAX_N and 0.0 < top < _EXACT_SUM_MAX_TOTAL / n):
        return math.fsum(x.tolist())
    m = (n + 1).bit_length()
    k = m + math.frexp(top)[1]
    if k < _MIN_SIGMA_EXP:
        return math.fsum(x.tolist())
    sigma = math.ldexp(1.0, k)
    q = x + sigma
    q -= sigma
    t1 = float(q.sum())
    p = x - q
    s2 = float(p.sum())
    err = math.ldexp(float(n * n), k - 106) + math.ulp(0.0)
    total = math.fsum((t1, s2, -err))
    if total == math.fsum((t1, s2, err)):
        return total
    return math.fsum(x.tolist())


def stable_mean_se(x: np.ndarray) -> tuple[float, float]:
    """Mean and standard error (sample std / sqrt(n)) via exactly rounded sums.

    Returns (mean, 0.0) for n < 2.  The same bits as fsum(x)/n and
    sqrt(fsum((x - mean)**2)/(n-1)/n).  Refuses a sample that is not 1-D
    with :class:`InvalidParams`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidParams(f"a sample must be 1-D, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise EmptyInput("cannot average an empty sample")
    hi, lo = float(x.max()), float(x.min())
    mean = _exact_sum(x, max(hi, -lo)) / n
    if n < 2:
        return mean, 0.0
    # x - mean and its square are monotone in x and in |x - mean|, so the
    # largest square is that of the deviation of hi or lo.  Python's * gives
    # inf on overflow, as numpy does, where ** would raise.
    dh, dl = hi - mean, lo - mean
    # Huge finite samples may overflow the squares: the standard error is
    # then inf, which the caller refuses, and numpy need not warn about it;
    # nor about the nan deviations of a non-finite sample, whose mean is
    # not finite either.
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.subtract(x, mean)
        np.multiply(squares, squares, out=squares)
    var = _exact_sum(squares, max(dh * dh, dl * dl)) / (n - 1)
    return mean, math.sqrt(var / n)
