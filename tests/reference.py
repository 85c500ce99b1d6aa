"""Reference implementations the tests compare the engine against.

The reference stepper restates the engine's scheme one grid point at a
time.  It keeps every grid point of the state and of the first variations,
which the engine never stores, and carries Y^11 by its own recursion rather
than as S/s0.  It sums the weight integrals as plain expressions, where the
engine writes each operation into a preallocated buffer.  Tests compare the
engine's S_T and integrals against it; the engine steps the first
variations for P2 and P3 but does not return them, so tests check them
here and reach the engine's through P2 and P3.

:func:`draws_array` gathers the runs of ``standard_draws`` into one array,
and :func:`fsum_mean_se` is the mean and standard error from
:func:`math.fsum`, which the exactly rounded reductions must give to the bit.
:func:`moved` restates each finite-difference Greek's bump as its own
move of the (model, initial state) pair, which ``fd_greek`` reads from the
Greek table, and :func:`fd_reference` prices it.  :func:`stock_drift_fd`
restates the stock-drift shift that ``fd:rho`` moved before every rate
moved with it.  :func:`conditional_call` is an independent oracle for the
call price, delta, ``rho``, ``rho_r0`` and ``vega`` and the digital price,
delta and vega on the engine's own grid.
:func:`check_derivative_consistency` probes a model's derivative fields,
which the package takes as given, against its functions.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
from scipy.special import ndtr

import hsv_greeks as hg


def draws_array(seed, n_paths, n_steps, block=0, **kwargs):
    """The draws of the first ``n_paths`` paths from block ``block`` on, as
    ``simulate_paths`` takes them, one ``hg.engine.standard_draws(seed,
    ..., n_steps, block=..., **kwargs)`` call per block, as one array
    z[path, step, driver], shape (n_paths, n_steps, 3), a view of a
    step-major array.

    Each run is copied as it arrives: its slot is drawn into again once the
    next run is requested, so ``np.concatenate(list(runs))`` would read
    overwritten draws."""
    size = hg.engine._BLOCK_PATHS
    z = np.empty((n_steps, 3, n_paths))
    for b, start in enumerate(range(0, n_paths, size), start=block):
        part = z[:, :, start:start + size]
        for first, run in hg.engine.standard_draws(seed, part.shape[2], n_steps,
                                                   block=b, **kwargs):
            part[first:first + len(run)] = run
    return z.transpose(2, 0, 1)


def at(field, x):
    """A model field at the states x: a number field is a constant."""
    return field(x) if callable(field) else np.full_like(x, field)


def reference_series(model, init, cfg, stock_drift=0.0):
    """Arrays s, v, r, y11, y12, y13, y22, y33 of shape (n_paths, n_steps+1)
    over the draws ``simulate_paths`` uses; column 0 is the initial point.

    ``integrals`` maps each integral accumulator of a weighted run, with
    ``drift_extras`` on a hybrid model, to its per-path values.
    ``stock_drift`` is added to the drift of log S alone, not to r."""
    z = draws_array(cfg.seed, cfg.n_paths, cfg.n_steps)
    dt = cfg.maturity / cfg.n_steps
    sqdt = math.sqrt(dt)
    rho, mu = model.correlations, model.mixing
    floor = cfg.sigma_floor
    cA = -rho.rho12 / mu.mu1
    cB = 1.0 / mu.mu1
    cC = (rho.rho12 * mu.mu2 - rho.rho13 * mu.mu1) / (mu.mu1 * mu.mu3)
    cD = -mu.mu2 / (mu.mu1 * mu.mu3)
    cE = 1.0 / mu.mu3
    sums = {k: np.zeros(cfg.n_paths) for k in
            ("D", "A", "Q", "I1", "I2", "I3", "w1_T", "P2", "P3", "j2", "j3", "g3")}
    x = SimpleNamespace(**{k: np.empty((cfg.n_paths, cfg.n_steps + 1)) for k in
                           ("s", "v", "r", "y11", "y12", "y13", "y22", "y33")})
    x.s[:, 0], x.v[:, 0], x.r[:, 0] = init.s0, init.v0, init.r0
    x.y11[:, 0] = x.y22[:, 0] = x.y33[:, 0] = 1.0
    x.y12[:, 0] = x.y13[:, 0] = 0.0
    log_s = np.full(cfg.n_paths, math.log(init.s0))
    log_y22 = np.zeros(cfg.n_paths)
    log_y33 = np.zeros(cfg.n_paths)
    for n in range(cfg.n_steps):
        S, V, r, y12, y13 = x.s[:, n], x.v[:, n], x.r[:, n], x.y12[:, n], x.y13[:, n]
        dW1 = sqdt * z[:, n, 0]
        dZ2 = rho.rho12 * dW1 + (mu.mu1 * sqdt) * z[:, n, 1]
        dZ3 = (rho.rho13 * dW1 + (mu.mu2 * sqdt) * z[:, n, 1]
               + (mu.mu3 * sqdt) * z[:, n, 2])
        Vp = np.maximum(V, cfg.variance_floor)
        sig, vp, gp = at(model.sigma, Vp), at(model.v_prime, Vp), at(model.g_prime, r)
        z1, z2, z3 = z[:, n, 0], z[:, n, 1], z[:, n, 2]
        inv_sig = 1.0 / np.maximum(sig, floor)
        inv_vv = 1.0 / np.maximum(at(model.v, Vp), floor)
        inv_gg = 1.0 / np.maximum(at(model.g, r), floor)
        t1 = y12 * inv_sig / S
        t2 = y13 * inv_sig / S
        q = x.y22[:, n] * inv_vv
        w = x.y33[:, n] * inv_gg
        for name, term in (
                ("D", r), ("A", sig), ("Q", inv_sig), ("I1", z1 * inv_sig),
                ("I2", z2 * inv_sig), ("I3", z3 * inv_sig), ("w1_T", z1),
                ("P2", t1 * z1 + (cA * t1 + cB * q) * z2 + (cC * t1 + cD * q) * z3),
                ("P3", t2 * z1 + cA * t2 * z2 + (cC * t2 + cE * w) * z3),
                ("j2", z2 * inv_vv), ("j3", z3 * inv_vv), ("g3", z3 * inv_gg)):
            sums[name] += term
        log_step = (r + stock_drift - 0.5 * sig * sig) * dt + sig * dW1
        log_s += log_step
        log_y22 += (at(model.u_prime, Vp) - 0.5 * vp * vp) * dt + vp * dZ2
        log_y33 += (at(model.f_prime, r) - 0.5 * gp * gp) * dt + gp * dZ3
        x.s[:, n + 1] = np.exp(log_s)
        x.v[:, n + 1] = V + at(model.u, Vp) * dt + at(model.v, Vp) * dZ2
        x.r[:, n + 1] = r + at(model.f, r) * dt + at(model.g, r) * dZ3
        x.y11[:, n + 1] = x.y11[:, n] * np.exp(log_step)
        x.y12[:, n + 1] = (y12 + r * y12 * dt
                           + (sig * y12 + S * at(model.sigma_prime, Vp) * x.y22[:, n]) * dW1)
        x.y13[:, n + 1] = y13 + (r * y13 + S * x.y33[:, n]) * dt + sig * y13 * dW1
        x.y22[:, n + 1] = np.exp(log_y22)
        x.y33[:, n + 1] = np.exp(log_y33)
    x.integrals = {name: (dt if name in ("D", "A", "Q") else sqdt) * total
                   for name, total in sums.items()
                   if not (model.degenerate and name in ("P2", "P3", "j2", "j3", "g3"))}
    return x


def fsum_mean_se(x):
    """fsum(x)/n and sqrt(fsum((x - mean)**2)/(n-1)/n); (mean, 0.0) for one
    value."""
    mean = math.fsum(x.tolist()) / x.size
    if x.size < 2:
        return mean, 0.0
    with np.errstate(over="ignore"):
        squares = (x - mean) ** 2
    return mean, math.sqrt(math.fsum(squares.tolist()) / (x.size - 1) / x.size)


def moved(model, init, greek, offset):
    """The (model, init) pair ``fd:greek`` prices at ``offset``, each bump
    written out on its own; a number field stays a number."""
    def plus(field, shift):
        return (lambda x: field(x) + shift) if callable(field) else field + shift

    def below(field):
        return (lambda x: field(x - offset)) if callable(field) else field

    replace = dataclasses.replace
    if greek == "delta":
        return model, replace(init, s0=init.s0 + offset)
    if greek == "vega_v0":
        return model, replace(init, v0=init.v0 + offset)
    if greek == "rho_r0":
        return model, replace(init, r0=init.r0 + offset)
    if greek == "vega":
        return replace(model, sigma=plus(model.sigma, offset)), init
    if greek == "kappa":
        return replace(model, u=plus(model.u, offset * model.hv_params.kappa)), init
    if greek == "reversion":
        return replace(model, f=plus(model.f, offset * model.hv_params.a)), init
    assert greek == "rho", greek
    # Every rate: r0 + offset, stepped by the rate's fields read at r - offset.
    return (replace(model, f=below(model.f), g=below(model.g),
                    f_prime=below(model.f_prime), g_prime=below(model.g_prime)),
            replace(init, r0=init.r0 + offset))


_SCHEMES = {"forward": ((1.0, 0.0), 1.0), "backward": ((0.0, -1.0), 1.0),
            "central": ((1.0, -1.0), 2.0)}


def fd_reference(model, init, cfg, payoff, greek, scheme, h, crn):
    """(value, std_error, clamp_count) of the ``scheme`` finite difference
    of ``greek`` with bump size ``h``: two state-only prices of the
    :func:`moved` pairs on stream 0 (``crn``) or streams 1 and 2, reduced
    by :func:`fsum_mean_se`."""
    offsets, denom = _SCHEMES[scheme]
    prices, clamps = [], 0
    for k, offset in enumerate(offsets):
        paths = hg.simulate_paths(*moved(model, init, greek, offset * h), cfg,
                                  stream=0 if crn else 1 + k, weights=False)
        prices.append(np.exp(-paths.D) * hg.evaluate_payoff(payoff, paths.s_T))
        clamps += paths.clamp_count
    hi, lo = prices
    if crn:
        return (*fsum_mean_se((hi - lo) / (denom * h)), clamps)
    (m_hi, se_hi), (m_lo, se_lo) = fsum_mean_se(hi), fsum_mean_se(lo)
    return ((m_hi - m_lo) / (denom * h),
            math.sqrt(se_hi * se_hi + se_lo * se_lo) / (denom * h), clamps)


def stock_drift_fd(model, init, cfg, payoff, scheme, h):
    """(value, std_error) of the common-random-number ``scheme`` finite
    difference of the stock-drift shift: S steps with drift r + eps, D
    integrates the unmoved r, and each price is discounted by
    e^{-D - eps T}.  fd:rho moved this way before it moved every rate."""
    offsets, denom = _SCHEMES[scheme]
    prices = []
    for offset in offsets:
        x = reference_series(model, init, cfg, stock_drift=offset * h)
        prices.append(np.exp(-x.integrals["D"] - offset * h * cfg.maturity)
                      * hg.evaluate_payoff(payoff, x.s[:, -1]))
    return fsum_mean_se((prices[0] - prices[1]) / (denom * h))


def conditional_call(params, rho, init, strike, maturity, n_steps, n_paths, seed):
    """Per-path samples of the discounted call and its Greeks and of the
    discounted unit digital call and its delta and vega on the engine's
    grid, by discrete conditional Monte Carlo (Willard, J. Derivatives 5,
    1997; Romano & Touzi, Math. Finance 7, 1997), as a namespace of arrays:
    ``price``, ``delta``, ``rho``, ``rho_r0`` and ``vega`` of the call, and
    ``digital``, ``digital_delta`` and ``digital_vega``.

    V is driven by Z^2 alone and r by Z^3 alone.  Given every step's
    (dZ2, dZ3), each dW1 is Gaussian with mean beta.(dZ2, dZ3), where
    beta = Sigma23^{-1} (rho12, rho13), and variance (1 - R^2) dt, where
    R^2 = (rho12, rho13).beta.  The engine's log-Euler log S_T is then
    Gaussian with variance s^2 = (1 - R^2) sum sigma_n^2 dt, so the call is
    St N(d1) - K e^{-D} N(d2), with St = s0 exp(sum sigma_n beta.dZ_n
    - R^2/2 sum sigma_n^2 dt), and its s0-derivative is N(d1) St/s0.  The
    digital pays e^{-D} N(d2), and its s0-derivative is
    e^{-D} phi(d2)/(s0 s).  St does not depend on the rates, which move
    the call through D alone, by K e^{-D} N(d2) per unit of D: moving every
    rate by h moves D by h T, and r0 moves it by
    dD/dr0 = dt sum_{n<N} (1 - a dt)^n under the Euler rate steps.

    ``vega`` moves every sigma_n to sigma_n + eps in St and s: with
    m1 = sum beta.dZ_n and A = sum sigma_n dt, log St moves by
    L' = m1 - R^2 A and s by s' = (1 - R^2) A/s per unit of eps, so the
    call moves by N(d1) St L' + St phi(d1) s' and the digital by
    e^{-D} phi(d2) (L'/s - s' d1/s).

    The V and r steps restate the engine's full-truncation Euler scheme
    from the Heston–Vasicek ``params`` (variance floor 0), on draws of
    numpy's default generator at ``seed``, independent of the engine's."""
    rng = np.random.default_rng(seed)
    dt, sqdt = maturity / n_steps, math.sqrt(maturity / n_steps)
    det = 1.0 - rho.rho23 ** 2
    b2 = (rho.rho12 - rho.rho23 * rho.rho13) / det
    b3 = (rho.rho13 - rho.rho23 * rho.rho12) / det
    r_squared = rho.rho12 * b2 + rho.rho13 * b3
    v, r = np.full(n_paths, init.v0), np.full(n_paths, init.r0)
    D, mean, var = np.zeros(n_paths), np.zeros(n_paths), np.zeros(n_paths)
    m1, A = np.zeros(n_paths), np.zeros(n_paths)
    for _ in range(n_steps):
        dZ2 = sqdt * rng.standard_normal(n_paths)
        dZ3 = rho.rho23 * dZ2 + math.sqrt(det) * sqdt * rng.standard_normal(n_paths)
        vp = np.maximum(v, 0.0)
        sigma = np.sqrt(vp)
        D += r * dt
        m1 += b2 * dZ2 + b3 * dZ3
        mean += sigma * (b2 * dZ2 + b3 * dZ3)
        var += vp * dt
        A += sigma * dt
        v = v + params.kappa * (params.theta - vp) * dt + params.sigma_vol * sigma * dZ2
        r = r + params.a * (params.b - r) * dt + params.k * dZ3
    st = init.s0 * np.exp(mean - 0.5 * r_squared * var)
    s = np.sqrt((1.0 - r_squared) * var)
    d1 = (np.log(st / strike) + D + 0.5 * s * s) / s
    d2 = d1 - s
    digital = np.exp(-D) * ndtr(d2)
    dD_dr0 = dt * sum((1.0 - params.a * dt) ** n for n in range(n_steps))
    phi_d1, phi_d2 = (np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi) for d in (d1, d2))
    dlog_st = m1 - r_squared * A
    ds = (1.0 - r_squared) * A / s
    return SimpleNamespace(
        price=st * ndtr(d1) - strike * digital,
        delta=ndtr(d1) * st / init.s0,
        rho=maturity * strike * digital,
        rho_r0=strike * digital * dD_dr0,
        vega=ndtr(d1) * st * dlog_st + st * phi_d1 * ds,
        digital=digital,
        digital_delta=np.exp(-D - 0.5 * d2 * d2) / (math.sqrt(2.0 * math.pi) * init.s0 * s),
        digital_vega=np.exp(-D) * phi_d2 * (dlog_st / s - ds * d1 / s))


# The derivative probe: variance points are kept away from the sqrt kink at
# 0, rate points span negative and positive.
_PROBE_V_RANGE = (0.02, 1.5)
_PROBE_R_RANGE = (-0.10, 0.15)
# Points per field, relative tolerance and seed of the probe.
_PROBE_POINTS, _PROBE_TOL, _PROBE_SEED = 5, 1e-6, 0


def check_derivative_consistency(model: hg.ModelSpec) -> None:
    """Probe each derivative field against a central difference of its function.

    ``_PROBE_POINTS`` seeded random points are drawn per field (variance
    fields over ``_PROBE_V_RANGE``, rate fields over ``_PROBE_R_RANGE``); the
    check uses step ``1e-6 * max(1, |x|)`` and requires
    ``|fd - prime| <= _PROBE_TOL * max(1, |prime|)``.  A number field is the
    constant function, whose central difference is 0.

    Raises
    ------
    InvalidParams
        Naming the first field whose derivative disagrees.
    """
    rng = np.random.default_rng(_PROBE_SEED)
    pairs = [
        ("sigma", model.sigma, model.sigma_prime, _PROBE_V_RANGE),
        ("u", model.u, model.u_prime, _PROBE_V_RANGE),
        ("v", model.v, model.v_prime, _PROBE_V_RANGE),
        ("f", model.f, model.f_prime, _PROBE_R_RANGE),
        ("g", model.g, model.g_prime, _PROBE_R_RANGE),
    ]

    def at(field, x):
        return np.asarray(field(x), dtype=float) if callable(field) else np.full_like(x, field)

    for name, func, prime, (lo, hi) in pairs:
        x = rng.uniform(lo, hi, size=_PROBE_POINTS)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        fd = (at(func, x + h) - at(func, x - h)) / (2.0 * h)
        exact = at(prime, x)
        err = np.abs(fd - exact)
        bound = _PROBE_TOL * np.maximum(1.0, np.abs(exact))
        if np.any(err > bound):
            i = int(np.argmax(err - bound))
            raise hg.InvalidParams(
                f"derivative field '{name}_prime' inconsistent with '{name}' at "
                f"x={x[i]!r}: central diff {fd[i]!r} vs supplied {exact[i]!r}"
            )
