"""Reference stepper: the engine's scheme restated one grid point at a time.

It keeps every grid point of the state and of the first variations, which
the engine never stores, and carries Y^11 by its own recursion rather than
as S/s0.  It sums the weight integrals as plain expressions, where the
engine writes each operation into a preallocated buffer.  Tests compare the
engine's terminal accumulators against it.
"""

import math
from types import SimpleNamespace

import numpy as np

import hsv_greeks as hg


def reference_series(model, init, cfg):
    """Arrays s, v, r, y11, y12, y13, y22, y33 of shape (n_paths, n_steps+1)
    over the draws ``simulate_paths`` uses; column 0 is the initial point.

    ``integrals`` maps each integral accumulator of a weighted run, with
    ``drift_extras`` on a hybrid model, to its per-path values."""
    z = hg.standard_draws(cfg.seed, cfg.n_paths, cfg.n_steps)
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
        sig, vp, gp = model.sigma(Vp), model.v_prime(Vp), model.g_prime(r)
        z1, z2, z3 = z[:, n, 0], z[:, n, 1], z[:, n, 2]
        inv_sig = 1.0 / np.maximum(sig, floor)
        inv_vv = 1.0 / np.maximum(model.v(Vp), floor)
        inv_gg = 1.0 / np.maximum(model.g(r), floor)
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
        log_step = (r - 0.5 * sig * sig) * dt + sig * dW1
        log_s += log_step
        log_y22 += (model.u_prime(Vp) - 0.5 * vp * vp) * dt + vp * dZ2
        log_y33 += (model.f_prime(r) - 0.5 * gp * gp) * dt + gp * dZ3
        x.s[:, n + 1] = np.exp(log_s)
        x.v[:, n + 1] = V + model.u(Vp) * dt + model.v(Vp) * dZ2
        x.r[:, n + 1] = r + model.f(r) * dt + model.g(r) * dZ3
        x.y11[:, n + 1] = x.y11[:, n] * np.exp(log_step)
        x.y12[:, n + 1] = (y12 + r * y12 * dt
                           + (sig * y12 + S * model.sigma_prime(Vp) * x.y22[:, n]) * dW1)
        x.y13[:, n + 1] = y13 + (r * y13 + S * x.y33[:, n]) * dt + sig * y13 * dW1
        x.y22[:, n + 1] = np.exp(log_y22)
        x.y33[:, n + 1] = np.exp(log_y33)
    x.integrals = {name: (dt if name in ("D", "A", "Q") else sqdt) * total
                   for name, total in sums.items()
                   if not (model.degenerate and name in ("P2", "P3", "j2", "j3", "g3"))}
    return x
