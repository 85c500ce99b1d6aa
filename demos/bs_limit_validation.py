"""
Demo: validating the weighted estimators in the constant-coefficient limit
==========================================================================

When the variance and rate coefficients are frozen (sigma(v) = 0.2, g(r) = 0),
the hybrid model collapses to geometric Brownian motion with a constant short
rate, and every Greek has a textbook closed form.  That makes this limit the
one place where the Malliavin-weight estimators can be checked against exact
numbers rather than against another Monte Carlo run.

The script simulates 100k paths of the degenerate model, forms the weighted
Delta / Rho / Vega estimates for a vanilla call, and prints each next to its
closed-form value with a z-score (error over standard error).  It then repeats
Delta for a digital call -- a discontinuous payoff, where a pathwise
derivative would fail outright but the weight, being payoff-independent,
does not care.
"""

import numpy as np

import hsv_greeks as hg

SIGMA, RATE = 0.2, 0.05
S0, STRIKE, MATURITY = 100.0, 100.0, 1.0


def zscore(est, target):
    return (est.value - target) / est.std_error


def main():
    print("Constant-coefficient limit versus closed forms")
    print("=" * 54)

    model = hg.black_scholes_degenerate(SIGMA)
    init = hg.InitialState(s0=S0, v0=0.04, r0=RATE)  # r0 is the constant rate; v0 is inert
    cfg = hg.SimConfig(n_paths=100_000, n_steps=252, maturity=MATURITY,
                       seed=20_240)

    print(f"\nsimulating {cfg.n_paths} paths x {cfg.n_steps} steps ...")
    paths = hg.simulate_paths(model, init, cfg)

    call = hg.Payoff("call", strike=STRIKE)
    closed = hg.bs_closed_form(S0, STRIKE, RATE, SIGMA, MATURITY)

    rows = [
        ("price", hg.price(paths, call), closed.price),
        ("delta", hg.delta(paths, call, S0), closed.delta),
        ("rho", hg.rho(paths, call, MATURITY), closed.rho),
        ("vega", hg.vega(paths, call, MATURITY), closed.vega),
    ]

    print(f"\n{'greek':<8} {'estimate':>12} {'std err':>10} "
          f"{'closed form':>12} {'z':>7}")
    print("-" * 54)
    for name, est, target in rows:
        print(f"{name:<8} {est.value:>12.5f} {est.std_error:>10.5f} "
              f"{target:>12.5f} {zscore(est, target):>7.2f}")

    # The same weights price the kink-free-derivative-less digital call.
    digital = hg.Payoff("digital_call", strike=STRIKE)
    d_est = hg.delta(paths, digital, S0)
    d_ref = closed.digital_delta
    print(f"\ndigital-call delta: {d_est.value:.6f} "
          f"(closed form {d_ref:.6f}, z = {zscore(d_est, d_ref):+.2f})")
    print("the weight never differentiates the payoff, so the jump at the")
    print("strike costs nothing -- only the variance is a little higher.")

    # Sanity: the discounted terminal spot must average back to S0.
    mean, se = hg.stable_mean_se(np.exp(-paths.D) * paths.s_T)
    print(f"\nmartingale check: E[e^-D S_T] = {mean:.4f} +- {se:.4f} "
          f"(target {S0})")


if __name__ == "__main__":
    main()
