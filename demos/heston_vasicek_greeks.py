"""
Demo: Greeks under stochastic volatility and a stochastic short rate
====================================================================

The full model: CIR-type variance (full-truncation Euler), Vasicek short
rate, three correlated drivers.  No closed forms exist here, so the check is
cross-estimator: every weighted Greek is re-estimated by central finite
differences with common random numbers, and the two must land within three
combined standard errors of each other.

The interesting part is the cost column.  One simulation yields *all* the
weighted Greeks (the weights are assembled from the same accumulators),
while each finite difference needs two fresh simulations -- and a different
pair per Greek.
"""

import time

import hsv_greeks as hg

def main():
    print("Hybrid-model Greeks: weights versus bump-and-revalue")
    print("=" * 60)

    params = hg.HestonVasicekParams(kappa=2.0, theta=0.04, sigma_vol=0.04,
                                    a=0.02, b=0.08, k=0.002)
    corr = hg.CorrelationTriple(rho12=-0.8, rho13=0.5, rho23=0.02)
    model = hg.heston_vasicek_model(params, corr)
    init = hg.InitialState(s0=100.0, v0=0.04, r0=0.02)
    cfg = hg.SimConfig(n_paths=10_000, n_steps=252, maturity=1.0, seed=7)
    call = hg.Payoff("call", strike=100.0)

    mu = model.mixing
    print(f"\ndriver loadings: mu1={mu.mu1:.6f} mu2={mu.mu2:.6f} "
          f"mu3={mu.mu3:.6f}")

    t0 = time.perf_counter()
    paths = hg.simulate_paths(model, init, cfg)
    t_sim = time.perf_counter() - t0

    weighted = {
        "delta": hg.delta(paths, call, init.s0),
        "rho": hg.rho(paths, call, cfg.maturity),
        "vega": hg.vega(paths, call, cfg.maturity),
    }
    print(f"one simulation ({t_sim:.2f}s) produced every weighted "
          f"estimate below.")

    print(f"\n{'greek':<7} {'weighted':>12} {'fd central':>12} "
          f"{'combined se':>12} {'agree':>6} {'fd sims':>8}")
    print("-" * 62)
    for greek, est in weighted.items():
        bump = hg.BumpSpec(greek, "central",
                           h=hg.default_bump_size(greek, init), crn=True)
        fd = hg.fd_greek(model, init, cfg, call, bump)
        comb = (est.std_error ** 2 + fd.std_error ** 2) ** 0.5
        flag = "yes" if hg.agrees(est, fd) else "NO"
        print(f"{greek:<7} {est.value:>12.5f} {fd.value:>12.5f} "
              f"{comb:>12.5f} {flag:>6} {2:>8}")

    price = hg.price(paths, call)
    print(f"\ncall price at these parameters: {price.value:.4f} "
          f"+- {price.std_error:.4f}")

    # For scale, freeze both stochastic layers: vol at sqrt(V0) and the rate
    # at its Vasicek time average over [0, T].
    a, b, r0 = params.a, params.b, init.r0
    r_bar = b + (r0 - b) * (1 - 2.718281828459045 ** (-a * 1.0)) / (a * 1.0)
    flat = hg.bs_closed_form(init.s0, call.strike, r_bar, init.v0 ** 0.5, 1.0)
    print(f"\nflat-coefficient reading (sigma=0.2, r={r_bar:.4f}): "
          f"price {flat.price:.4f}, delta {flat.delta:.4f}")
    print("the stochastic layers move these only slightly at sigma_vol=0.04")
    print("and k=0.002 -- which is exactly why the cross-estimator check is")
    print("the meaningful one at these parameters, not absolute levels.")


if __name__ == "__main__":
    main()
