"""
Demo: sensitivities to the variance/rate state and to drift parameters
======================================================================

Beyond the classic trio, the weight machinery yields four more derivatives
that only exist when variance and rate are genuinely stochastic:

  vega_v0    d price / d V0        (initial variance)
  rho_r0     d price / d r0        (initial short rate)
  kappa      d price / d epsilon along the variance mean-reversion drift
  reversion  d price / d epsilon along the rate mean-reversion drift

The first two come from a Bismut-type weight (P2, P3 accumulators); the
drift pair integrates the drift-derivative against the inverse first
variation (J2, J3, G3).  Each is checked against a common-random-number
central finite difference, and the last section sets the same check on
the spot delta beside them.
"""

import hsv_greeks as hg

def main():
    print("Initial-state and drift sensitivities under the hybrid model")
    print("=" * 62)

    model = hg.heston_vasicek_model(
        hg.HestonVasicekParams(kappa=2.0, theta=0.04, sigma_vol=0.04,
                               a=0.02, b=0.08, k=0.002),
        hg.CorrelationTriple(rho12=-0.8, rho13=0.5, rho23=0.02))
    init = hg.InitialState(s0=100.0, v0=0.04, r0=0.02)
    cfg = hg.SimConfig(n_paths=20_000, n_steps=128, maturity=1.0, seed=314)
    call = hg.Payoff("call", strike=100.0)

    # drift_extras=True adds the J2/J3/G3 accumulators the drift pair needs
    paths = hg.simulate_paths(model, init, cfg, drift_extras=True)

    _, vega_v0, rho_r0 = hg.bismut_vector(paths, call)
    weighted = {
        "vega_v0": vega_v0,
        "rho_r0": rho_r0,
        "kappa": hg.drift_sensitivity(paths, call, "kappa"),
        "reversion": hg.drift_sensitivity(paths, call, "reversion_speed"),
    }

    print(f"\n{'greek':<10} {'weighted':>9} {'+-se':>9} "
          f"{'fd central':>11} {'+-se':>8} {'agree':>6}")
    print("-" * 58)
    fd_by_name = {}
    for name, est in weighted.items():
        bump = hg.BumpSpec(name, h=hg.default_bump_size(name, init))
        fd = hg.fd_greek(model, init, cfg, call, bump)
        fd_by_name[name] = fd
        flag = "yes" if hg.agrees(est, fd) else "NO"
        print(f"{name:<10} {est.value:>9.3f} {est.std_error:>9.3f} "
              f"{fd.value:>11.3f} {fd.std_error:>8.3f} {flag:>6}")

    print("\nthe Bismut weights integrate 1/v and 1/g along the path, which")
    print("is why their standard errors dwarf the finite-difference ones --")
    print("the agreement column is doing real work here.")

    # Plausibility anchor for vega_v0: a V0 bump decays like e^{-kappa*t},
    # so only its time average survives to the payoff.  Chain-ruling the
    # flat-vol vega through sigma = sqrt(V0) and damping it that way lands
    # close to the FD number.
    damping = (1 - 2.718281828459045 ** -2.0) / 2.0   # (1-e^-kT)/(kT), k=2
    flat_vega = hg.bs_closed_form(100.0, 100.0, 0.02, 0.2, 1.0).vega
    expect = flat_vega / (2 * 0.04 ** 0.5) * damping
    print(f"\nplausibility: flat-vol vega / (2 sqrt(V0)) * mean-reversion")
    print(f"damping = {flat_vega:.2f} / 0.4 * {damping:.3f} = {expect:.1f}"
          f"  vs  fd vega_v0 = {fd_by_name['vega_v0'].value:.1f}")

    # The spot delta from the same paths, beside its central difference
    print("\nmalliavin:delta vs central fd:delta (h=1.0) on the same draws:")
    delta = hg.delta(paths, call, init.s0)
    fd = hg.fd_greek(model, init, cfg, call, hg.BumpSpec("delta", h=1.0))
    for tag, est in (("malliavin", delta), ("fd central", fd)):
        print(f"  {tag:<12} {est.value:>9.4f} +- {est.std_error:.4f}")
    print("the differenced payoffs share almost all their noise, so the")
    print("difference is the tighter estimate; the weight needs no bump.")


if __name__ == "__main__":
    main()
