"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria 1-2 check the constant-coefficient limit against closed
forms, 3 cross-checks estimators at the hybrid model's reference parameter
set, 4-8 are structural invariants of the simulation and weights, and 9-10
exercise the command line end to end.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import hsv_greeks as hg
from conftest import (
    BS_DELTA,
    BS_DIGITAL_DELTA,
    BS_RHO,
    BS_VEGA,
    SEED_HV,
    cli_env,
    within_se,
)
from reference import reference_series


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:>2} [{status}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_constant_coefficient_limit(deg_paths_100k, call_100):
    d = hg.delta(deg_paths_100k, call_100, 100.0)
    r = hg.rho(deg_paths_100k, call_100, 1.0)
    v = hg.vega(deg_paths_100k, call_100, 1.0)
    ok = (within_se(d, BS_DELTA) and within_se(r, BS_RHO)
          and within_se(v, BS_VEGA))
    _report(1, "weighted Delta/Rho/Vega match closed forms in the "
            "constant-coefficient limit (1e5 paths)", ok,
            f"delta {d.value:.5f} vs {BS_DELTA:.5f}, "
            f"rho {r.value:.3f} vs {BS_RHO:.3f}, "
            f"vega {v.value:.3f} vs {BS_VEGA:.3f}")


def test_criterion_02_digital_payoff_delta(deg_paths_100k):
    digital = hg.Payoff("digital_call", strike=100.0)
    d = hg.delta(deg_paths_100k, digital, 100.0)
    ok = within_se(d, BS_DIGITAL_DELTA)
    _report(2, "digital-call Delta (non-smooth payoff) matches its closed "
            "form", ok, f"{d.value:.6f} vs {BS_DIGITAL_DELTA:.6f}, "
            f"se {d.std_error:.2g}")


def test_criterion_03_estimators_agree_at_reference_params(
        hv_model, hv_init, hv_cfg_10k, call_100):
    started = time.perf_counter()
    paths = hg.simulate_paths(hv_model, hv_init, hv_cfg_10k)
    pairs = {
        "delta": hg.delta(paths, call_100, hv_init.s0),
        "rho": hg.rho(paths, call_100, 1.0),
        "vega": hg.vega(paths, call_100, 1.0),
    }
    agree = {}
    for greek, weighted in pairs.items():
        bump = hg.BumpSpec(greek, "central",
                           h=hg.default_bump_size(greek, hv_init), crn=True)
        fd = hg.fd_greek(hv_model, hv_init, hv_cfg_10k, call_100, bump)
        agree[greek] = hg.agrees(weighted, fd)
    elapsed = time.perf_counter() - started
    ok = all(agree.values()) and elapsed < 30.0
    _report(3, "weighted vs CRN central-FD Delta/Rho/Vega at the hybrid "
            "reference parameters (1e4 paths)", ok,
            f"agreement {agree}, {elapsed:.1f}s of 30s budget")


def test_criterion_04_discounted_spot_is_a_martingale(hv_paths_100k):
    mean, se = hg.stable_mean_se(np.exp(-hv_paths_100k.D) * hv_paths_100k.s_T)
    ok = abs(mean - 100.0) <= 3.0 * se
    _report(4, "E[discount * S_T] = S0 at 1e5 paths", ok,
            f"{mean:.4f} +- {se:.4f}")


def test_criterion_05_pathwise_rho_delta_identity(hv_paths_10k):
    delta, rho, discount = (hg.greeks._GREEKS[g].samples(hv_paths_10k, 1.0)
                            for g in ("delta", "rho", "price"))
    lhs = rho
    rhs = 100.0 * delta - 1.0 * discount
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    worst = float(np.max(np.abs(lhs - rhs) / scale))
    ok = worst <= 1e-12
    _report(5, "per-path identity rho = s0*delta - T*discount", ok,
            f"worst relative error {worst:.2e}")


def test_criterion_06_mixing_round_trip():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 1000:
        r12, r13, r23 = rng.uniform(-0.95, 0.95, size=3)
        try:
            triple = hg.CorrelationTriple(r12, r13, r23)
            mu = hg.models._mixing_from_correlations(triple)
        except (hg.NonPositiveSemiDefinite, hg.InvalidParams):
            continue
        L = np.array([[1.0, 0.0, 0.0], [r12, mu.mu1, 0.0], [r13, mu.mu2, mu.mu3]])
        R = np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])
        worst = max(worst, float(np.max(np.abs(L @ L.T - R))))
        checked += 1
    mu_ref = hg.models._mixing_from_correlations(hg.CorrelationTriple(-0.8, 0.5, 0.02))
    ref_err = max(abs(mu_ref.mu1 - 0.6), abs(mu_ref.mu2 - 0.7),
                  abs(mu_ref.mu3 - 0.509902))
    ok = worst <= 1e-12 and ref_err <= 1e-6
    _report(6, "mixing loadings L give L*L^T = R for 1000 random correlation "
            "triples and hit the reference loadings", ok,
            f"worst |L*L^T - R| {worst:.2e}, reference {ref_err:.2e}")


def test_criterion_07_first_variation_equals_normalised_spot(
        hv_model, hv_init):
    cfg = hg.SimConfig(n_paths=2000, n_steps=252, maturity=1.0, seed=SEED_HV)
    series = reference_series(hv_model, hv_init, cfg)
    ratio = series.s / hv_init.s0
    worst = float(np.max(np.abs(series.y11 - ratio) / np.abs(ratio)))
    ok = worst <= 1e-12
    _report(7, "spot first-variation, by its own recursion, equals S_t/S0 "
            "at every grid point", ok,
            f"worst relative error {worst:.2e}")


def test_criterion_08_zero_mean_building_blocks(hv_paths_100k):
    bad = []
    p = hv_paths_100k
    for name, arr in (("I1", p.I1), ("I2", p.I2), ("I3", p.I3),
                      ("P2", p.P2), ("P3", p.P3)):
        mean, se = hg.stable_mean_se(arr)
        if abs(mean) > 3.0 * se:
            bad.append(f"{name}={mean:.3g}+-{se:.3g}")
    const = hg.Payoff("constant", level=1.0)
    for name, est in (("delta", hg.delta(p, const, 100.0)),
                      ("vega", hg.vega(p, const, 1.0))):
        if abs(est.value) > 3.0 * est.std_error:
            bad.append(f"{name}={est.value:.3g}+-{est.std_error:.3g}")
    _report(8, "Ito integrals and constant-payoff Delta/Vega have mean zero "
            "at 1e5 paths", not bad, "; ".join(bad) or "all within 3 SE")


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hsv_greeks.cli", *args],
                          capture_output=True, text=True, env=cli_env())


def test_criterion_09_byte_identical_output(tmp_path):
    def config(workers):
        cfg = tmp_path / f"det_{workers}.cfg"
        cfg.write_text(f"sim.n_paths=2000\nsim.n_steps=64\nsim.workers={workers}\n",
                       encoding="utf-8")
        return str(cfg)

    runs = [_run_cli("greeks", "--config", config(workers))
            for workers in ("auto", "auto", "1", "4")]
    codes = [p.returncode for p in runs]
    outputs = {p.stdout for p in runs}
    ok = codes == [0, 0, 0, 0] and len(outputs) == 1
    _report(9, "identical config+seed gives byte-identical CSV across runs "
            "and worker counts {1,4}", ok,
            f"exit codes {codes}, {len(outputs)} distinct output(s)")


def test_criterion_10_convergence_sweep_brackets_reference(
        tmp_path, hv_paths_100k, call_100):
    reference = {
        "delta": hg.delta(hv_paths_100k, call_100, 100.0).value,
        "rho": hg.rho(hv_paths_100k, call_100, 1.0).value,
        "vega": hg.vega(hv_paths_100k, call_100, 1.0).value,
    }
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("", encoding="utf-8")  # pure defaults: 250..10000 sweep
    proc = _run_cli("converge", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    sizes = sorted({int(r[2]) for r in rows})
    misses = []
    for r in rows:
        greek, n, value, se = r[1], int(r[2]), float(r[5]), float(r[6])
        if abs(value - reference[greek]) > 3.0 * se:
            misses.append(f"{greek}@{n}")
    ok = sizes == [250, 500, 1000, 2000, 5000, 10000] and not misses
    _report(10, "3-SE bands at every sweep size contain the 1e5-path "
            "reference", ok,
            f"sizes {sizes}" + (f", misses {misses}" if misses else ""))
