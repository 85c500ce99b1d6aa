"""The benchmark's three workloads: their configs, entry points and output
checks.

Every workload runs the Heston-Vasicek defaults with ``sim.workers`` left
at ``auto``; the benchmark seed reaches the program only as ``sim.seed``.
Each one loads a different layer, so no single workload hides where time
goes:

* ``converge_sweep`` is engine-bound: six single-block simulations with
  the drift extras and almost nothing in the estimators.
* ``compare_fd`` is the only multi-block workload; it re-simulates over
  identical draws for the CRN finite differences.
* ``strike_ladder`` is estimator-bound: one simulation, then 984 weighted
  estimates over 123 payoffs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ALL_MALLIAVIN = ",".join(
    f"malliavin:{g}" for g in ("price", "delta", "rho", "vega", "vega_v0",
                               "rho_r0", "kappa", "reversion"))
LADDER_KINDS = ("call", "put", "digital_call")
LADDER_STRIKES = tuple(range(80, 121))
# The Greeks the ladder delivers per payoff, in output order.
LADDER_GREEKS = ("price", "delta", "rho", "vega", "vega_v0", "rho_r0",
                 "kappa", "reversion")


@dataclass(frozen=True)
class Outputs:
    """What one run wrote, in the order it is hashed."""

    csv_text: str
    stdout_text: str = ""

    def blob(self) -> bytes:
        return self.stdout_text.encode() + self.csv_text.encode()


@dataclass(frozen=True)
class Workload:
    # Config entries besides ``sim.seed``.
    entries: dict
    # run(config, config_path, out_dir) -> Outputs; the timed entry point.
    run: Callable
    # check(outputs, config) -> list of failed-check messages.
    check: Callable
    # weighted_se(outputs) -> std_errors of the weighted estimates at the
    # workload's largest path count.
    weighted_se: Callable
    # Geometric mean of weighted_se at seed 12345 when the benchmark was
    # defined.  It only makes rel_se a ratio; never update it.
    reference_se: float

    def config_entries(self, seed: int) -> dict:
        return {**self.entries, "sim.seed": str(seed)}

    def rel_se(self, outputs: Outputs) -> float:
        """Geometric mean of the weighted estimates' standard errors, over
        ``reference_se``.  A std_error is seed-stable where std_error/|value|
        is not: half the Greeks here have |value| below their SE."""
        logs = [math.log(se) for se in self.weighted_se(outputs)]
        return math.exp(statistics.fmean(logs)) / self.reference_se


def config_text(entries: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in entries.items())


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _finite(rows: list[dict]) -> list[str]:
    return [f"non-finite value or std_error in row {i}"
            for i, r in enumerate(rows)
            if not (math.isfinite(float(r["value"]))
                    and math.isfinite(float(r["std_error"])))]


# --- CLI workloads ----------------------------------------------------------

def _cli_run(command: str) -> Callable:
    def run(config, config_path: Path, out_dir: Path) -> Outputs:
        import hsv_greeks.cli

        csv_path = out_dir / "output.csv"
        stdout_path = out_dir / "stdout.txt"
        with open(stdout_path, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            code = hsv_greeks.cli.main(
                [command, "--config", str(config_path), "--out", str(csv_path)])
        if code != 0:
            raise RuntimeError(f"hsv-greeks {command} exited with {code}")
        return Outputs(csv_path.read_text(encoding="utf-8"),
                       stdout_path.read_text(encoding="utf-8"))
    return run


def _cli_weighted_se(outputs: Outputs) -> list[float]:
    rows = [r for r in _rows(outputs.csv_text) if r["estimator"] == "malliavin"]
    largest = max(int(r["n_paths"]) for r in rows)
    return [float(r["std_error"]) for r in rows if int(r["n_paths"]) == largest]


def _check_converge(outputs: Outputs, config) -> list[str]:
    rows = _rows(outputs.csv_text)
    failed = _finite(rows)
    smallest, largest = min(config.sweep), max(config.sweep)
    se = {(r["greek"], int(r["n_paths"])): float(r["std_error"]) for r in rows}
    for _, greek in config.estimators:
        if not se[greek, largest] < se[greek, smallest]:
            failed.append(f"{greek}: SE at {largest} paths is not below "
                          f"SE at {smallest} paths")
    return failed


def agree_flags(stdout_text: str) -> list[str]:
    """The ``agree`` column of the compare table, one entry per FD row."""
    flags = []
    for line in stdout_text.splitlines()[2:]:
        # greek n_paths estimator value std_error agree wall_ms n_sims
        fields = line.split()
        if fields[2].startswith("fd_"):
            flags.append(fields[5])
    return flags


def _check_compare(outputs: Outputs, config) -> list[str]:
    failed = _finite(_rows(outputs.csv_text))
    flags = agree_flags(outputs.stdout_text)
    if not flags:
        failed.append("compare table has no FD rows")
    failed += [f"FD row {i} disagrees with its weighted estimate"
               for i, flag in enumerate(flags) if flag != "yes"]
    return failed


# --- library workload -------------------------------------------------------

def _run_ladder(config, config_path: Path, out_dir: Path) -> Outputs:
    """The README quick start, widened to a strike ladder: one simulation,
    then every weighted Greek of each payoff from the same paths."""
    import hsv_greeks as hg

    paths = hg.simulate_paths(config.model, config.init, config.sim,
                              drift_extras=True)
    s0, maturity = config.init.s0, config.sim.maturity
    lines = ["payoff,strike,greek,value,std_error"]
    for kind in LADDER_KINDS:
        for strike in LADDER_STRIKES:
            payoff = hg.Payoff(kind, strike=float(strike))
            estimates = {
                "price": hg.price(paths, payoff),
                "delta": hg.delta(paths, payoff, s0),
                "rho": hg.rho(paths, payoff, maturity),
                "vega": hg.vega(paths, payoff, maturity),
            }
            _, estimates["vega_v0"], estimates["rho_r0"] = hg.bismut_vector(
                paths, payoff)
            estimates["kappa"] = hg.drift_sensitivity(paths, payoff, "kappa")
            estimates["reversion"] = hg.drift_sensitivity(
                paths, payoff, "reversion_speed")
            for greek in LADDER_GREEKS:
                est = estimates[greek]
                lines.append(f"{kind},{strike},{greek},{est.value!r},"
                             f"{est.std_error!r}")
    text = "\n".join(lines) + "\n"
    csv_path = out_dir / "output.csv"
    csv_path.write_text(text, encoding="utf-8")
    return Outputs(text)


def _check_ladder(outputs: Outputs, config) -> list[str]:
    rows = _rows(outputs.csv_text)
    failed = _finite(rows)
    expected = len(LADDER_KINDS) * len(LADDER_STRIKES) * len(LADDER_GREEKS)
    if len(rows) != expected:
        failed.append(f"ladder wrote {len(rows)} estimates, expected {expected}")
    values = {(r["payoff"], r["strike"], r["greek"]): float(r["value"])
              for r in rows}
    s0, maturity = config.init.s0, config.sim.maturity
    for kind in LADDER_KINDS:
        for strike in LADDER_STRIKES:
            key = (kind, str(strike))
            rho = values[key + ("rho",)]
            implied = (s0 * values[key + ("delta",)]
                       - maturity * values[key + ("price",)])
            # rho = s0*delta - T*price holds per path, so the estimates
            # agree up to the rounding of the per-path products.
            if not math.isclose(rho, implied, rel_tol=1e-12, abs_tol=1e-12):
                failed.append(f"{kind} K={strike}: rho {rho!r} != "
                              f"s0*delta - T*price {implied!r}")
    return failed


def _ladder_weighted_se(outputs: Outputs) -> list[float]:
    return [float(r["std_error"]) for r in _rows(outputs.csv_text)]


WORKLOADS = {
    "converge_sweep": Workload(
        {"estimators": ALL_MALLIAVIN},
        _cli_run("converge"), _check_converge, _cli_weighted_se, 4.15779),
    "compare_fd": Workload(
        # Two 16,384-path engine blocks per simulation.
        {"sim.n_paths": "32768",
         "estimators": "malliavin:delta,malliavin:vega,fd:delta,fd:vega"},
        _cli_run("compare"), _check_compare, _cli_weighted_se, 0.217165),
    "strike_ladder": Workload(
        {"sim.n_paths": "16384"},
        _run_ladder, _check_ladder, _ladder_weighted_se, 0.945294),
}
