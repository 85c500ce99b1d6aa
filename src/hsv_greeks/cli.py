"""Command-line front end for pricing and Greek runs.

Subcommands
-----------
``price``      discounted-payoff mean at the configured path count
``greeks``     every requested estimator at the configured path count
``converge``   every requested estimator at each sweep size
``compare``    weighted estimators against their finite-difference versions,
               with combined-standard-error agreement flags and timings
``dump-config`` the fully resolved configuration, rerunnable as-is

All data output is CSV (or JSON lines) with one row per estimator and sample
size.  Rows are produced by library calls and formatted with ``repr``; the
front end adds no arithmetic, so output bytes are reproducible whenever the
configuration and seed are.  At each size the ``malliavin:`` rows share one
simulation of the integrals they read: the first of them runs it, and the
last lets it go.  Wall-clock timing is opt-in (``output.timing=clock``)
because it breaks byte-level reproducibility; it charges the shared
simulation to the first ``malliavin:`` row.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from .baselines import agrees, bs_closed_form, fd_greek
from .config import RunConfig, build_run_config, effective_config_text, load_config_file
from .engine import simulate_paths
from .errors import HsvGreeksError, InvalidConfig, NonFiniteEstimate, NumericalBlowup
from .greeks import (_GREEKS, GreekEstimate, bismut_vector, delta, drift_sensitivity, price,
                     rho, vega)

_ROW_FIELDS = ("estimator", "greek", "n_paths", "n_steps", "seed",
               "value", "std_error", "clamp_count", "wall_time_ms")

CSV_HEADER = ",".join(_ROW_FIELDS)


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(x))


# A weighted token's estimate, by a call through its public estimator's module
# name, which a tracer may rebind; vega_v0 and rho_r0 share one bismut_vector.
_ESTIMATORS = {
    "price": lambda p, payoff: price(p, payoff),
    "delta": lambda p, payoff: delta(p, payoff, p.s0),
    "rho": lambda p, payoff: rho(p, payoff, p.maturity),
    "vega": lambda p, payoff: vega(p, payoff, p.maturity),
    "kappa": lambda p, payoff: drift_sensitivity(p, payoff, "kappa"),
    "reversion": lambda p, payoff: drift_sensitivity(p, payoff, "reversion_speed"),
}


def _rows_for_size(rc: RunConfig, n_paths: int, tokens) -> list[dict]:
    """One row per token at ``n_paths``; ``n_sims`` counts the simulations
    each row ran.  The weighted paths go after the last ``malliavin:`` row,
    so the finite-difference rows after it never simulate beside them."""
    sim = replace(rc.sim, n_paths=n_paths)
    weighted = {g for m, g in tokens if m == "malliavin"}
    # bismut_vector, which gives vega_v0 and rho_r0, estimates delta too.
    if weighted & {"vega_v0", "rho_r0"}:
        weighted.add("delta")
    reads = {name for g in weighted for name in _GREEKS[g].reads}
    last_weighted = max((i for i, (m, _) in enumerate(tokens) if m == "malliavin"),
                        default=None)
    clock = rc.timing == "clock"
    paths = bismut = None
    rows = []
    for i, (method, greek) in enumerate(tokens):
        started = time.perf_counter() if clock else 0.0
        n_sims = 0
        if method == "malliavin":
            if paths is None:
                paths, n_sims = simulate_paths(rc.model, rc.init, sim, weights=reads), 1
            if greek in ("vega_v0", "rho_r0"):
                bismut = bismut or bismut_vector(paths, rc.payoff)
                est = bismut[1 if greek == "vega_v0" else 2]
            else:
                est = _ESTIMATORS[greek](paths, rc.payoff)
        elif method == "fd":
            est = fd_greek(rc.model, rc.init, sim, rc.payoff, rc.bumps[greek])
            n_sims = 2  # base/bumped pair, or the two one-sided bumps
        else:
            closed = bs_closed_form(rc.init.s0, rc.payoff.strike, rc.init.r0,
                                    rc.model.sigma, sim.maturity,
                                    level=rc.payoff.level)
            est = GreekEstimate(getattr(closed, _GREEKS[greek].closed_form[rc.payoff.kind]),
                                0.0, n_paths, "analytic")
        wall_ms = (time.perf_counter() - started) * 1000.0 if clock else 0.0
        if i == last_weighted:
            paths = bismut = None  # the estimates made from them stay valid
        rows.append({
            "estimator": est.estimator,
            "greek": greek,
            "n_paths": n_paths,
            "n_steps": sim.n_steps,
            "seed": sim.seed,
            "value": float(est.value),
            "std_error": float(est.std_error),
            "clamp_count": int(est.clamp_count),
            "wall_time_ms": wall_ms,
            "n_sims": n_sims,
            "_estimate": est,
        })
    return rows


def compare(config: RunConfig) -> list[dict]:
    """Weighted-versus-finite-difference comparison records.

    Every non-weighted row carries an ``agree`` flag: true when its value is
    within three combined standard errors of the weighted estimate of the
    same Greek.  ``n_sims`` counts the simulations each row needed, which is
    how the cost comparison is made machine-checkable.
    """
    weighted = {g for m, g in config.estimators if m == "malliavin"}
    if not weighted & {g for m, g in config.estimators if m == "fd"}:
        raise InvalidConfig(
            "estimators",
            "compare needs a malliavin and an fd estimator for the same "
            "greek; got " + ",".join(f"{m}:{g}" for m, g in config.estimators))

    rows = _rows_for_size(config, config.sim.n_paths, config.estimators)
    reference = {r["greek"]: r["_estimate"] for r in rows if r["estimator"] == "malliavin"}
    for row in rows:
        ref = reference.get(row["greek"])
        row["agree"] = (None if row["estimator"] == "malliavin" or ref is None
                        else agrees(ref, row["_estimate"]))
    return rows


def _comparison_table(records) -> str:
    header = (f"{'greek':<10} {'n_paths':>8} {'estimator':<12} "
              f"{'value':>16} {'std_error':>13} {'agree':<5} "
              f"{'wall_ms':>10} {'n_sims':>6} {'clamps':>10}")
    lines = [header, "-" * len(header)]
    for r in records:
        agree = "-" if r["agree"] is None else ("yes" if r["agree"] else "NO")
        lines.append(
            f"{r['greek']:<10} {r['n_paths']:>8} {r['estimator']:<12} "
            f"{r['value']:>16.10g} {r['std_error']:>13.6g} {agree:<5} "
            f"{r['wall_time_ms']:>10.3f} {r['n_sims']:>6} {r['clamp_count']:>10}")
    return "\n".join(lines) + "\n"


def _render_rows(rows, output_format: str) -> str:
    if output_format == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(",".join(
                _fmt(r[f]) if f in ("value", "std_error", "wall_time_ms")
                else str(r[f]) for f in _ROW_FIELDS))
        return "\n".join(lines) + "\n"
    return "".join(
        json.dumps({f: r[f] for f in _ROW_FIELDS}) + "\n" for r in rows)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsv-greeks",
        description="Monte Carlo option Greeks via Malliavin weights under a "
                    "hybrid stochastic-volatility, stochastic-rate model.")
    commands = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "price": "discounted payoff mean at the configured path count",
        "greeks": "all requested estimators at the configured path count",
        "converge": "all requested estimators at each sweep size",
        "compare": "weighted estimators versus finite differences",
        "dump-config": "print the fully resolved configuration",
    }
    for name, text in descriptions.items():
        sub = commands.add_parser(name, help=text, description=text)
        sub.add_argument("--config", metavar="PATH",
                         help="key=value configuration file")
        sub.add_argument("--seed", type=int, metavar="U64",
                         help="override sim.seed")
        sub.add_argument("--paths", type=int, metavar="N",
                         help="override sim.n_paths")
        sub.add_argument("--steps", type=int, metavar="N",
                         help="override sim.n_steps")
        sub.add_argument("--out", metavar="PATH",
                         help="write output here instead of stdout")
        sub.add_argument("--format", choices=("csv", "json-lines"),
                         help="override output.format")
    return parser


def _gather_entries(args) -> dict[str, str]:
    entries: dict[str, str] = {}
    if args.config is not None:
        entries.update(load_config_file(args.config))
    if args.seed is not None:
        entries["sim.seed"] = str(args.seed)
    if args.paths is not None:
        entries["sim.n_paths"] = str(args.paths)
    if args.steps is not None:
        entries["sim.n_steps"] = str(args.steps)
    if args.out is not None and args.command != "dump-config":
        entries["output.path"] = args.out
    if args.format is not None:
        entries["output.format"] = args.format
    return entries


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and bad flags
        return int(exc.code or 0)

    try:
        entries = _gather_entries(args)
        config = build_run_config(entries)

        if args.command == "dump-config":
            _write_text(effective_config_text(config), args.out)
            return 0

        if args.command == "price":
            rows = _rows_for_size(config, config.sim.n_paths,
                                  (("malliavin", "price"),))
        elif args.command == "greeks":
            rows = _rows_for_size(config, config.sim.n_paths, config.estimators)
        elif args.command == "converge":
            rows = [row for n in config.sweep
                    for row in _rows_for_size(config, n, config.estimators)]
        else:  # compare
            records = compare(config)
            sys.stdout.write(_comparison_table(records))
            if config.output_path is not None:
                _write_text(_render_rows(records, config.output_format),
                            config.output_path)
            return 0

        _write_text(_render_rows(rows, config.output_format),
                    config.output_path)
        return 0
    except (NumericalBlowup, NonFiniteEstimate) as exc:
        print(f"hsv-greeks: numerical failure: {exc}", file=sys.stderr)
        return 3
    except HsvGreeksError as exc:
        print(f"hsv-greeks: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hsv-greeks: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
