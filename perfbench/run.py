"""Benchmark for hsv_greeks: end-to-end metrics per workload, and per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload converge_sweep --seed 12345 \\
        --seconds 35 --trace 0

Run it from the root of a source tree (it imports ``src/hsv_greeks``).
Every workload run happens in a fresh child interpreter.  For ``--seconds``
seconds the benchmark repeats the workload, at least twice; before that it
times set-up alone in a few more fresh interpreters.  Every run's output is checked.
With ``--trace 1`` one traced run follows the untraced ones and the
per-layer metrics come from it.  ``--workload all`` runs every workload
that way and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Run records, outputs and configs are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
# Fresh interpreters that only set up, on top of the one in every run.
SETUP_PROBES = 5
# Untraced runs made even when one run outlasts --seconds.
MIN_RUNS = 2
# Every child is stopped by then, so a run ends inside its 180 s.
DEADLINE_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rel_se": "ratio",
}

# Per-layer metrics reported in the result line.  ``baselines.fd_s`` and
# ``cli.self_s`` are printed but left out: they are exactly 0 on workloads
# that never enter those layers.
PER_LAYER = {
    "hsv_greeks.import_s": "s",
    "config.build_s": "s",
    "engine.draws_s": "s",
    "engine.draws_calls": "count",
    "engine.normals_drawn": "count",
    "engine.draw_mb_computed": "MiB",
    "engine.simulate_s": "s",
    "engine.simulate_calls": "count",
    "engine.path_steps": "count",
    "engine.step_loop_s": "s",
    "engine.step_rate": "1/s",
    "engine.threads_used": "count",
    "engine.reduce_s": "s",
    "engine.reduce_calls": "count",
    "greeks.estimator_s": "s",
    "greeks.estimator_calls": "count",
    "greeks.reductions_per_estimate": "ratio",
    "models.payoff_s": "s",
    "models.payoff_calls": "count",
    "baselines.fd_sims": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class Runner:
    """Starts child runs of one workload and keeps what they report."""

    def __init__(self, name: str, seed: int):
        self.deadline = time.monotonic() + DEADLINE_S
        self.name = name
        self.seed = seed
        self.out_dir = (OUT_DIR / name).resolve()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_dir / "run.cfg"
        self.config_path.write_text(
            config_text(WORKLOADS[name].config_entries(seed)), encoding="utf-8")
        self.env = dict(os.environ)
        # sim.workers stays at the config default, whatever the caller's env.
        self.env.pop("HSV_GREEKS_WORKERS", None)
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.runs: list[dict] = []
        self.setups: list[float] = []
        self.errors: list[str] = []
        self.reference_sha: str | None = None

    def child(self, trace: bool = False, setup_only: bool = False) -> dict | None:
        spec = {"workload": self.name, "seed": self.seed,
                "config_path": str(self.config_path),
                "out_dir": str(self.out_dir),
                "trace": trace, "setup_only": setup_only}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.errors.append(f"child still running after {DEADLINE_S} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.errors.append(f"child exited {proc.returncode}: {tail[0]}")
            return None
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if not trace:
            self.setups.append(record["setup_s"])
        return record

    def run(self, trace: bool = False) -> dict | None:
        """One checked workload run; returns its record, or None if it
        failed (non-zero exit, exception, failed check, changed bytes)."""
        record = self.child(trace=trace)
        if record is None:
            return None
        if self.reference_sha is None:
            self.reference_sha = record["output_sha256"]
        elif record["output_sha256"] != self.reference_sha:
            record["failed_checks"].append(
                "output bytes differ from the first run of this invocation")
        if record["failed_checks"]:
            self.errors += record["failed_checks"]
            return None
        return record


def _git_revision() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_revision": _git_revision(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then untraced runs for ``seconds``, then (with
    ``trace``) one traced run.  Returns everything the report needs."""
    runner = Runner(name, seed)
    for _ in range(SETUP_PROBES):
        if runner.child(setup_only=True) is None:
            raise SystemExit(f"perfbench: {name} set-up failed: "
                             f"{runner.errors[-1]}")
    attempted = 0
    durations = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        record = runner.run()
        durations.append(time.perf_counter() - t0)
        attempted += 1
        if record is not None:
            runner.runs.append(record)
        elapsed = time.perf_counter() - started
        if (attempted >= MIN_RUNS
                and elapsed + statistics.median(durations) > seconds):
            break
    traced = None
    if trace:
        attempted += 1
        traced = runner.run(trace=True)
    ok = runner.runs + ([traced] if traced else [])
    if not ok:
        raise SystemExit(f"perfbench: every {name} run failed: {runner.errors[-1]}")
    first = ok[0]
    return {
        "workload": name, "seed": seed, "attempted": attempted,
        "failed": attempted - len(ok), "errors": runner.errors,
        "runs": runner.runs, "setups": runner.setups, "traced": traced,
        "output_sha256": runner.reference_sha,
        "sim_workers": first["sim_workers"], "worker_hint": first["worker_hint"],
        "fd_agree_ratio": first["fd_agree_ratio"],
    }


def end_to_end(m: dict) -> dict[str, float]:
    runs = m["runs"] or [m["traced"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        # Deterministic for fixed output bytes; every run has the same bytes.
        "rel_se": runs[0]["rel_se"],
    }


def per_layer(m: dict) -> dict[str, float] | None:
    traced = m["traced"]
    if traced is None:
        return None
    layers = dict(traced["layers"])
    layers["trace.coverage"] = traced["covered_s"] / traced["wall_s"]
    untraced = [r["wall_s"] for r in m["runs"]]
    layers["trace.overhead_s"] = (
        traced["wall_s"] - statistics.median(untraced) if untraced else 0.0)
    return layers


def report(m: dict, env: dict) -> str:
    """Human-readable report: every end-to-end metric by name, with units,
    plus the per-layer split when a traced run was made."""
    e2e = end_to_end(m)
    runs = m["runs"] or [m["traced"]]
    walls = [r["wall_s"] for r in runs]
    agree = ("n/a (no FD rows)" if m["fd_agree_ratio"] is None
             else f"{m['fd_agree_ratio']:.4g}")
    lines = [
        f"== {m['workload']}  seed {m['seed']}  runs {m['attempted']}  "
        f"failed {m['failed']}",
        f"   nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}"
        f"  scipy {env['scipy']}  rev {env['git_revision']}",
        f"   sim.workers={m['sim_workers']} (worker_hint {m['worker_hint']})"
        f"  output_sha256 {m['output_sha256']}",
        f"   {'wall_s':<16}{e2e['wall_s']:>12.4f} s    median of {len(walls)},"
        f" min {min(walls):.4f} max {max(walls):.4f}",
        f"   {'setup_s':<16}{e2e['setup_s']:>12.4f} s    median of "
        f"{len(m['setups'])} fresh interpreters",
    ]
    rss = f"   {'peak_rss_mb':<16}{e2e['peak_rss_mb']:>12.1f} MiB"
    layers = per_layer(m)
    if layers is not None:
        rss += (f"  draw volume (computed, normals x 8 B): "
                f"{layers['engine.draw_mb_computed']:.1f} MiB")
    lines += [
        rss,
        f"   {'fail_ratio':<16}{m['failed'] / m['attempted']:>12.4f} ratio"
        f"  ({m['failed']} of {m['attempted']} runs)",
        f"   {'rel_se':<16}{e2e['rel_se']:>12.6f} ratio",
        f"   {'fd_agree_ratio':<16}{agree:>12} ratio",
    ]
    lines += [f"   ! {err}" for err in dict.fromkeys(m["errors"])]
    if layers is not None:
        traced = m["traced"]
        lines.append(f"   traced run: wall_s {traced['wall_s']:.4f} s, "
                     f"overhead {layers['trace.overhead_s']:+.4f} s, layer "
                     f"self times cover {layers['trace.coverage']:.2%} of it")
        lines += [f"   {k:<34}{v:>16.6g}" for k, v in layers.items()
                  if not k.startswith("trace.")]
    return "\n".join(lines)


def result_line(m: dict, trace: bool) -> str:
    if trace:
        values, units = per_layer(m), PER_LAYER
    else:
        values, units = end_to_end(m), END_TO_END
    return json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    })


def _seed(text: str) -> int:
    seed = int(text, 10)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=_seed, default=12345)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "hsv_greeks" / "__init__.py").is_file():
        print("perfbench: src/hsv_greeks not found; run from the root of a "
              "source tree", file=sys.stderr)
        return 2

    env = environment()
    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            m = measure(name, args.seed, args.seconds, trace=True)
            print(report(m, env), flush=True)
            results[name] = {"end_to_end": end_to_end(m),
                             "per_layer": per_layer(m),
                             "fail_ratio": m["failed"] / m["attempted"],
                             "fd_agree_ratio": m["fd_agree_ratio"],
                             "output_sha256": m["output_sha256"]}
        print(json.dumps({"environment": env, "workloads": results}))
        return 0

    m = measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    (OUT_DIR / args.workload / "result.json").write_text(
        json.dumps({"environment": env, **m}, indent=1), encoding="utf-8")
    print(report(m, env))
    print(result_line(m, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
