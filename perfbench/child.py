"""One benchmark run in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, config file, output directory, whether
to trace, and whether to stop after set-up.  The child times
``import hsv_greeks`` plus ``build_run_config`` (set-up), then the
workload's entry point up to its output being written (wall), checks the
output, and prints one JSON record as its last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer, covered_s, layer_metrics
from workloads import WORKLOADS, agree_flags


def run_once(name: str, seed: int, config_path: Path, out_dir: Path,
             trace: bool = False, setup_only: bool = False) -> dict:
    """Set up and run workload ``name``; returns the run's record."""
    workload = WORKLOADS[name]
    entries = workload.config_entries(seed)
    started = time.perf_counter()
    import hsv_greeks
    imported = time.perf_counter()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        config = hsv_greeks.build_run_config(entries)
        set_up = time.perf_counter()
        record = {"import_s": imported - started, "setup_s": set_up - started}
        if setup_only:
            return record
        wall_start = time.perf_counter()
        outputs = workload.run(config, config_path, out_dir)
        wall_s = time.perf_counter() - wall_start
    finally:
        if tracer is not None:
            tracer.restore()

    flags = agree_flags(outputs.stdout_text)
    estimates = outputs.csv_text.count("\n") - 1
    record.update(
        wall_s=wall_s,
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        output_sha256=hashlib.sha256(outputs.blob()).hexdigest(),
        failed_checks=workload.check(outputs, config),
        rel_se=workload.rel_se(outputs),
        fd_agree_ratio=flags.count("yes") / len(flags) if flags else None,
        estimates=estimates,
        sim_workers=config.entries["sim.workers"],
        worker_hint=config.sim.worker_hint,
    )
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, estimates)
        record["layers"]["hsv_greeks.import_s"] = record["import_s"]
        record["covered_s"] = covered_s(tracer.spans, wall_start)
    return record


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    record = run_once(spec["workload"], spec["seed"], Path(spec["config_path"]),
                      Path(spec["out_dir"]), spec["trace"], spec["setup_only"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
