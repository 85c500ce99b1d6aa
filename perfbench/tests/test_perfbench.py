"""Tests for the benchmark's tracer, workload runner and output checks.

They run the workloads on tiny configs, so they assert on counts and
checks, never on time.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

# The benchmark's modules and the package source, so the tests run with or
# without PYTHONPATH=src.  (No conftest.py here: the package's own tests
# import theirs as the top-level module ``conftest``.)
_BENCH = Path(__file__).resolve().parents[1]
for _path in (_BENCH.parent / "src", _BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import hsv_greeks  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

# Two engine blocks: the engine simulates in blocks of 16,384 paths.
TWO_BLOCKS = "16385"
STEPS = 2


def _hsv_modules():
    return [m for name, m in sys.modules.items()
            if name == "hsv_greeks" or name.startswith("hsv_greeks.")]


def _run_tiny(monkeypatch, tmp_path, name, entries, trace):
    """run_once on workload ``name`` with ``entries`` in place of its own."""
    small = replace(WORKLOADS[name], entries=entries)
    monkeypatch.setitem(WORKLOADS, name, small)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(config_text(small.config_entries(7)))
    return child.run_once(name, 7, config_path, tmp_path, trace=trace)


def _tiny_compare(workers="auto"):
    return {"sim.n_paths": TWO_BLOCKS, "sim.n_steps": str(STEPS),
            "sim.workers": workers,
            "estimators": "malliavin:delta,malliavin:vega,fd:delta,fd:vega"}


def test_tracer_wraps_every_binding_and_restores():
    import hsv_greeks.cli  # noqa: F401  (cli is not imported by the package)

    named = [(hsv_greeks.cli, "simulate_paths"),
             (hsv_greeks.baselines, "simulate_paths"),
             (hsv_greeks.engine, "simulate_paths"),
             (hsv_greeks, "simulate_paths"),
             (hsv_greeks.greeks, "stable_mean_se"),
             (hsv_greeks.baselines, "stable_mean_se"),
             (hsv_greeks.greeks, "evaluate_payoff"),
             (hsv_greeks.cli, "build_run_config"),
             (hsv_greeks.cli, "fd_greek"),
             (hsv_greeks.cli, "delta")]
    before = {(m, n): getattr(m, n) for m, n in named}
    originals = {id(getattr(sys.modules[m], f)) for m, f in tracing.TRACED}

    with Tracer():
        for (module, attr), original in before.items():
            wrapper = getattr(module, attr)
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
        left = [(m.__name__, k) for m in _hsv_modules()
                for k, v in vars(m).items() if id(v) in originals]
        assert left == []

    for (module, attr), original in before.items():
        assert getattr(module, attr) is original


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    record = _run_tiny(monkeypatch, tmp_path, "compare_fd", _tiny_compare(),
                       trace=False)
    assert "layers" not in record
    assert record["estimates"] == 4


def test_counts_on_two_block_compare_are_exact(monkeypatch, tmp_path):
    record = _run_tiny(monkeypatch, tmp_path, "compare_fd", _tiny_compare(),
                       trace=True)
    layers = record["layers"]
    n = int(TWO_BLOCKS)
    # One weighted simulation plus a bumped pair per FD Greek, two blocks
    # each, one single-threaded draw call per block.
    assert layers["engine.simulate_calls"] == 5
    assert layers["engine.draws_calls"] == 10
    assert layers["engine.threads_used"] == 1
    assert layers["baselines.fd_sims"] == 4
    assert layers["engine.path_steps"] == 5 * n * STEPS
    assert layers["engine.normals_drawn"] == 5 * n * STEPS * 3
    assert layers["engine.reduce_calls"] == 4
    assert layers["greeks.reductions_per_estimate"] == 1.0
    reported = set(run.PER_LAYER) - {"trace.coverage", "trace.overhead_s"}
    assert reported <= set(layers)


def test_pool_thread_draws_link_to_their_simulation(monkeypatch, tmp_path):
    tracer = Tracer()
    monkeypatch.setattr(child, "Tracer", lambda: tracer)
    record = _run_tiny(monkeypatch, tmp_path, "compare_fd",
                       _tiny_compare(workers="2"), trace=True)
    draws = [s for s in tracer.spans if s.layer == "engine.draws"]
    assert len(draws) == 10
    assert all(tracer.spans[d.parent].layer == "engine.simulate" for d in draws)
    assert 1 <= record["layers"]["engine.threads_used"] <= 2


def test_counts_follow_the_converge_config(monkeypatch, tmp_path):
    entries = {"sweep": "16,64", "sim.n_steps": str(STEPS),
               "estimators": workloads.ALL_MALLIAVIN}
    layers = _run_tiny(monkeypatch, tmp_path, "converge_sweep", entries,
                       trace=True)["layers"]
    assert layers["engine.simulate_calls"] == 2
    assert layers["engine.path_steps"] == (16 + 64) * STEPS
    # Per size: 8 estimates, 9 reductions (bismut_vector recomputes delta).
    assert layers["engine.reduce_calls"] == 2 * 9
    assert layers["greeks.reductions_per_estimate"] == 9 / 8


def test_ladder_counts_and_checks(monkeypatch, tmp_path):
    entries = {"sim.n_paths": "64", "sim.n_steps": str(STEPS)}
    record = _run_tiny(monkeypatch, tmp_path, "strike_ladder", entries,
                       trace=True)
    layers = record["layers"]
    assert record["failed_checks"] == []
    assert record["estimates"] == 984
    assert layers["engine.simulate_calls"] == 1
    assert layers["engine.reduce_calls"] == 1107
    assert layers["models.payoff_calls"] == 984
    assert layers["cli.self_s"] == 0.0


def test_ladder_check_catches_a_broken_rho_identity(monkeypatch, tmp_path):
    entries = {"sim.n_paths": "64", "sim.n_steps": str(STEPS)}
    _run_tiny(monkeypatch, tmp_path, "strike_ladder", entries, trace=False)
    text = (tmp_path / "output.csv").read_text()
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if ",rho," in line)
    kind, strike, greek, value, se = lines[i].split(",")
    lines[i] = ",".join([kind, strike, greek, repr(float(value) * 1.001), se])
    config = hsv_greeks.build_run_config(WORKLOADS["strike_ladder"].config_entries(7))
    failed = WORKLOADS["strike_ladder"].check(
        workloads.Outputs("\n".join(lines) + "\n"), config)
    assert len(failed) == 1 and f"K={strike}" in failed[0]


def test_compare_check_reads_the_agree_column():
    table = (
        "greek         n_paths estimator               value     std_error "
        "agree    wall_ms n_sims\n"
        "-----\n"
        "delta           32768 malliavin        0.6101209468     0.0165947 "
        "-          0.000      1\n"
        "delta           32768 fd_central       0.5926341106    0.00321279 "
        "yes        0.000      2\n"
        "vega            32768 fd_central        39.44450148      0.41547 "
        "NO         0.000      2\n")
    csv_text = ("estimator,greek,n_paths,n_steps,seed,value,std_error,"
                "clamp_count,wall_time_ms\n"
                "fd_central,delta,32768,252,7,0.59,0.0032,0,0.0\n")
    assert workloads.agree_flags(table) == ["yes", "NO"]
    failed = WORKLOADS["compare_fd"].check(workloads.Outputs(csv_text, table),
                                           None)
    assert failed == ["FD row 1 disagrees with its weighted estimate"]


def test_self_time_subtracts_the_union_of_children():
    parent = Span("sim", "engine.simulate", 0.0, 1, None, end=10.0)
    # Two pool threads whose draws overlap in [3, 5].
    a = Span("draw", "engine.draws", 1.0, 2, 0, end=5.0)
    b = Span("draw", "engine.draws", 3.0, 3, 0, end=7.0)
    assert self_times([parent, a, b]) == [4.0, 4.0, 4.0]


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_result_line_has_the_required_keys(monkeypatch, tmp_path):
    record = _run_tiny(monkeypatch, tmp_path, "compare_fd", _tiny_compare(),
                       trace=True)
    m = {"attempted": 2, "failed": 0, "runs": [record], "setups": [0.5, 0.4],
         "traced": record}
    for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        line = json.loads(run.result_line(m, trace))
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert list(line["metrics"]) == list(names)
        assert line["correct"] is True
