"""The public API: what ``hsv_greeks`` exports, and what its users call."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path


import hsv_greeks as hg

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # baselines
    "BsClosedForm", "BumpSpec", "agrees", "bs_closed_form",
    "default_bump_size", "fd_greek",
    # config
    "RunConfig", "build_run_config", "effective_config_text", "load_config_file",
    # engine
    "PathAccumulators", "SimConfig", "simulate_paths", "stable_mean_se",
    # errors
    "DegenerateWeightWarning", "HsvGreeksError", "InvalidConfig", "InvalidParams",
    "NonFiniteEstimate", "NonPositiveSemiDefinite", "NumericalBlowup",
    "UnsupportedModel",
    # greeks
    "GreekEstimate", "bismut_vector", "delta", "drift_sensitivity", "price",
    "rho", "vega",
    # models
    "CorrelationTriple", "HestonVasicekParams", "InitialState", "ModelSpec",
    "Payoff", "black_scholes_degenerate", "evaluate_payoff", "heston_vasicek_model",
}


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(hg).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_every_name_in_a_module_all_exists():
    """Each module's ``__all__`` names objects of the module that the
    package exports as they are, and together the lists are the public
    names."""
    missing, listed = {}, set()
    for info in pkgutil.iter_modules(hg.__path__):
        module = importlib.import_module(f"hsv_greeks.{info.name}")
        names = getattr(module, "__all__", ())
        listed.update(names)
        if bad := [n for n in names
                   if not (hasattr(module, n) and getattr(hg, n, None) is getattr(module, n))]:
            missing[info.name] = bad
    assert missing == {}
    assert listed == PUBLIC


def test_every_name_the_demos_and_the_benchmark_call_exists():
    """Each ``hg.<name>`` in demos/*.py and perfbench/workloads.py."""
    missing = {}
    for script in [*ROOT.glob("demos/*.py"), ROOT / "perfbench" / "workloads.py"]:
        tree = ast.parse(script.read_text(encoding="utf-8"))
        used = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "hg"}
        assert used, script
        if used - set(dir(hg)):
            missing[script.name] = sorted(used - set(dir(hg)))
    assert missing == {}


def test_the_package_imports_no_scipy():
    """scipy is a test dependency only: importing the package and its
    command line in a fresh interpreter loads no ``scipy`` module, whose
    import would cost every run about 0.3 s and 20 MiB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, hsv_greeks, hsv_greeks.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
