"""Span tracer that wraps the package's layer functions from outside.

The tracer replaces every module binding of a traced function with a
wrapper that records one span per call: name, layer, start, end, parent
span and thread.  ``cli``, ``baselines`` and ``greeks`` import functions by
name (``from .engine import simulate_paths``), so every binding that *is*
the original function is replaced, not only the defining module's.  Spans
stay in memory; :func:`layer_metrics` turns them into per-layer self times
and counts once the run is over.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function) -> layer.  These are the functions whose self time
# makes up a run: the CLI front end, config build, the three engine stages,
# the weighted estimators, payoff evaluation and the FD baseline.
TRACED = {
    ("hsv_greeks.cli", "main"): "cli",
    ("hsv_greeks.config", "build_run_config"): "config.build",
    ("hsv_greeks.engine", "standard_draws"): "engine.draws",
    ("hsv_greeks.engine", "simulate_paths"): "engine.simulate",
    ("hsv_greeks.engine", "stable_mean_se"): "engine.reduce",
    ("hsv_greeks.greeks", "price"): "greeks.estimator",
    ("hsv_greeks.greeks", "delta"): "greeks.estimator",
    ("hsv_greeks.greeks", "rho"): "greeks.estimator",
    ("hsv_greeks.greeks", "vega"): "greeks.estimator",
    ("hsv_greeks.greeks", "bismut_vector"): "greeks.estimator",
    ("hsv_greeks.greeks", "drift_sensitivity"): "greeks.estimator",
    ("hsv_greeks.models", "evaluate_payoff"): "models.payoff",
    ("hsv_greeks.baselines", "fd_greek"): "baselines.fd",
}


def _draw_work(args) -> dict:
    return {"normals": args["n_paths"] * args["n_steps"] * 3}


def _simulate_work(args) -> dict:
    cfg = args["cfg"]
    return {"path_steps": cfg.n_paths * cfg.n_steps}


# Work counted at the boundary, from the call's own arguments.
_WORK = {"engine.draws": _draw_work, "engine.simulate": _simulate_work}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    thread: int
    parent: int | None
    end: float = 0.0
    work: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the functions in :data:`TRACED` while installed.

    Use as a context manager: entering replaces the bindings, leaving
    restores the originals.  A span opened on a thread with no open span of
    its own (a pool thread drawing for a block) is linked to the most
    recently opened ``simulate_paths`` span that is still running.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_sims: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hsv_greeks"
                                         or name.startswith("hsv_greeks."))]
        for (module_name, attr), layer in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, f"{module_name}.{attr}", layer)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn)
        work_of = _WORK.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            work = {}
            if work_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = work_of(bound.arguments)
            with self._lock:
                if stack:
                    parent = stack[-1]
                else:
                    parent = self._open_sims[-1] if self._open_sims else None
                index = len(self.spans)
                span = Span(name, layer, 0.0, threading.get_ident(), parent,
                            work=work)
                self.spans.append(span)
                if layer == "engine.simulate":
                    self._open_sims.append(index)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if layer == "engine.simulate":
                    with self._lock:
                        self._open_sims.remove(index)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children on other threads may overlap each other, so the covered part
    is the length of the union of the children's intervals.
    """
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _has_ancestor(spans: list[Span], span: Span, layer: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], estimates: int) -> dict[str, float]:
    """Per-layer self times and counts from one traced run.

    ``estimates`` is the number of estimate rows the workload delivered; it
    is the base of ``greeks.reductions_per_estimate``.
    """
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, t in zip(spans, own):
        self_s[span.layer] = self_s.get(span.layer, 0.0) + t
        calls[span.layer] = calls.get(span.layer, 0) + 1

    sims = [i for i, s in enumerate(spans) if s.layer == "engine.simulate"]
    draws = [s for s in spans if s.layer == "engine.draws"]
    threads_per_sim = {i: set() for i in sims}
    for d in draws:
        if d.parent in threads_per_sim:
            threads_per_sim[d.parent].add(d.thread)
    path_steps = sum(spans[i].work["path_steps"] for i in sims)
    normals = sum(d.work["normals"] for d in draws)
    step_loop_s = self_s.get("engine.simulate", 0.0)
    reduce_calls = calls.get("engine.reduce", 0)
    return {
        "config.build_s": self_s.get("config.build", 0.0),
        "engine.draws_s": self_s.get("engine.draws", 0.0),
        "engine.draws_calls": len(draws),
        "engine.normals_drawn": normals,
        "engine.draw_mb_computed": normals * 8 / 2**20,
        "engine.simulate_s": sum(spans[i].end - spans[i].start for i in sims),
        "engine.simulate_calls": len(sims),
        "engine.path_steps": path_steps,
        "engine.step_loop_s": step_loop_s,
        "engine.step_rate": path_steps / step_loop_s if step_loop_s > 0 else 0.0,
        "engine.threads_used": max((len(t) for t in threads_per_sim.values()),
                                   default=0),
        "engine.reduce_s": self_s.get("engine.reduce", 0.0),
        "engine.reduce_calls": reduce_calls,
        "greeks.estimator_s": self_s.get("greeks.estimator", 0.0),
        "greeks.estimator_calls": calls.get("greeks.estimator", 0),
        "greeks.reductions_per_estimate": reduce_calls / estimates if estimates else 0.0,
        "models.payoff_s": self_s.get("models.payoff", 0.0),
        "models.payoff_calls": calls.get("models.payoff", 0),
        "baselines.fd_s": self_s.get("baselines.fd", 0.0),
        "baselines.fd_sims": sum(1 for i in sims
                                 if _has_ancestor(spans, spans[i], "baselines.fd")),
        "cli.self_s": self_s.get("cli", 0.0),
    }


def covered_s(spans: list[Span], since: float) -> float:
    """Total self time of the spans opened at or after ``since``: the part
    of a timed region that the traced layers account for."""
    return sum(t for s, t in zip(spans, self_times(spans)) if s.start >= since)
