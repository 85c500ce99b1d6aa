"""Run configuration: flat ``key=value`` text with dotted section names.

The format is deliberately primitive -- one ``section.key=value`` entry per
line, ``#`` comments, no nesting -- so that configs diff cleanly and need no
parser dependency.  ``build_run_config`` merges user entries over the default
table, validates every key, and materialises the model, initial state, payoff
and simulation settings into a :class:`RunConfig`.  ``effective_config_text``
emits the fully resolved entries in canonical order; parsing that text back
reproduces the identical RunConfig, which is what makes rerun-from-dump
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .baselines import FD_SCHEMES, BumpSpec, default_bump_size
from .errors import InvalidConfig, InvalidParams
from .models import (
    PAYOFF_KINDS,
    CorrelationTriple,
    HestonVasicekParams,
    InitialState,
    ModelSpec,
    Payoff,
    black_scholes_degenerate,
    heston_vasicek_model,
)
from .engine import SimConfig
from .greeks import _GREEKS

MODEL_NAMES = ("heston_vasicek", "black_scholes")

ESTIMATOR_METHODS = ("malliavin", "fd", "analytic")

# SimConfig field -> the config key that sets it, where the two differ.
_SIM_KEYS = {"worker_hint": "sim.workers"}

_COMMON_DEFAULTS = {
    "payoff.kind": "call",
    "payoff.strike": "100.0",
    "payoff.level": "1.0",
    "sim.n_paths": "10000",
    "sim.n_steps": "252",
    "sim.maturity": "1.0",
    "sim.seed": "12345",
    "sim.variance_floor": "0.0",
    "sim.sigma_floor": "1e-08",
    "sim.workers": "auto",
    "estimators": "malliavin:delta,malliavin:rho,malliavin:vega",
    "sweep": "250,500,1000,2000,5000,10000",
    "output.path": "",
    "output.format": "csv",
    "output.timing": "off",
}

_HV_DEFAULTS = {
    "model.name": "heston_vasicek",
    "model.kappa": "2.0",
    "model.theta": "0.04",
    "model.sigma_vol": "0.04",
    "model.a": "0.02",
    "model.b": "0.08",
    "model.k": "0.002",
    "model.rho12": "-0.8",
    "model.rho13": "0.5",
    "model.rho23": "0.02",
    "model.positivity": "strict",
    "model.enforce_positivity": "on",
    "init.s0": "100.0",
    "init.v0": "0.04",
    "init.r0": "0.02",
}

_BS_DEFAULTS = {
    "model.name": "black_scholes",
    "model.sigma": "0.2",
    "init.s0": "100.0",
    "init.v0": "0.04",
    "init.r0": "0.05",
}

#: The documented default configuration (hybrid model, 10^4 paths, 252 steps).
DEFAULTS = {**_HV_DEFAULTS, **_COMMON_DEFAULTS}


def defaults_for(model_name: str) -> dict[str, str]:
    """Default entry table for ``model_name`` (ordered canonically)."""
    if model_name == "black_scholes":
        return {**_BS_DEFAULTS, **_COMMON_DEFAULTS}
    if model_name == "heston_vasicek":
        return {**_HV_DEFAULTS, **_COMMON_DEFAULTS}
    raise InvalidConfig("model.name", f"unknown model {model_name!r}; "
                        f"expected one of {MODEL_NAMES}")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: model, state, payoff, simulation, outputs.

    ``estimators`` holds ``(method, greek)`` pairs in request order; ``bumps``
    maps each finite-difference Greek to its resolved :class:`BumpSpec`.
    ``entries`` is the canonical key->string table the config round-trips
    through.
    """

    model: ModelSpec
    init: InitialState
    payoff: Payoff
    sim: SimConfig
    estimators: tuple[tuple[str, str], ...]
    bumps: dict[str, BumpSpec]
    sweep: tuple[int, ...]
    output_path: str | None
    output_format: str
    timing: str
    entries: dict[str, str]

    @property
    def wants_drift_extras(self) -> bool:
        """True when any requested Malliavin Greek needs the drift-derivative
        accumulators (kappa / reversion-speed sensitivities)."""
        return any(m == "malliavin" and _GREEKS[g].drift_extras
                   for m, g in self.estimators)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines into an entry dict.

    Blank lines and ``#`` comments are skipped.  Values keep interior spaces
    but are stripped at both ends.  Duplicate keys and lines without ``=``
    are rejected.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(line, f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise InvalidConfig(raw.strip(), f"line {lineno}: empty key")
        if key in entries:
            raise InvalidConfig(key, f"line {lineno}: duplicate key")
        entries[key] = value.strip()
    return entries


def load_config_file(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _as_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise InvalidConfig(key, f"expected a number, got {value!r}") from None
    if out != out or out in (float("inf"), float("-inf")):
        raise InvalidConfig(key, f"expected a finite number, got {value!r}")
    return out


def _as_int(key: str, value: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise InvalidConfig(key, f"expected an integer, got {value!r}") from None


def _as_switch(key: str, value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise InvalidConfig(key, f"expected 'on' or 'off', got {value!r}")


def _as_choice(key: str, value: str, choices) -> str:
    if value not in choices:
        raise InvalidConfig(key, f"expected one of {tuple(choices)}, got {value!r}")
    return value


def _parse_estimators(value: str) -> tuple[tuple[str, str], ...]:
    tokens = [t.strip() for t in value.split(",") if t.strip()]
    if not tokens:
        raise InvalidConfig("estimators", "at least one method:greek token required")
    pairs = []
    for token in tokens:
        method, sep, greek = token.partition(":")
        if not sep or method not in ESTIMATOR_METHODS or greek not in _GREEKS:
            raise InvalidConfig(
                "estimators",
                f"bad token {token!r}; expected method:greek with method in "
                f"{ESTIMATOR_METHODS} and greek in {tuple(_GREEKS)}")
        pair = (method, greek)
        if pair in pairs:
            raise InvalidConfig("estimators", f"duplicate token {token!r}")
        pairs.append(pair)
    return tuple(pairs)


def _parse_sweep(value: str) -> tuple[int, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise InvalidConfig("sweep", "at least one path count required")
    sizes = tuple(_as_int("sweep", p) for p in parts)
    for n in sizes:
        if n < 2:
            raise InvalidConfig("sweep", f"path counts must be >= 2, got {n}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidConfig("sweep", f"path counts must be strictly increasing, got {sizes}")
    return sizes


def _split_bump_key(key: str) -> tuple[str, str]:
    # bump.<greek>.<field>
    parts = key.split(".")
    if len(parts) != 3 or parts[2] not in ("scheme", "h", "crn"):
        raise InvalidConfig(key, "expected bump.<greek>.scheme|h|crn")
    if parts[1] not in _GREEKS or _GREEKS[parts[1]].fd_target is None:
        fd_greeks = tuple(g for g, spec in _GREEKS.items() if spec.fd_target)
        raise InvalidConfig(key, f"no finite-difference form for greek {parts[1]!r}; "
                            f"expected one of {fd_greeks}")
    return parts[1], parts[2]


def build_run_config(overrides=None) -> RunConfig:
    """Merge ``overrides`` over the defaults and validate everything.

    Raises :class:`InvalidConfig` naming the offending key on any problem,
    including estimator requests the chosen model cannot honour.
    """
    overrides = dict(overrides or {})

    model_name = overrides.get("model.name", DEFAULTS["model.name"])
    base = defaults_for(model_name)

    bump_entries: dict[str, dict[str, str]] = {}
    merged = dict(base)
    for key, value in overrides.items():
        if key.startswith("bump."):
            greek, field = _split_bump_key(key)
            bump_entries.setdefault(greek, {})[field] = value
        elif key in base:
            merged[key] = value
        else:
            raise InvalidConfig(key, f"unknown key for model {model_name!r}")

    # --- model section ---------------------------------------------------
    try:
        if model_name == "heston_vasicek":
            params = HestonVasicekParams(
                kappa=_as_float("model.kappa", merged["model.kappa"]),
                theta=_as_float("model.theta", merged["model.theta"]),
                sigma_vol=_as_float("model.sigma_vol", merged["model.sigma_vol"]),
                a=_as_float("model.a", merged["model.a"]),
                b=_as_float("model.b", merged["model.b"]),
                k=_as_float("model.k", merged["model.k"]),
            )
            correlations = CorrelationTriple(
                rho12=_as_float("model.rho12", merged["model.rho12"]),
                rho13=_as_float("model.rho13", merged["model.rho13"]),
                rho23=_as_float("model.rho23", merged["model.rho23"]),
            )
            condition = _as_choice("model.positivity", merged["model.positivity"],
                                   ("strict", "feller"))
            enforce = _as_switch("model.enforce_positivity",
                                 merged["model.enforce_positivity"])
            model = heston_vasicek_model(params, correlations,
                                         condition=condition, enforce=enforce)
        else:
            sigma = _as_float("model.sigma", merged["model.sigma"])
            rate = _as_float("init.r0", merged["init.r0"])
            model = black_scholes_degenerate(sigma, rate)
    except InvalidParams as exc:
        raise InvalidConfig("model", str(exc)) from exc

    s0 = _as_float("init.s0", merged["init.s0"])
    v0 = _as_float("init.v0", merged["init.v0"])
    r0 = _as_float("init.r0", merged["init.r0"])
    if s0 <= 0.0:
        raise InvalidConfig("init.s0", f"spot must be positive, got {s0}")
    if v0 <= 0.0:
        raise InvalidConfig("init.v0", f"variance must be positive, got {v0}")
    init = InitialState(s0=s0, v0=v0, r0=r0)

    # --- payoff ----------------------------------------------------------
    kind = _as_choice("payoff.kind", merged["payoff.kind"], PAYOFF_KINDS)
    strike = _as_float("payoff.strike", merged["payoff.strike"])
    level = _as_float("payoff.level", merged["payoff.level"])
    if kind in ("call", "put", "digital_call") and strike <= 0.0:
        raise InvalidConfig("payoff.strike",
                            f"strike must be positive for payoff kind {kind!r}")
    payoff = Payoff(kind, strike=strike, level=level)

    # --- simulation ------------------------------------------------------
    n_paths = _as_int("sim.n_paths", merged["sim.n_paths"])
    if n_paths < 2:
        raise InvalidConfig("sim.n_paths", "a standard error needs at least "
                            f"2 paths, got {n_paths}")
    n_steps = _as_int("sim.n_steps", merged["sim.n_steps"])
    maturity = _as_float("sim.maturity", merged["sim.maturity"])
    seed = _as_int("sim.seed", merged["sim.seed"])
    if not 0 <= seed < 2 ** 64:
        raise InvalidConfig("sim.seed", f"seed must fit in 64 bits, got {seed}")
    variance_floor = _as_float("sim.variance_floor", merged["sim.variance_floor"])
    sigma_floor = _as_float("sim.sigma_floor", merged["sim.sigma_floor"])
    workers_raw = merged["sim.workers"]
    workers = None if workers_raw == "auto" else _as_int("sim.workers", workers_raw)
    try:
        sim = SimConfig(n_paths=n_paths, n_steps=n_steps, maturity=maturity,
                        seed=seed, variance_floor=variance_floor,
                        sigma_floor=sigma_floor, worker_hint=workers)
    except InvalidConfig as exc:
        raise InvalidConfig(_SIM_KEYS.get(exc.key, f"sim.{exc.key}"),
                            exc.message) from exc

    # --- estimators and degeneracy rules ---------------------------------
    estimators = _parse_estimators(merged["estimators"])
    for method, greek in estimators:
        token = f"{method}:{greek}"
        spec = _GREEKS[greek]
        if spec.hybrid_only and model.degenerate:
            raise InvalidConfig(
                "estimators",
                f"{token!r} needs stochastic variance/rate dynamics; "
                "the constant-coefficient model has none")
        if method == "fd" and spec.fd_target is None:
            raise InvalidConfig("estimators",
                                f"{token!r} is not a finite-difference target; "
                                f"use 'malliavin:{greek}'")
        if method == "analytic":
            if not model.degenerate:
                raise InvalidConfig(
                    "estimators",
                    f"{token!r} has a closed form only for the "
                    "constant-coefficient model")
            if payoff.kind not in spec.closed_form:
                raise InvalidConfig(
                    "estimators",
                    f"{token!r}: no closed form for payoff kind {payoff.kind!r}")

    # --- bump specs for fd estimators ------------------------------------
    bumps: dict[str, BumpSpec] = {}
    fd_greeks = [g for m, g in estimators if m == "fd"]
    for greek in dict.fromkeys(fd_greeks + sorted(bump_entries)):
        fields = bump_entries.get(greek, {})
        scheme = _as_choice(f"bump.{greek}.scheme",
                            fields.get("scheme", "central"), FD_SCHEMES)
        target = _GREEKS[greek].fd_target
        if "h" in fields:
            h = _as_float(f"bump.{greek}.h", fields["h"])
            if h <= 0.0:
                raise InvalidConfig(f"bump.{greek}.h",
                                    f"bump size must be positive, got {h}")
        else:
            h = default_bump_size(target, init)
        crn = _as_switch(f"bump.{greek}.crn", fields.get("crn", "on"))
        bumps[greek] = BumpSpec(target, scheme=scheme, h=h, crn=crn)

    sweep = _parse_sweep(merged["sweep"])
    output_path = merged["output.path"] or None
    output_format = _as_choice("output.format", merged["output.format"],
                               ("csv", "json-lines"))
    timing = _as_choice("output.timing", merged["output.timing"], ("off", "clock"))

    # Canonical entry table: base keys in table order, then bump lines.
    entries = {}
    for key in base:
        entries[key] = _canonical_value(key, merged[key], workers)
    for greek in (g for g in _GREEKS if g in bumps):
        spec = bumps[greek]
        entries[f"bump.{greek}.scheme"] = spec.scheme
        entries[f"bump.{greek}.h"] = repr(spec.h)
        entries[f"bump.{greek}.crn"] = "on" if spec.crn else "off"

    return RunConfig(model=model, init=init, payoff=payoff, sim=sim,
                     estimators=estimators, bumps=bumps, sweep=sweep,
                     output_path=output_path, output_format=output_format,
                     timing=timing, entries=entries)


_FLOAT_KEYS = frozenset({
    "model.kappa", "model.theta", "model.sigma_vol", "model.a", "model.b",
    "model.k", "model.rho12", "model.rho13", "model.rho23", "model.sigma",
    "init.s0", "init.v0", "init.r0", "payoff.strike", "payoff.level",
    "sim.maturity", "sim.variance_floor", "sim.sigma_floor",
})

_INT_KEYS = frozenset({"sim.n_paths", "sim.n_steps", "sim.seed"})


def _canonical_value(key: str, value: str, workers) -> str:
    """Normalise an already validated entry to its canonical string form."""
    if key in _FLOAT_KEYS:
        return repr(float(value))
    if key in _INT_KEYS:
        return str(int(value, 10))
    if key == "sim.workers":
        return "auto" if workers is None else str(workers)
    if key == "estimators":
        return ",".join(f"{m}:{g}" for m, g in _parse_estimators(value))
    if key == "sweep":
        return ",".join(str(n) for n in _parse_sweep(value))
    return value


def effective_config_text(config: RunConfig) -> str:
    """Serialise the resolved configuration, one ``key=value`` per line.

    Feeding the result back through :func:`parse_config_text` and
    :func:`build_run_config` reproduces an identical run.
    """
    return "".join(f"{k}={v}\n" for k, v in config.entries.items())
