"""Run configuration: flat ``key=value`` text with dotted section names.

The format is deliberately primitive -- one ``section.key=value`` entry per
line, ``#`` comments, no nesting -- so that configs diff cleanly and need no
parser dependency.  One ordered schema per model gives each key its default
text and its parser; ``build_run_config`` parses every entry once, builds
the :class:`RunConfig` dataclasses from the typed values, and reports a
refused field under its config key.  ``effective_config_text`` emits the
canonical text of those values; parsing it back reproduces the identical
RunConfig, which is what makes rerun-from-dump byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .baselines import BumpSpec, check_bump_size, default_bump_size
from .errors import InvalidConfig, InvalidParams
from .models import (
    BlackScholesParams,
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

ESTIMATOR_METHODS = ("malliavin", "fd", "analytic")


# --- parsers: text -> typed value, ValueError(message) on bad text ---------

def _number(text: str | float) -> float:
    if isinstance(text, bool):
        raise ValueError(f"expected a number, got {text!r}")
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _integer(text: str | int) -> int:
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    try:
        return int(text, 10)
    except (TypeError, ValueError):
        raise ValueError(f"expected an integer, got {text!r}") from None


def _text(text: str) -> str:
    if not isinstance(text, str):
        raise ValueError(f"expected text, got {text!r}")
    return text


def _choice(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text
    return parse


def _switch(text: str) -> bool:
    return _choice("on", "off")(text) == "on"


def _estimators(text: str) -> tuple[tuple[str, str], ...]:
    tokens = [t.strip() for t in _text(text).split(",") if t.strip()]
    if not tokens:
        raise ValueError("at least one method:greek token required")
    pairs = []
    for token in tokens:
        method, sep, greek = token.partition(":")
        if not sep or method not in ESTIMATOR_METHODS or greek not in _GREEKS:
            raise ValueError(
                f"bad token {token!r}; expected method:greek with method in "
                f"{ESTIMATOR_METHODS} and greek in {tuple(_GREEKS)}")
        if (method, greek) in pairs:
            raise ValueError(f"duplicate token {token!r}")
        pairs.append((method, greek))
    return tuple(pairs)


def _sweep(text: str) -> tuple[int, ...]:
    sizes = tuple(_integer(p.strip()) for p in _text(text).split(",") if p.strip())
    if not sizes:
        raise ValueError("at least one path count required")
    if min(sizes) < 2:
        raise ValueError(f"path counts must be >= 2, got {min(sizes)}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"path counts must be strictly increasing, got {sizes}")
    return sizes


def _canonical(value) -> str:
    """The one text form of a parsed value; parsing it gives the value back."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ",".join(":".join(v) if isinstance(v, tuple) else str(v)
                        for v in value)
    return str(value)  # str of a float is its shortest round-trip repr


# --- the schema: key -> (default text, parser), in canonical order ---------

_COMMON = {
    "payoff.kind": ("call", _text),
    "payoff.strike": ("100.0", _number),
    "payoff.level": ("1.0", _number),
    "sim.n_paths": ("10000", _integer),
    "sim.n_steps": ("252", _integer),
    "sim.maturity": ("1.0", _number),
    "sim.seed": ("12345", _integer),
    "sim.variance_floor": ("0.0", _number),
    "sim.sigma_floor": ("1e-08", _number),
    "sim.workers": ("auto", lambda t: None if t == "auto" else _integer(t)),
    "estimators": ("malliavin:delta,malliavin:rho,malliavin:vega", _estimators),
    "sweep": ("250,500,1000,2000,5000,10000", _sweep),
    "output.path": ("", _text),
    "output.format": ("csv", _choice("csv", "json-lines")),
    "output.timing": ("off", _choice("off", "clock")),
}


def _model_schema(name: str, model_keys: dict, r0: str) -> dict:
    return {"model.name": (name, _text), **model_keys,
            "init.s0": ("100.0", _number), "init.v0": ("0.04", _number),
            "init.r0": (r0, _number), **_COMMON}


_SCHEMAS = {
    "heston_vasicek": _model_schema("heston_vasicek", {
        "model.kappa": ("2.0", _number),
        "model.theta": ("0.04", _number),
        "model.sigma_vol": ("0.04", _number),
        "model.a": ("0.02", _number),
        "model.b": ("0.08", _number),
        "model.k": ("0.002", _number),
        "model.rho12": ("-0.8", _number),
        "model.rho13": ("0.5", _number),
        "model.rho23": ("0.02", _number),
        "model.positivity": ("strict", _choice("strict", "feller")),
        "model.enforce_positivity": ("on", _switch),
    }, r0="0.02"),
    "black_scholes": _model_schema("black_scholes", {
        "model.sigma": ("0.2", _number),
    }, r0="0.05"),
}

# bump.<greek>.<field> -> parser.  A missing scheme or crn takes the
# BumpSpec default, a missing h the house size for the greek's target.
_BUMP_PARSERS = {"scheme": _text, "h": _number, "crn": _switch}


def defaults_for(model_name: str) -> dict[str, str]:
    """Default entry table for ``model_name`` (ordered canonically)."""
    if model_name not in _SCHEMAS:
        raise InvalidConfig("model.name", f"unknown model {model_name!r}; "
                            f"expected one of {tuple(_SCHEMAS)}")
    return {key: default for key, (default, _) in _SCHEMAS[model_name].items()}


#: The documented default configuration (hybrid model, 10^4 paths, 252 steps).
DEFAULTS = defaults_for("heston_vasicek")


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


def _parse(key: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise InvalidConfig(key, str(exc)) from None


def _build(cls, section: str, values: dict, **renamed):
    """Build dataclass ``cls`` from its ``section.<field>`` values.

    A field without a value takes the dataclass default.  A field the
    dataclass refuses is reported under its config key; ``renamed`` maps
    the fields whose key is not ``section.<field>``.
    """
    keys = {f.name: renamed.get(f.name, f"{section}.{f.name}")
            for f in fields(cls)}
    try:
        return cls(**{name: values[key] for name, key in keys.items()
                      if key in values})
    except InvalidConfig as exc:  # SimConfig reports the field as the key
        raise InvalidConfig(keys[exc.key], exc.message) from exc
    except InvalidParams as exc:
        raise InvalidConfig(keys.get(exc.field, section), str(exc)) from exc


def _split_bump_key(key: str) -> tuple[str, str]:
    # bump.<greek>.<field>
    parts = key.split(".")
    if len(parts) != 3 or parts[2] not in _BUMP_PARSERS:
        raise InvalidConfig(key, "expected bump.<greek>.scheme|h|crn")
    if parts[1] not in _GREEKS or _GREEKS[parts[1]].fd_target is None:
        fd_greeks = tuple(g for g, spec in _GREEKS.items() if spec.fd_target)
        raise InvalidConfig(key, f"no finite-difference form for greek {parts[1]!r}; "
                            f"expected one of {fd_greeks}")
    return parts[1], parts[2]


def build_run_config(overrides=None) -> RunConfig:
    """Merge ``overrides`` over the defaults and validate everything.

    Values are text, as in a config file; an integer key also takes an
    ``int`` and a number key any real number (``bool`` is refused).  Any
    other value is refused under its key.
    Raises :class:`InvalidConfig` naming the offending key on any problem,
    including estimator requests the chosen model cannot honour.
    """
    overrides = dict(overrides or {})
    model_name = _parse("model.name", _text,
                        overrides.get("model.name", DEFAULTS["model.name"]))
    defaults = defaults_for(model_name)
    schema = _SCHEMAS[model_name]

    values, bumped = {}, set()
    for key, text in overrides.items():
        if key.startswith("bump."):
            greek, field = _split_bump_key(key)
            bumped.add(greek)
            values[key] = _parse(key, _BUMP_PARSERS[field], text)
        elif key not in schema:
            raise InvalidConfig(key, f"unknown key for model {model_name!r}")
    for key, (_, parse) in schema.items():
        values[key] = _parse(key, parse, overrides.get(key, defaults[key]))

    try:
        if model_name == "heston_vasicek":
            model = heston_vasicek_model(
                _build(HestonVasicekParams, "model", values),
                _build(CorrelationTriple, "model", values),
                condition=values["model.positivity"],
                enforce=values["model.enforce_positivity"])
        else:
            bs = _build(BlackScholesParams, "model", values, rate="init.r0")
            model = black_scholes_degenerate(bs.sigma, bs.rate)
    except InvalidParams as exc:  # conditions that join several keys
        raise InvalidConfig("model", str(exc)) from exc
    init = _build(InitialState, "init", values)

    payoff = _build(Payoff, "payoff", values)
    if payoff.kind in ("call", "put", "digital_call") and payoff.strike <= 0.0:
        raise InvalidConfig("payoff.strike",
                            f"strike must be positive for payoff kind {payoff.kind!r}")

    sim = _build(SimConfig, "sim", values, worker_hint="sim.workers")
    if sim.n_paths < 2:
        raise InvalidConfig("sim.n_paths", "a standard error needs at least "
                            f"2 paths, got {sim.n_paths}")

    # --- estimator rules that depend on the model and the payoff ----------
    estimators = values["estimators"]
    for method, greek in estimators:
        spec = _GREEKS[greek]
        if spec.hybrid_only and model.degenerate:
            problem = ("needs stochastic variance/rate dynamics; the "
                       "constant-coefficient model has none")
        elif method == "fd" and spec.fd_target is None:
            problem = f"is not a finite-difference target; use 'malliavin:{greek}'"
        elif method == "analytic" and not model.degenerate:
            problem = "has a closed form only for the constant-coefficient model"
        elif method == "analytic" and payoff.kind not in spec.closed_form:
            problem = f"has no closed form for payoff kind {payoff.kind!r}"
        else:
            continue
        raise InvalidConfig("estimators", f"'{method}:{greek}' {problem}")

    # --- bump specs for fd estimators and explicit bump entries -----------
    bumps: dict[str, BumpSpec] = {}
    fd_greeks = [g for m, g in estimators if m == "fd"]
    for greek in dict.fromkeys(fd_greeks + sorted(bumped)):
        section, target = f"bump.{greek}", _GREEKS[greek].fd_target
        values.setdefault(f"{section}.h", default_bump_size(target, init))
        bumps[greek] = _build(BumpSpec, section,
                              {**values, f"{section}.target": target})
        try:
            check_bump_size(bumps[greek], init)
        except InvalidParams as exc:
            raise InvalidConfig(f"{section}.h", str(exc)) from exc

    entries = {key: _canonical(values[key]) for key in schema}
    for greek in (g for g in _GREEKS if g in bumps):
        for field in _BUMP_PARSERS:
            entries[f"bump.{greek}.{field}"] = _canonical(getattr(bumps[greek], field))

    return RunConfig(model=model, init=init, payoff=payoff, sim=sim,
                     estimators=estimators, bumps=bumps, sweep=values["sweep"],
                     output_path=values["output.path"] or None,
                     output_format=values["output.format"],
                     timing=values["output.timing"], entries=entries)


def effective_config_text(config: RunConfig) -> str:
    """Serialise the resolved configuration, one ``key=value`` per line.

    Feeding the result back through :func:`parse_config_text` and
    :func:`build_run_config` reproduces an identical run.
    """
    return "".join(f"{k}={v}\n" for k, v in config.entries.items())
