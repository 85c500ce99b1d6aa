"""Configuration parsing/validation and the command-line front end.

The CLI tests shell out with ``python -m hsv_greeks.cli`` so they exercise the
same entry point as the installed ``hsv-greeks`` script, including exit codes
and byte-level output stability.
"""

import json
import logging
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import hsv_greeks as hg
from hsv_greeks.cli import CSV_HEADER, main
from conftest import BS_DELTA, BS_DIGITAL_DELTA, cli_env


# ---------------------------------------------------------------------------
# key=value parsing

def test_parse_skips_comments_and_blank_lines():
    text = """
    # a comment
    model.name = heston_vasicek

    sim.seed=7
    estimators=malliavin:delta
    """
    entries = hg.parse_config_text(text)
    assert entries == {
        "model.name": "heston_vasicek",
        "sim.seed": "7",
        "estimators": "malliavin:delta",
    }


def test_parse_rejects_malformed_lines():
    with pytest.raises(hg.InvalidConfig, match="duplicate"):
        hg.parse_config_text("a=1\na=2\n")
    with pytest.raises(hg.InvalidConfig, match="key=value"):
        hg.parse_config_text("just words\n")
    with pytest.raises(hg.InvalidConfig, match="empty key"):
        hg.parse_config_text("=5\n")


# ---------------------------------------------------------------------------
# defaults and the resolved RunConfig

def test_default_run_config():
    rc = hg.build_run_config({})
    assert not rc.model.degenerate
    assert (rc.init.s0, rc.init.v0, rc.init.r0) == (100.0, 0.04, 0.02)
    assert (rc.sim.n_paths, rc.sim.n_steps) == (10_000, 252)
    assert rc.estimators == (("malliavin", "delta"), ("malliavin", "rho"),
                             ("malliavin", "vega"))
    assert rc.output_path is None
    assert rc.timing == "off"
    assert not rc.wants_drift_extras


def test_model_tables_have_disjoint_parameter_keys():
    hv = hg.config.defaults_for("heston_vasicek")
    bs = hg.config.defaults_for("black_scholes")
    assert "model.kappa" in hv and "model.kappa" not in bs
    assert "model.sigma" in bs and "model.sigma" not in hv
    assert hg.DEFAULTS == hv


def test_drift_extras_requested_only_when_needed():
    rc = hg.build_run_config({"estimators": "malliavin:kappa"})
    assert rc.wants_drift_extras


@pytest.mark.parametrize("overrides,key", [
    ({"tpyo": "1"}, "tpyo"),
    ({"model.sigma": "0.2"}, "model.sigma"),                     # hv model
    ({"model.name": "black_scholes", "model.kappa": "2"}, "model.kappa"),
    ({"model.name": "no_such_model"}, "model.name"),
    ({"sim.n_paths": "abc"}, "sim.n_paths"),
    ({"sim.n_paths": "0"}, "sim.n_paths"),
    ({"sim.seed": "-1"}, "sim.seed"),
    ({"sim.maturity": "0"}, "sim.maturity"),
    ({"init.s0": "-5"}, "init.s0"),
    ({"init.v0": "0"}, "init.v0"),
    ({"payoff.strike": "0"}, "payoff.strike"),
    ({"payoff.kind": "asian"}, "payoff.kind"),
    ({"model.kappa": "-1"}, "model.kappa"),
    ({"model.rho12": "1.5"}, "model.rho12"),
    ({"model.positivity": "sometimes"}, "model.positivity"),
    ({"model.enforce_positivity": "maybe"}, "model.enforce_positivity"),
    ({"output.format": "xml"}, "output.format"),
    ({"output.timing": "fast"}, "output.timing"),
    ({"sim.workers": "many"}, "sim.workers"),
    ({"sim.workers": "0"}, "sim.workers"),
    ({"sim.n_paths": "1"}, "sim.n_paths"),
    ({"model.name": "black_scholes", "model.sigma": "-1"}, "model.sigma"),
])
def test_invalid_entries_name_the_key(overrides, key):
    with pytest.raises(hg.InvalidConfig) as err:
        hg.build_run_config(overrides)
    assert err.value.key == key
    assert str(err.value).count("config key") == 1


@pytest.mark.parametrize("value", [
    "",                         # nothing requested
    "mw:delta",                 # unknown method
    "malliavin:gamma",          # unknown greek
    "malliavin",                # missing colon
    "fd:price",                 # price has no bump target
    "analytic:delta",           # closed form needs the degenerate model
    "malliavin:delta,malliavin:delta",
])
def test_estimator_token_validation(value):
    with pytest.raises(hg.InvalidConfig, match="estimators"):
        hg.build_run_config({"estimators": value})


def test_variance_rate_greeks_need_the_hybrid_model():
    with pytest.raises(hg.InvalidConfig, match="estimators"):
        hg.build_run_config({"model.name": "black_scholes",
                             "estimators": "malliavin:vega_v0"})


def test_analytic_digital_only_supports_delta():
    ok = hg.build_run_config({"model.name": "black_scholes",
                              "payoff.kind": "digital_call",
                              "estimators": "analytic:delta"})
    assert ok.estimators == (("analytic", "delta"),)
    with pytest.raises(hg.InvalidConfig, match="estimators"):
        hg.build_run_config({"model.name": "black_scholes",
                             "payoff.kind": "digital_call",
                             "estimators": "analytic:vega"})


@pytest.mark.parametrize("value", ["", "100,50", "1", "10,ten"])
def test_sweep_validation(value):
    with pytest.raises(hg.InvalidConfig, match="sweep"):
        hg.build_run_config({"sweep": value})


def test_bump_entries_resolve_into_specs():
    rc = hg.build_run_config({
        "estimators": "malliavin:delta,fd:delta,fd:vega",
        "bump.delta.h": "0.5",
        "bump.delta.scheme": "forward",
        "bump.vega.crn": "off",
    })
    assert rc.bumps["delta"].target == "s0"
    assert rc.bumps["delta"].scheme == "forward"
    assert rc.bumps["delta"].h == 0.5
    assert rc.bumps["vega"].target == "vega_shift_epsilon"
    assert rc.bumps["vega"].crn is False
    assert rc.bumps["vega"].h == 1e-4  # default size


@pytest.mark.parametrize("key,value", [
    ("bump.delta.h", "-1"),
    ("bump.delta.h", "0"),
    ("bump.delta.scheme", "five_point"),
    ("bump.gamma.h", "1"),
    ("bump.delta.width", "1"),
    ("bump.delta.h", "50"),        # h must stay below half of s0 = 100
    ("bump.vega_v0.h", "0.02"),    # ... and below half of v0 = 0.04
])
def test_bad_bump_entries(key, value):
    with pytest.raises(hg.InvalidConfig) as err:
        hg.build_run_config({key: value})
    assert err.value.key == key


@pytest.mark.parametrize("overrides,h", [
    # the default h = 1e-4 is not below half of r0 = 1e-4, and need not be
    ({"init.r0": "0.0001", "estimators": "malliavin:delta,fd:rho_r0"}, 1e-4),
    # r0 may be negative, and a bump larger than half of it moves no sign
    ({"init.r0": "-0.02", "bump.rho_r0.h": "0.01"}, 0.01),
], ids=["default_h_at_tiny_r0", "large_h_at_negative_r0"])
def test_r0_bumps_have_no_size_cap(overrides, h):
    assert hg.build_run_config(overrides).bumps["rho_r0"].h == h


def test_integer_keys_accept_python_ints():
    text = hg.build_run_config({"sim.n_paths": "500", "sim.seed": "7"})
    ints = hg.build_run_config({"sim.n_paths": 500, "sim.seed": 7})
    assert ints.sim == text.sim
    assert ints.entries == text.entries


@pytest.mark.parametrize("key,value", [
    ("sim.n_paths", True),
    ("sim.n_steps", 16.0),
    ("sim.seed", None),
    ("sim.workers", [2]),
    ("sim.maturity", None),
    ("payoff.strike", False),
    ("sweep", (250, 500)),
    ("estimators", ("malliavin:delta",)),
    ("output.path", 7),
    ("payoff.kind", None),
    ("model.name", ["heston_vasicek"]),
    ("bump.delta.scheme", 1),
])
def test_other_value_types_are_refused_under_their_key(key, value):
    with pytest.raises(hg.InvalidConfig) as err:
        hg.build_run_config({key: value})
    assert err.value.key == key


@pytest.mark.parametrize("overrides", [
    {},
    {"model.name": "black_scholes",
     "estimators": "malliavin:delta,fd:delta,analytic:delta"},
    {"sim.n_paths": "500", "sim.workers": "3",
     "estimators": "malliavin:delta,fd:delta", "bump.delta.h": "0.5",
     "bump.delta.scheme": "forward"},
])
def test_effective_config_round_trips(overrides):
    rc = hg.build_run_config(overrides)
    text = hg.effective_config_text(rc)
    rc2 = hg.build_run_config(hg.parse_config_text(text))
    assert rc2.entries == rc.entries
    assert hg.effective_config_text(rc2) == text


# Every schema key with its default, a few bump keys, and texts of each
# value kind (valid for some keys, refused by others).
_KEY_DEFAULTS = {
    **hg.config.defaults_for("black_scholes"), **hg.DEFAULTS,
    **{f"bump.{g}.{f}": v for g in ("delta", "vega_v0", "rho_r0", "kappa")
       for f, v in (("scheme", "backward"), ("h", "0.001"), ("crn", "off"))},
}
_TEXTS = ["0.5", "3", "+2", "1_0", "1e-3", "-0.0", "0.07", "64", "007", "on",
          "off", "auto", "black_scholes", "feller", "put", "digital_call",
          "identity", "json-lines", "clock", "forward", "analytic:delta",
          "fd:delta,malliavin:kappa", "2,64", "o.csv", "", "abc", "-1"]


def _text_for(key):
    """Three draws in four: the default or a text the key accepts alone."""
    context = {"model.name": "black_scholes"} if key == "model.sigma" else {}
    accepted = [_KEY_DEFAULTS[key]]
    for text in _TEXTS:
        try:
            hg.build_run_config({**context, key: text})
            accepted.append(text)
        except hg.InvalidConfig:
            pass
    return st.one_of(*3 * [st.sampled_from(accepted)], st.sampled_from(_TEXTS))


_TEXT_FOR = {key: _text_for(key) for key in _KEY_DEFAULTS}
_OVERRIDES = st.lists(st.sampled_from(sorted(_KEY_DEFAULTS)), unique=True,
                      max_size=4).flatmap(lambda keys: st.fixed_dictionaries(
                          {k: _TEXT_FOR[k] for k in keys}))


@settings(max_examples=300, deadline=None)
@given(_OVERRIDES)
def test_accepted_overrides_round_trip_through_the_dump(overrides):
    try:
        rc = hg.build_run_config(overrides)
    except hg.InvalidConfig:
        return
    text = hg.effective_config_text(rc)
    rc2 = hg.build_run_config(hg.parse_config_text(text))
    assert rc2.entries == rc.entries
    assert hg.effective_config_text(rc2) == text


# ---------------------------------------------------------------------------
# the command line, end to end

BS_SMALL = """\
model.name=black_scholes
sim.n_paths=400
sim.n_steps=16
estimators=malliavin:delta,analytic:delta
"""

HV_SMALL = """\
sim.n_paths=400
sim.n_steps=16
"""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hsv_greeks.cli", *args],
                          capture_output=True, text=True, env=cli_env())


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_greeks_subcommand_emits_exact_csv(tmp_path):
    cfg = write_cfg(tmp_path, BS_SMALL)
    proc = run_cli("greeks", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 9
    analytic = lines[2].split(",")
    assert analytic[0] == "analytic"
    assert analytic[1] == "delta"
    assert analytic[5] == repr(BS_DELTA)      # exact closed-form bytes
    assert analytic[6] == "0.0"
    assert analytic[8] == "0.0"               # timing off by default


def test_black_scholes_run_writes_nothing_to_stderr(tmp_path):
    proc = run_cli("greeks", "--config", write_cfg(tmp_path, BS_SMALL))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_degeneracy_warning_still_reaches_configured_logging(caplog):
    with caplog.at_level(logging.WARNING, logger="hsv_greeks"):
        hg.build_run_config({"model.name": "black_scholes"})
    assert any(rec.name == "hsv_greeks.models" and "degenerate" in rec.message
               for rec in caplog.records)


def test_price_subcommand_ignores_estimator_list(tmp_path):
    cfg = write_cfg(tmp_path, HV_SMALL)
    proc = run_cli("price", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    estimator, greek = lines[1].split(",")[:2]
    assert (estimator, greek) == ("malliavin", "price")


def test_output_is_byte_stable_across_runs_and_workers(tmp_path):
    cfg = write_cfg(tmp_path, HV_SMALL)
    first = run_cli("greeks", "--config", cfg)
    again = run_cli("greeks", "--config", cfg)
    w1 = run_cli("greeks", "--config",
                 write_cfg(tmp_path, HV_SMALL + "sim.workers=1\n", "w1.cfg"))
    w3 = run_cli("greeks", "--config",
                 write_cfg(tmp_path, HV_SMALL + "sim.workers=3\n", "w3.cfg"))
    assert first.returncode == 0, first.stderr
    assert again.stdout == first.stdout
    assert w1.stdout == first.stdout
    assert w3.stdout == first.stdout


def test_seed_and_size_flags_override_config(tmp_path):
    cfg = write_cfg(tmp_path, HV_SMALL)
    proc = run_cli("greeks", "--config", cfg, "--seed", "777",
                   "--paths", "600", "--steps", "8")
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[1].split(",")
    assert row[2:5] == ["600", "8", "777"]


def test_dump_config_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, BS_SMALL)
    eff = tmp_path / "effective.cfg"
    dumped = run_cli("dump-config", "--config", cfg, "--out", str(eff))
    assert dumped.returncode == 0, dumped.stderr
    assert dumped.stdout == ""

    redumped = run_cli("dump-config", "--config", str(eff))
    assert redumped.returncode == 0
    assert redumped.stdout == eff.read_text(encoding="utf-8")

    from_original = run_cli("greeks", "--config", cfg)
    from_dump = run_cli("greeks", "--config", str(eff))
    assert from_dump.stdout == from_original.stdout


def test_json_lines_format(tmp_path):
    cfg = write_cfg(tmp_path, BS_SMALL)
    proc = run_cli("greeks", "--config", cfg, "--format", "json-lines")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 2
    assert list(records[0]) == CSV_HEADER.split(",")
    assert records[1]["estimator"] == "analytic"
    assert records[1]["value"] == BS_DELTA


def test_out_flag_writes_file_and_keeps_stdout_clean(tmp_path):
    cfg = write_cfg(tmp_path, BS_SMALL)
    out = tmp_path / "rows.csv"
    proc = run_cli("greeks", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert out.read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER


def test_converge_covers_every_sweep_size(tmp_path):
    cfg = write_cfg(tmp_path, HV_SMALL + "sweep=50,100\n"
                    "estimators=malliavin:delta\n")
    proc = run_cli("converge", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    sizes = [line.split(",")[2] for line in proc.stdout.splitlines()[1:]]
    assert sizes == ["50", "100"]


def test_compare_prints_table_and_writes_rows(tmp_path):
    cfg = write_cfg(tmp_path, "model.name=black_scholes\n"
                    "sim.n_paths=2000\nsim.n_steps=16\n"
                    "estimators=malliavin:delta,fd:delta,analytic:delta\n")
    out = tmp_path / "cmp.csv"
    proc = run_cli("compare", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "agree" in proc.stdout
    assert "fd_central" in proc.stdout
    assert " NO " not in proc.stdout    # all rows agree at this seed
    assert out.read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "bogus=1\n")
    proc = run_cli("greeks", "--config", cfg)
    assert proc.returncode == 2
    assert proc.stderr.startswith("hsv-greeks:")
    assert "bogus" in proc.stderr


def test_compare_without_fd_estimator_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, HV_SMALL)
    proc = run_cli("compare", "--config", cfg)
    assert proc.returncode == 2
    assert "estimators" in proc.stderr


def test_digital_level_scales_weighted_and_analytic_delta(tmp_path, capsys):
    """A digital call pays ``payoff.level``: the weighted delta doubles
    exactly with the level and still agrees with the closed form."""
    deltas = {}
    for level in ("1.0", "2.0"):
        cfg = write_cfg(tmp_path, "model.name=black_scholes\n"
                        "payoff.kind=digital_call\n"
                        f"payoff.level={level}\n"
                        "sim.n_paths=20000\nsim.n_steps=16\n"
                        "estimators=malliavin:delta,analytic:delta\n")
        assert main(["greeks", "--config", cfg]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        deltas[level] = [(float(r.split(",")[5]), float(r.split(",")[6]))
                         for r in rows]
    (w1, se1), (a1, _) = deltas["1.0"]
    (w2, se2), (a2, _) = deltas["2.0"]
    assert (w2, se2) == (2.0 * w1, 2.0 * se1)
    assert a1 == BS_DIGITAL_DELTA and a2 == 2.0 * BS_DIGITAL_DELTA
    assert abs(w2 - a2) <= 3.0 * se2


def test_numerical_blowup_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, HV_SMALL + "model.k=1e14\n")
    proc = run_cli("greeks", "--config", cfg)
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


@pytest.mark.parametrize("level,detail", [
    # squared deviations overflow: std_error inf
    ("1e160", "std_error inf"),
    # the sample sum itself overflows
    ("1e307", "the sum of its samples overflows"),
])
def test_non_finite_weighted_estimate_exits_3(tmp_path, level, detail):
    """A weighted estimate that is not finite is a numerical failure that
    names its estimator token, with no numpy warning on stderr."""
    cfg = write_cfg(tmp_path, "payoff.kind=digital_call\n"
                    f"payoff.level={level}\n"
                    "sim.n_paths=64\nsim.n_steps=4\n"
                    "estimators=malliavin:price\n")
    proc = run_cli("greeks", "--config", cfg)
    assert proc.returncode == 3
    assert proc.stderr.startswith(
        "hsv-greeks: numerical failure: malliavin:price estimate is not finite: ")
    assert detail in proc.stderr
    assert proc.stderr.count("\n") == 1  # no warning, no traceback


@pytest.mark.parametrize("level,crn", [("1e160", "on"), ("1e307", "on"),
                                       ("1e160", "off")])
def test_non_finite_fd_estimate_exits_3(tmp_path, level, crn):
    """A finite-difference estimate whose standard error overflows, from
    differenced or from independent runs, is a numerical failure naming its
    estimator token, not a usage error."""
    cfg = write_cfg(tmp_path, "payoff.kind=digital_call\n"
                    f"payoff.level={level}\n"
                    "sim.n_paths=64\nsim.n_steps=4\n"
                    f"estimators=fd:delta\nbump.delta.crn={crn}\n")
    proc = run_cli("greeks", "--config", cfg)
    assert proc.returncode == 3
    assert proc.stderr.startswith(
        "hsv-greeks: numerical failure: fd:delta estimate is not finite: ")
    assert proc.stderr.count("\n") == 1  # no warning, no traceback


def test_missing_config_file_exits_2(tmp_path):
    proc = run_cli("greeks", "--config", str(tmp_path / "absent.cfg"))
    assert proc.returncode == 2


def test_help_and_bad_usage_exit_codes():
    assert run_cli("--help").returncode == 0
    assert run_cli("no-such-command").returncode == 2
