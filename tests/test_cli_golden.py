"""Golden bytes of the command line.

The expected text of the six cases that draw was recorded when the draws
became ziggurat normals on per-block rows of step-major Philox counters;
the ``compare`` table's ``clamps`` column is older, and the three
``dump-config`` cases are older still and moved only when the
``model.enforce_positivity`` key went, which two of them printed, and
when the ``bump.<greek>.scheme`` and ``crn`` keys went, whose lines all
three printed.  The
``hybrid_feller_small`` rows were recorded with that key off and
``model.positivity=feller``, the pair whose behaviour ``off`` names now,
so they pin ``off`` as that pair bit for bit.  The
``malliavin:reversion`` rows are newer: they were recorded again when the
weight stopped subtracting a deterministic shift of the discount integral
that its Girsanov term already carries.  Each weighted estimator keeps its own floating-point evaluation
order, so every digit must still match; a reordered product shows up here
as a changed last digit.  The two non-default ``dump-config`` cases were
recorded before the config keys moved into one schema; between them they
pin the canonical text of every kind of value (numbers, integers,
choices, ``auto``, lists and plain text); the switches went with the
``crn`` key.  The two-block ``compare`` and
``greeks`` cases have 16,385 paths, which cross the engine's 16,384-path
block edge.  The ``compare`` case with every finite-difference target pins
the bumped prices, and their clamp counts, of the state-only runs; its
``fd:rho``, ``fd:vega_v0`` and ``fd:kappa`` rows were once an
independent-stream, a forward and a backward difference, and were
recorded again as central differences on common random numbers, by the
code that still had the other forms, when those forms went.
"""

import pytest

from hsv_greeks.cli import main

ALL_WEIGHTED = ",".join(
    f"malliavin:{g}" for g in ("price", "delta", "rho", "vega", "vega_v0",
                               "rho_r0", "kappa", "reversion"))

HYBRID = {
    "sim.n_paths": "512",
    "sim.n_steps": "16",
    "estimators": ALL_WEIGHTED + ",fd:delta,fd:vega",
}

BS_CALL = {
    "model.name": "black_scholes",
    "sim.n_paths": "512",
    "sim.n_steps": "16",
    "payoff.kind": "call",
    "estimators": ("malliavin:price,malliavin:delta,malliavin:rho,malliavin:vega,"
                   "analytic:price,analytic:delta,analytic:rho,analytic:vega"),
}

BS_DIGITAL = {
    "model.name": "black_scholes",
    "sim.n_paths": "512",
    "sim.n_steps": "16",
    "payoff.kind": "digital_call",
    "payoff.level": "1.0",
    "estimators": ("malliavin:price,malliavin:delta,malliavin:rho,malliavin:vega,"
                   "analytic:delta"),
}

HYBRID_BUMPS = {
    "sim.n_paths": "512",
    "sim.n_steps": "16",
    "estimators": ALL_WEIGHTED + ",fd:delta,fd:vega",
    "bump.reversion.h": "0.0002",
    "bump.vega_v0.h": "0.0004",
    "bump.rho.h": "0.0001",
}

BS_NON_DEFAULT = {
    "model.name": "black_scholes",
    "model.sigma": "0.25",
    "init.s0": "90",
    "init.r0": "0.03",
    "payoff.kind": "digital_call",
    "payoff.strike": "95",
    "payoff.level": "2.0",
    "sim.n_paths": "2048",
    "sim.n_steps": "32",
    "sim.maturity": "0.5",
    "sim.seed": "7",
    "sim.sigma_floor": "1e-6",
    "estimators": "analytic:delta,malliavin:delta,fd:delta",
    "sweep": "100,1000",
    "output.path": "o.csv",
    "output.format": "json-lines",
    "output.timing": "clock",
}

# 2*kappa*theta = 0.15 < sigma_vol^2 = 0.25: only accepted with the
# positivity condition off.
HYBRID_FELLER = {
    "model.kappa": "1.5",
    "model.theta": "0.05",
    "model.sigma_vol": "0.5",
    "model.positivity": "off",
    "model.rho13": "-0.25",
    "init.v0": "0.09",
    "sim.workers": "3",
    "sim.variance_floor": "0.001",
    "estimators": "malliavin:kappa,fd:kappa,malliavin:rho_r0",
}

# One path more than a block: the engine simulates 16,384 paths, then one.
TWO_BLOCKS = {
    "sim.n_paths": "16385",
    "sim.n_steps": "2",
    "estimators": "malliavin:delta,fd:delta",
}

EXPECTED = {
    "hybrid_all_weighted_and_fd": (
        "greeks", HYBRID,
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,price,512,16,12345,8.128708030634224,0.5455302410372328,0,0.0\n"
        "malliavin,delta,512,16,12345,0.4261655713984397,0.12708330438039595,0,0.0\n"
        "malliavin,rho,512,16,12345,34.48784910920975,12.489399922304683,0,0.0\n"
        "malliavin,vega,512,16,12345,26.292978165687735,27.894277825604455,0,0.0\n"
        "malliavin,vega_v0,512,16,12345,-67.62198575409188,121.98884985524042,0,0.0\n"
        "malliavin,rho_r0,512,16,12345,638.574349637308,677.7487612714119,0,0.0\n"
        "malliavin,kappa,512,16,12345,-203.11512998814175,473.8625410873916,0,0.0\n"
        "malliavin,reversion,512,16,12345,12.366955551352094,13.76533441491475,0,0.0\n"
        "fd_central,delta,512,16,12345,0.5903705346633517,0.025162359648580948,0,0.0\n"
        "fd_central,vega,512,16,12345,33.71384626173112,3.020553125293495,0,0.0\n"
        ),
    ),
    "black_scholes_call": (
        "greeks", BS_CALL,
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,price,512,16,12345,9.639312384433373,0.6019219980064086,0,0.0\n"
        "malliavin,delta,512,16,12345,0.5397143042039997,0.06309770382080598,0,0.0\n"
        "malliavin,rho,512,16,12345,44.332118035966595,5.7870112555400866,0,0.0\n"
        "malliavin,vega,512,16,12345,26.156979593574032,14.934458493676685,0,0.0\n"
        "analytic,price,512,16,12345,10.450583572185565,0.0,0,0.0\n"
        "analytic,delta,512,16,12345,0.6368306511756191,0.0,0,0.0\n"
        "analytic,rho,512,16,12345,53.232481545376345,0.0,0,0.0\n"
        "analytic,vega,512,16,12345,37.52403469169379,0.0,0,0.0\n"
        ),
    ),
    "black_scholes_digital": (
        "greeks", BS_DIGITAL,
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,price,512,16,12345,0.5499295110394753,0.020781533707328045,0,0.0\n"
        "malliavin,delta,512,16,12345,0.017083872989655902,0.0011396756893084128,0,0.0\n"
        "malliavin,rho,512,16,12345,1.158457787926115,0.10362050070658,0,0.0\n"
        "malliavin,vega,512,16,12345,-1.0821850587210133,0.19595054395395986,0,0.0\n"
        "analytic,delta,512,16,12345,0.018762017345846895,0.0,0,0.0\n"
        ),
    ),
    "compare_two_blocks": (
        "compare", TWO_BLOCKS,
        (
        "greek       n_paths estimator               value     std_error agree    wall_ms n_sims     clamps\n"
        "--------------------------------------------------------------------------------------------------\n"
        "delta         16385 malliavin        0.5524011197     0.0233819 -          0.000      1          0\n"
        "delta         16385 fd_central       0.5869787404    0.00454714 yes        0.000      2          0\n"
        ),
    ),
    "hybrid_feller_small": (
        "greeks", {**HYBRID_FELLER, "sim.n_paths": "512", "sim.n_steps": "16"},
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,kappa,512,16,12345,51.27501009871647,58.332971766265004,0,0.0\n"
        "fd_central,kappa,512,16,12345,29.902692323591655,5.242470173591187,0,0.0\n"
        "malliavin,rho_r0,512,16,12345,327.77473286784647,409.93860512745147,0,0.0\n"
        ),
    ),
    "greeks_two_blocks": (
        "greeks", TWO_BLOCKS,
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,delta,16385,2,12345,0.552401119714216,0.02338193268552189,0,0.0\n"
        "fd_central,delta,16385,2,12345,0.5869787403517545,0.0045471397109051745,0,0.0\n"
        ),
    ),
    "dump_config": (
        "dump-config", HYBRID_BUMPS,
        (
        "model.name=heston_vasicek\n"
        "model.kappa=2.0\n"
        "model.theta=0.04\n"
        "model.sigma_vol=0.04\n"
        "model.a=0.02\n"
        "model.b=0.08\n"
        "model.k=0.002\n"
        "model.rho12=-0.8\n"
        "model.rho13=0.5\n"
        "model.rho23=0.02\n"
        "model.positivity=strict\n"
        "init.s0=100.0\n"
        "init.v0=0.04\n"
        "init.r0=0.02\n"
        "payoff.kind=call\n"
        "payoff.strike=100.0\n"
        "payoff.level=1.0\n"
        "sim.n_paths=512\n"
        "sim.n_steps=16\n"
        "sim.maturity=1.0\n"
        "sim.seed=12345\n"
        "sim.variance_floor=0.0\n"
        "sim.sigma_floor=1e-08\n"
        "sim.workers=auto\n"
        "estimators=malliavin:price,malliavin:delta,malliavin:rho,malliavin:vega,malliavin:vega_v0,malliavin:rho_r0,malliavin:kappa,malliavin:reversion,fd:delta,fd:vega\n"
        "sweep=250,500,1000,2000,5000,10000\n"
        "output.path=\n"
        "output.format=csv\n"
        "output.timing=off\n"
        "bump.delta.h=1.0\n"
        "bump.rho.h=0.0001\n"
        "bump.vega.h=0.0001\n"
        "bump.vega_v0.h=0.0004\n"
        "bump.reversion.h=0.0002\n"
        ),
    ),
    "dump_config_black_scholes_non_default": (
        "dump-config", BS_NON_DEFAULT,
        (
        "model.name=black_scholes\n"
        "model.sigma=0.25\n"
        "init.s0=90.0\n"
        "init.v0=0.04\n"
        "init.r0=0.03\n"
        "payoff.kind=digital_call\n"
        "payoff.strike=95.0\n"
        "payoff.level=2.0\n"
        "sim.n_paths=2048\n"
        "sim.n_steps=32\n"
        "sim.maturity=0.5\n"
        "sim.seed=7\n"
        "sim.variance_floor=0.0\n"
        "sim.sigma_floor=1e-06\n"
        "sim.workers=auto\n"
        "estimators=analytic:delta,malliavin:delta,fd:delta\n"
        "sweep=100,1000\n"
        "output.path=o.csv\n"
        "output.format=json-lines\n"
        "output.timing=clock\n"
        "bump.delta.h=0.9\n"
        ),
    ),
    "dump_config_hybrid_feller": (
        "dump-config", HYBRID_FELLER,
        (
        "model.name=heston_vasicek\n"
        "model.kappa=1.5\n"
        "model.theta=0.05\n"
        "model.sigma_vol=0.5\n"
        "model.a=0.02\n"
        "model.b=0.08\n"
        "model.k=0.002\n"
        "model.rho12=-0.8\n"
        "model.rho13=-0.25\n"
        "model.rho23=0.02\n"
        "model.positivity=off\n"
        "init.s0=100.0\n"
        "init.v0=0.09\n"
        "init.r0=0.02\n"
        "payoff.kind=call\n"
        "payoff.strike=100.0\n"
        "payoff.level=1.0\n"
        "sim.n_paths=10000\n"
        "sim.n_steps=252\n"
        "sim.maturity=1.0\n"
        "sim.seed=12345\n"
        "sim.variance_floor=0.001\n"
        "sim.sigma_floor=1e-08\n"
        "sim.workers=3\n"
        "estimators=malliavin:kappa,fd:kappa,malliavin:rho_r0\n"
        "sweep=250,500,1000,2000,5000,10000\n"
        "output.path=\n"
        "output.format=csv\n"
        "output.timing=off\n"
        "bump.kappa.h=0.0001\n"
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_cli_bytes_match_the_recorded_output(case, tmp_path, capsys):
    command, entries, expected = EXPECTED[case]
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in entries.items()),
                      encoding="utf-8")
    assert main([command, "--config", str(config)]) == 0
    assert capsys.readouterr().out == expected


def _malliavin_rows(text):
    """The malliavin rows of CSV text, by greek."""
    return {line.split(",")[1]: line for line in text.splitlines()[1:]
            if line.startswith("malliavin,")}


@pytest.mark.parametrize("greek", ["price", "delta", "rho", "vega", "vega_v0",
                                   "rho_r0", "kappa", "reversion"])
def test_each_token_alone_writes_its_row_of_the_all_token_run(greek, tmp_path, capsys):
    """A run simulates only the fields its tokens read, and a single-token
    run (the ``price`` command too) writes the same row, value and standard
    error bits included, as that token's row among all eight."""
    expected = _malliavin_rows(EXPECTED["hybrid_all_weighted_and_fd"][2])[greek]
    runs = [("greeks", {**HYBRID, "estimators": f"malliavin:{greek}"})]
    if greek == "price":
        runs.append(("price", HYBRID))
    for command, entries in runs:
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in entries.items()),
                          encoding="utf-8")
        assert main([command, "--config", str(config)]) == 0
        assert _malliavin_rows(capsys.readouterr().out) == {greek: expected}, command


# Every finite-difference target beside its weighted form, over two blocks,
# with a sigma floor above every volatility so each run clamps: the CSV's
# clamp column counts the clamps of both bumped re-simulations.
ALL_FD_GREEKS = ("delta", "rho", "vega", "vega_v0", "rho_r0", "kappa", "reversion")
ALL_FD = {
    "sim.n_paths": "16385",
    "sim.n_steps": "2",
    "sim.sigma_floor": "0.5",
    "estimators": ",".join(f"{m}:{g}" for g in ALL_FD_GREEKS
                           for m in ("malliavin", "fd")),
}

ALL_FD_TABLE = (
    "greek       n_paths estimator               value     std_error agree    wall_ms n_sims     clamps\n"
    "--------------------------------------------------------------------------------------------------\n"
    "delta         16385 malliavin        0.2166229298     0.0089973 -          0.000      1      98310\n"
    "delta         16385 fd_central       0.5869787404    0.00454714 NO         0.000      2     196620\n"
    "rho           16385 malliavin         12.66451866      0.861234 -          0.000      0      98310\n"
    "rho           16385 fd_central        49.70581282      0.382587 NO         0.000      2     196620\n"
    "vega          16385 malliavin         13.28062609       1.49062 -          0.000      0      98310\n"
    "vega          16385 fd_central        39.30780175      0.580078 NO         0.000      2     196620\n"
    "vega_v0       16385 malliavin         8.127461345       1.42574 -          0.000      0      98310\n"
    "vega_v0       16385 fd_central        49.17208099       1.06188 NO         0.000      2     196620\n"
    "rho_r0        16385 malliavin         6.108505354      0.406077 -          0.000      0      98310\n"
    "rho_r0        16385 fd_central        49.45729834      0.380674 NO         0.000      2     196620\n"
    "kappa         16385 malliavin        -1.930519632       1.47236 -          0.000      0      98310\n"
    "kappa         16385 fd_central        49.19840967       1.14112 NO         0.000      2     196620\n"
    "reversion     16385 malliavin       0.02170963042    0.00995861 -          0.000      0      98310\n"
    "reversion     16385 fd_central       0.2485593857    0.00191328 NO         0.000      2     196620\n"
)

ALL_FD_CSV = (
    "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
    "malliavin,delta,16385,2,12345,0.21662292976623695,0.008997297204088966,98310,0.0\n"
    "fd_central,delta,16385,2,12345,0.5869787403517545,0.0045471397109051745,196620,0.0\n"
    "malliavin,rho,16385,2,12345,12.664518662832702,0.8612335676572032,98310,0.0\n"
    "fd_central,rho,16385,2,12345,49.705812822826864,0.3825867277079709,196620,0.0\n"
    "malliavin,vega,16385,2,12345,13.28062609336485,1.4906242809507617,98310,0.0\n"
    "fd_central,vega,16385,2,12345,39.30780174757583,0.58007842805305,196620,0.0\n"
    "malliavin,vega_v0,16385,2,12345,8.12746134452639,1.425741054489244,98310,0.0\n"
    "fd_central,vega_v0,16385,2,12345,49.17208098892013,1.061879343703691,196620,0.0\n"
    "malliavin,rho_r0,16385,2,12345,6.10850535403044,0.4060767313889497,98310,0.0\n"
    "fd_central,rho_r0,16385,2,12345,49.45729834316218,0.3806741415554742,196620,0.0\n"
    "malliavin,kappa,16385,2,12345,-1.9305196319487774,1.4723620468748375,98310,0.0\n"
    "fd_central,kappa,16385,2,12345,49.19840966653191,1.1411165796143066,196620,0.0\n"
    "malliavin,reversion,16385,2,12345,0.02170963042455508,0.009958605273931213,98310,0.0\n"
    "fd_central,reversion,16385,2,12345,0.2485593857310503,0.0019132823413071703,196620,0.0\n"
)


@pytest.mark.filterwarnings("ignore::hsv_greeks.DegenerateWeightWarning")
def test_compare_pins_every_fd_target_and_its_clamps(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in ALL_FD.items()),
                      encoding="utf-8")
    out = tmp_path / "compare.csv"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ALL_FD_TABLE
    assert out.read_text(encoding="utf-8") == ALL_FD_CSV
