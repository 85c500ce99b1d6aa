"""Golden bytes of the command line.

The expected text of the six cases that draw was recorded when the draws
became rows of step-major Philox counters and the ``compare`` table gained
its ``clamps`` column; the three ``dump-config`` cases are older and did
not move.  Each weighted estimator keeps its own floating-point evaluation
order, so every digit must still match; a reordered product shows up here
as a changed last digit.  The two non-default ``dump-config`` cases were
recorded before the config keys moved into one schema; between them they
pin the canonical text of every kind of value (numbers, integers,
switches, ``auto``, lists and plain text).  The two-block ``compare`` and
``greeks`` cases have 16,385 paths, which cross the engine's 16,384-path
block edge.  The ``compare`` case with every finite-difference target pins
the bumped prices, and their clamp counts, of the state-only runs.
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
    "bump.vega_v0.scheme": "forward",
    "bump.rho.crn": "off",
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
    "bump.delta.crn": "off",
}

# 2*kappa*theta = 0.15 < sigma_vol^2 = 0.25: only accepted with enforcement off.
HYBRID_FELLER = {
    "model.kappa": "1.5",
    "model.theta": "0.05",
    "model.sigma_vol": "0.5",
    "model.positivity": "feller",
    "model.enforce_positivity": "off",
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
        "malliavin,price,512,16,12345,8.56848009664128,0.559956605052249,0,0.0\n"
        "malliavin,delta,512,16,12345,0.45428556333164727,0.1377721950097739,0,0.0\n"
        "malliavin,rho,512,16,12345,36.86007623652345,13.531604242871923,0,0.0\n"
        "malliavin,vega,512,16,12345,37.02108057518518,28.40677095384999,0,0.0\n"
        "malliavin,vega_v0,512,16,12345,-52.83914982201729,150.37384047398382,0,0.0\n"
        "malliavin,rho_r0,512,16,12345,263.84313886606,642.7531212656208,0,0.0\n"
        "malliavin,kappa,512,16,12345,-331.557062792947,523.0466113823256,0,0.0\n"
        "malliavin,reversion,512,16,12345,4.801690437434588,13.05858856526902,0,0.0\n"
        "fd_central,delta,512,16,12345,0.5688474588614005,0.02550213773742327,0,0.0\n"
        "fd_central,vega,512,16,12345,36.59375636755337,2.9886078055493948,0,0.0\n"
        ),
    ),
    "black_scholes_call": (
        "greeks", BS_CALL,
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,price,512,16,12345,9.988201187979147,0.6117622420185511,0,0.0\n"
        "malliavin,delta,512,16,12345,0.5727025700993804,0.05584959578893112,0,0.0\n"
        "malliavin,rho,512,16,12345,47.2820558219589,5.0342504177054535,0,0.0\n"
        "malliavin,vega,512,16,12345,23.32980011968929,9.893611115977956,0,0.0\n"
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
        "malliavin,price,512,16,12345,0.5183457215541,0.020954867882437195,0,0.0\n"
        "malliavin,delta,512,16,12345,0.018016112820791658,0.0011710274388692138,0,0.0\n"
        "malliavin,rho,512,16,12345,1.2832655605250658,0.10535539501329763,0,0.0\n"
        "malliavin,vega,512,16,12345,-0.7962779582117463,0.1712386811152991,0,0.0\n"
        "analytic,delta,512,16,12345,0.018762017345846895,0.0,0,0.0\n"
        ),
    ),
    "compare_two_blocks": (
        "compare", TWO_BLOCKS,
        (
        "greek       n_paths estimator               value     std_error agree    wall_ms n_sims     clamps\n"
        "--------------------------------------------------------------------------------------------------\n"
        "delta         16385 malliavin        0.5897773881     0.0228724 -          0.000      1          0\n"
        "delta         16385 fd_central       0.5920048426    0.00453168 yes        0.000      2          0\n"
        ),
    ),
    "greeks_two_blocks": (
        "greeks", TWO_BLOCKS,
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,delta,16385,2,12345,0.5897773880674475,0.022872403299585786,0,0.0\n"
        "fd_central,delta,16385,2,12345,0.5920048426487168,0.004531682805951914,0,0.0\n"
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
        "model.enforce_positivity=on\n"
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
        "bump.delta.scheme=central\n"
        "bump.delta.h=1.0\n"
        "bump.delta.crn=on\n"
        "bump.rho.scheme=central\n"
        "bump.rho.h=0.0001\n"
        "bump.rho.crn=off\n"
        "bump.vega.scheme=central\n"
        "bump.vega.h=0.0001\n"
        "bump.vega.crn=on\n"
        "bump.vega_v0.scheme=forward\n"
        "bump.vega_v0.h=0.0004\n"
        "bump.vega_v0.crn=on\n"
        "bump.reversion.scheme=central\n"
        "bump.reversion.h=0.0002\n"
        "bump.reversion.crn=on\n"
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
        "bump.delta.scheme=central\n"
        "bump.delta.h=0.9\n"
        "bump.delta.crn=off\n"
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
        "model.positivity=feller\n"
        "model.enforce_positivity=off\n"
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
        "bump.kappa.scheme=central\n"
        "bump.kappa.h=0.0001\n"
        "bump.kappa.crn=on\n"
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


# Every finite-difference target beside its weighted form, over two blocks,
# with a sigma floor above every volatility so each run clamps: the CSV's
# clamp column counts the clamps of both bumped re-simulations.  One bump
# draws independent sub-streams (crn=off), one is forward and one backward.
ALL_FD_GREEKS = ("delta", "rho", "vega", "vega_v0", "rho_r0", "kappa", "reversion")
ALL_FD = {
    "sim.n_paths": "16385",
    "sim.n_steps": "2",
    "sim.sigma_floor": "0.5",
    "estimators": ",".join(f"{m}:{g}" for g in ALL_FD_GREEKS
                           for m in ("malliavin", "fd")),
    "bump.rho.crn": "off",
    "bump.vega_v0.scheme": "forward",
    "bump.kappa.scheme": "backward",
}

ALL_FD_TABLE = (
    "greek       n_paths estimator               value     std_error agree    wall_ms n_sims     clamps\n"
    "--------------------------------------------------------------------------------------------------\n"
    "delta         16385 malliavin        0.2315902445    0.00881434 -          0.000      1      98310\n"
    "delta         16385 fd_central       0.5920048426    0.00453168 NO         0.000      2     196620\n"
    "rho           16385 malliavin         14.21869973      0.840049 -          0.000      0      98310\n"
    "rho           16385 fd_central        -727.474709       737.706 yes        0.000      2     196620\n"
    "vega          16385 malliavin         14.94213996       1.48362 -          0.000      0      98310\n"
    "vega          16385 fd_central        38.77869313      0.577555 NO         0.000      2     196620\n"
    "vega_v0       16385 malliavin          9.16036759       1.37738 -          0.000      0      98310\n"
    "vega_v0       16385 fd_forward         48.4885532       1.07606 NO         0.000      2     196620\n"
    "rho_r0        16385 malliavin         4.954323572      0.398416 -          0.000      0      98310\n"
    "rho_r0        16385 fd_central          49.986866      0.380578 NO         0.000      2     196620\n"
    "kappa         16385 malliavin        0.8188334082       1.40601 -          0.000      0      98310\n"
    "kappa         16385 fd_backward       48.49117793       1.14382 NO         0.000      2     196620\n"
    "reversion     16385 malliavin      -0.09407506844    0.00988522 -          0.000      0      98310\n"
    "reversion     16385 fd_central       0.2511321086    0.00191289 NO         0.000      2     196620\n"
)

ALL_FD_CSV = (
    "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
    "malliavin,delta,16385,2,12345,0.2315902444762816,0.008814339299057098,98310,0.0\n"
    "fd_central,delta,16385,2,12345,0.5920048426487168,0.004531682805951914,196620,0.0\n"
    "malliavin,rho,16385,2,12345,14.218699728842578,0.8400486790192854,98310,0.0\n"
    "fd_central,rho,16385,2,12345,-727.4747090419175,737.7061091622944,196620,0.0\n"
    "malliavin,vega,16385,2,12345,14.942139956913632,1.483615772006697,98310,0.0\n"
    "fd_central,vega,16385,2,12345,38.77869312501644,0.5775551648242188,196620,0.0\n"
    "malliavin,vega_v0,16385,2,12345,9.160367590143315,1.3773846478830438,98310,0.0\n"
    "fd_forward,vega_v0,16385,2,12345,48.48855320101185,1.076064174104738,196620,0.0\n"
    "malliavin,rho_r0,16385,2,12345,4.954323572479987,0.39841567514385506,98310,0.0\n"
    "fd_central,rho_r0,16385,2,12345,49.98686599638068,0.3805775735669542,196620,0.0\n"
    "malliavin,kappa,16385,2,12345,0.8188334081590503,1.4060069771537773,98310,0.0\n"
    "fd_backward,kappa,16385,2,12345,48.49117793135311,1.1438212930361904,196620,0.0\n"
    "malliavin,reversion,16385,2,12345,-0.09407506844118085,0.009885220876383938,98310,0.0\n"
    "fd_central,reversion,16385,2,12345,0.251132108620539,0.0019128913136517024,196620,0.0\n"
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
