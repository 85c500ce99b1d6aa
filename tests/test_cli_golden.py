"""Golden bytes of the command line.

The expected text below was produced by the command line before the
per-Greek estimators were folded into one table.  Each weighted estimator
keeps its own floating-point evaluation order, so every digit must still
match; a reordered product shows up here as a changed last digit.  The two
non-default ``dump-config`` cases were recorded before the config keys moved
into one schema; between them they pin the canonical text of every kind of
value (numbers, integers, switches, ``auto``, lists and plain text).  The
two-block ``compare`` and ``greeks`` cases were recorded before the draws
were stored step-major and the exact sum was vectorised: their 16,385 paths
cross the engine's 16,384-path block edge and every chunk edge of the draws.
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
        "malliavin,price,512,16,12345,9.235581030562912,0.6162129270135229,0,0.0\n"
        "malliavin,delta,512,16,12345,0.6208657957461922,0.12653272148859057,0,0.0\n"
        "malliavin,rho,512,16,12345,52.8509985440563,12.378203747516963,0,0.0\n"
        "malliavin,vega,512,16,12345,43.386925539920355,20.57009028033208,0,0.0\n"
        "malliavin,vega_v0,512,16,12345,202.1082523548559,135.25368144305017,0,0.0\n"
        "malliavin,rho_r0,512,16,12345,296.3532351870976,714.1393159052135,0,0.0\n"
        "malliavin,kappa,512,16,12345,112.11027683001724,480.8743253725638,0,0.0\n"
        "malliavin,reversion,512,16,12345,5.621109028452013,14.48296053170087,0,0.0\n"
        "fd_central,delta,512,16,12345,0.5966008208436072,0.025759710858163098,0,0.0\n"
        "fd_central,vega,512,16,12345,40.61263572368058,3.451664532959839,0,0.0\n"
        ),
    ),
    "black_scholes_call": (
        "greeks", BS_CALL,
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,price,512,16,12345,10.75920416992107,0.6732780756239278,0,0.0\n"
        "malliavin,delta,512,16,12345,0.6752417783096293,0.07090363380818507,0,0.0\n"
        "malliavin,rho,512,16,12345,56.764973661041864,6.479695044209142,0,0.0\n"
        "malliavin,vega,512,16,12345,46.75474746870395,13.838316358447045,0,0.0\n"
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
        "malliavin,price,512,16,12345,0.5313508113421958,0.020894986794091863,0,0.0\n"
        "malliavin,delta,512,16,12345,0.01935832700915735,0.0012656634335880199,0,0.0\n"
        "malliavin,rho,512,16,12345,1.4044818895735391,0.11521444661183676,0,0.0\n"
        "malliavin,vega,512,16,12345,-0.5349197173658806,0.21795521726971379,0,0.0\n"
        "analytic,delta,512,16,12345,0.018762017345846895,0.0,0,0.0\n"
        ),
    ),
    "compare_two_blocks": (
        "compare", TWO_BLOCKS,
        (
        "greek       n_paths estimator               value     std_error agree    wall_ms n_sims\n"
        "---------------------------------------------------------------------------------------\n"
        "delta         16385 malliavin        0.5926536817     0.0231757 -          0.000      1\n"
        "delta         16385 fd_central       0.5828588864      0.004539 yes        0.000      2\n"
        ),
    ),
    "greeks_two_blocks": (
        "greeks", TWO_BLOCKS,
        (
        "estimator,greek,n_paths,n_steps,seed,value,std_error,clamp_count,wall_time_ms\n"
        "malliavin,delta,16385,2,12345,0.5926536817154627,0.023175746374866524,0,0.0\n"
        "fd_central,delta,16385,2,12345,0.582858886419027,0.004539002131744035,0,0.0\n"
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
