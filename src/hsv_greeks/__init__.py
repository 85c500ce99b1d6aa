"""Monte Carlo Greeks for hybrid stochastic-volatility / stochastic-rate
models via Malliavin-calculus weights, with finite-difference and
closed-form baselines."""

from .baselines import (
    BsClosedForm,
    BumpSpec,
    agrees,
    bs_closed_form,
    default_bump_size,
    fd_greek,
)
from .config import (
    RunConfig,
    build_run_config,
    effective_config_text,
    load_config_file,
)
from .engine import (
    PathAccumulators,
    SimConfig,
    simulate_paths,
    stable_mean_se,
)
from .errors import (
    DegenerateWeightWarning,
    HsvGreeksError,
    InvalidConfig,
    InvalidParams,
    NonFiniteEstimate,
    NumericalBlowup,
    UnsupportedModel,
)
from .greeks import (
    GreekEstimate,
    bismut_vector,
    delta,
    drift_sensitivity,
    price,
    rho,
    vega,
)
from .models import (
    CorrelationTriple,
    HestonVasicekParams,
    InitialState,
    ModelSpec,
    Payoff,
    black_scholes_degenerate,
    evaluate_payoff,
    heston_vasicek_model,
)

__version__ = "0.1.0"
