"""Monte Carlo Greeks for hybrid stochastic-volatility / stochastic-rate
models via Malliavin-calculus weights, with finite-difference and
closed-form baselines."""

import logging

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
    DegenerateModel,
    DegenerateWeightWarning,
    EmptyInput,
    HsvGreeksError,
    InvalidBump,
    InvalidConfig,
    InvalidParams,
    NonFiniteEstimate,
    NonPositiveSemiDefinite,
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

# The library is silent unless the application configures logging: without
# a handler of its own, logging's last-resort handler would print warnings
# (such as the Black–Scholes degeneracy notice) to stderr.
logging.getLogger(__name__).addHandler(logging.NullHandler())
