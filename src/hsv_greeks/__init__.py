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
    DEFAULTS,
    RunConfig,
    build_run_config,
    effective_config_text,
    load_config_file,
    parse_config_text,
)
from .engine import (
    PathAccumulators,
    PathSeries,
    Perturbation,
    SimConfig,
    simulate_paths,
    simulate_series,
    stable_mean_se,
    stable_sum,
    standard_draws,
)
from .errors import (
    DegenerateModel,
    DegenerateWeightWarning,
    EmptyInput,
    HsvGreeksError,
    InvalidBump,
    InvalidConfig,
    InvalidParams,
    NonPositiveSemiDefinite,
    NumericalBlowup,
    UnsupportedModel,
)
from .greeks import (
    GreekEstimate,
    WeightBundle,
    bismut_vector,
    delta,
    drift_sensitivity,
    price,
    rho,
    vega,
    weight_bundle,
)
from .models import (
    PAYOFF_KINDS,
    BlackScholesParams,
    CorrelationTriple,
    HestonVasicekParams,
    InitialState,
    MixingCoefficients,
    ModelSpec,
    Payoff,
    black_scholes_degenerate,
    check_derivative_consistency,
    evaluate_payoff,
    heston_vasicek_model,
    mixing_from_correlations,
    reconstruct_correlations,
)

__version__ = "0.1.0"
