"""Optimal forward-contract design for inventory under lognormal input prices.

Core objects: the censor price (the threshold above which re-stocking
purchases are truncated), the optimal forward quantity, the expected
profit of waiting, closed-form asymptotics with a long-horizon regime
map, the optimal re-stocking date, comparative statics, and Monte
Carlo / brute-force verification oracles.
"""

from .asymptotics import (
    AsymptoticEstimate,
    Regime,
    classify_regime,
    g_asymptotic_sigma,
    g_asymptotic_theta,
    g_theta_gap,
    w_bar,
    w_bar_asymptotic,
    w_bar_origin_limits,
    w_large_sigma,
    w_small_sigma,
)
from .censor import (
    CensorSolution,
    censor_F,
    censor_price,
    censor_time_path,
    log_censor_F,
    martingale_identity_residual,
    mu_hat,
    optimal_forward_quantity,
    solve_normal_censor,
    solve_normal_censor_array,
)
from .errors import ConvergenceError, DomainError
from .mc import (
    BruteForceResult,
    McEstimate,
    PriceSample,
    VerificationReport,
    brute_force_optimal_u,
    mc_censored_mean,
    mc_expected_profit,
    mc_martingale_check,
    run_verification,
    sample_prices,
)
from .model import ModelParams, ScaledParams
from .profit import (
    expected_profit,
    g_bar,
    indirect_profit,
    log_expected_profit,
    myopic_profit,
    value_of_waiting,
)
from .statics import (
    ShapeReport,
    StationaritySolution,
    censor_shape_check,
    db_dmu_sign,
    db_dsigma_sign,
    dw_dmu,
    dw_dsigma,
    hazard_identity_residual,
    omega_curve,
    omega_sweep,
    stationarity_solve,
)
from .timing import (
    CaseIIResult,
    TimingSolution,
    g_bar_prime,
    revenue,
    solve_foc,
    theta_case_i,
    theta_case_ii,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticEstimate",
    "BruteForceResult",
    "CaseIIResult",
    "CensorSolution",
    "ConvergenceError",
    "DomainError",
    "McEstimate",
    "ModelParams",
    "PriceSample",
    "Regime",
    "ScaledParams",
    "ShapeReport",
    "StationaritySolution",
    "TimingSolution",
    "VerificationReport",
    "brute_force_optimal_u",
    "censor_F",
    "censor_price",
    "censor_shape_check",
    "censor_time_path",
    "classify_regime",
    "db_dmu_sign",
    "db_dsigma_sign",
    "dw_dmu",
    "dw_dsigma",
    "expected_profit",
    "g_asymptotic_sigma",
    "g_asymptotic_theta",
    "g_bar",
    "g_bar_prime",
    "g_theta_gap",
    "hazard_identity_residual",
    "indirect_profit",
    "log_censor_F",
    "log_expected_profit",
    "martingale_identity_residual",
    "mc_censored_mean",
    "mc_expected_profit",
    "mc_martingale_check",
    "mu_hat",
    "myopic_profit",
    "omega_curve",
    "omega_sweep",
    "optimal_forward_quantity",
    "revenue",
    "run_verification",
    "sample_prices",
    "solve_foc",
    "solve_normal_censor",
    "solve_normal_censor_array",
    "stationarity_solve",
    "theta_case_i",
    "theta_case_ii",
    "value_of_waiting",
    "w_bar",
    "w_bar_asymptotic",
    "w_bar_origin_limits",
    "w_large_sigma",
    "w_small_sigma",
]
