"""Solver and simulator for linear-quadratic robust incentive Stackelberg
games against a mean-field follower population.

Pipeline: ModelParams -> leader (attenuation certificate, block Riccati,
saddle gains) -> incentive (matching sweep marching the follower chain,
its relation check, follower best replies) -> sim (Monte Carlo of the
limit and N-follower systems, cost and rate checks) -> cli (artifacts).
"""

__version__ = "0.1.0"

from .model import (
    DimensionError,
    MatrixTrajectory,
    ModelParams,
    ParseError,
    TimeGrid,
    ValidationReport,
    load_config,
    save_config,
    validate_assumptions,
)
from .odeint import Escape, GridMismatch, OdeProblem, integrate, residual
from .leader import (
    BlockRiccatiSolution,
    ConcavityCertificate,
    GammaHatResult,
    LeaderGains,
    NotSolvableAtCap,
    SingularGain,
    estimate_gamma_hat,
    leader_gains,
    leader_value,
    solve_block_riccati,
    solve_concavity,
    stationarity_residual,
)
from .incentive import (
    CCCoefficients,
    DeltaThetaSolution,
    FollowerGains,
    IncentiveMatrices,
    NoIncentiveSolution,
    RelationViolated,
    SigmaPhiPsiSolution,
    cc_coefficients,
    follower_gains,
    matching_residual,
    solve_cc_incentive,
    solve_sigma_phi_psi,
    zeta_eta,
)
from .sim import (
    CostReport,
    NonFiniteState,
    PathBundle,
    SaddleReport,
    SimConfig,
    SweepReport,
    eval_costs,
    incentive_match,
    saddle_check,
    simulate_limit,
    simulate_population,
    sweep_mean_field_gap,
    sweep_optimality_gap,
)

__all__ = [
    "__version__",
    "DimensionError", "MatrixTrajectory", "ModelParams", "ParseError",
    "TimeGrid", "ValidationReport", "load_config", "save_config",
    "validate_assumptions",
    "Escape", "GridMismatch", "OdeProblem", "integrate", "residual",
    "BlockRiccatiSolution", "ConcavityCertificate", "GammaHatResult",
    "LeaderGains", "NotSolvableAtCap", "SingularGain", "estimate_gamma_hat",
    "leader_gains", "leader_value", "solve_block_riccati", "solve_concavity",
    "stationarity_residual",
    "CCCoefficients", "DeltaThetaSolution", "FollowerGains",
    "IncentiveMatrices", "NoIncentiveSolution",
    "RelationViolated", "SigmaPhiPsiSolution", "cc_coefficients",
    "follower_gains", "matching_residual", "solve_cc_incentive",
    "solve_sigma_phi_psi", "zeta_eta",
    "CostReport", "NonFiniteState", "PathBundle", "SaddleReport", "SimConfig",
    "SweepReport", "eval_costs", "incentive_match", "saddle_check",
    "simulate_limit", "simulate_population", "sweep_mean_field_gap",
    "sweep_optimality_gap",
]
