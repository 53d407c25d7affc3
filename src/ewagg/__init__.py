"""Projection estimation, unbiased-risk model selection, and exponentially
weighted aggregation in the Gaussian sequence model, with Monte Carlo
verification of the associated oracle inequalities and special-function bounds.
"""

__version__ = "0.1.0"

from .sequence_model import (
    generate_observation,
    mean_vector_from_spec,
    squared_loss,
    true_projection_risk,
)
from .estimators import (
    aggregate,
    exponential_weights,
    m_epsilon,
    projection_estimate,
    risk_profile,
    ure_weights,
)
from .risk import OracleReport, oracle_risk
from .bounds import (
    PsiEvaluation,
    RegretBudgets,
    entropy,
    lemma4_bound,
    m_epsilon_budget,
    psi,
    r_rho,
    theorem_bounds,
    u_alpha,
    u_inverse,
    u_star_alpha,
    u_star_inverse,
)
from .montecarlo import (
    ComparisonRow,
    RiskEstimate,
    ScenarioConfig,
    lemma2_empirical,
    unbiasedness_check,
    verify_oracle_inequalities,
    verify_scenarios,
)

__all__ = [
    "__version__",
    "generate_observation",
    "true_projection_risk",
    "squared_loss",
    "mean_vector_from_spec",
    "projection_estimate",
    "risk_profile",
    "ure_weights",
    "exponential_weights",
    "aggregate",
    "m_epsilon",
    "OracleReport",
    "oracle_risk",
    "PsiEvaluation",
    "RegretBudgets",
    "u_alpha",
    "u_star_alpha",
    "u_inverse",
    "u_star_inverse",
    "entropy",
    "r_rho",
    "lemma4_bound",
    "psi",
    "theorem_bounds",
    "m_epsilon_budget",
    "ScenarioConfig",
    "RiskEstimate",
    "ComparisonRow",
    "verify_oracle_inequalities",
    "verify_scenarios",
    "lemma2_empirical",
    "unbiasedness_check",
]
