"""Projection estimation, unbiased-risk model selection, and exponentially
weighted aggregation in the Gaussian sequence model, with Monte Carlo
verification of the associated oracle inequalities and special-function bounds.
"""

__version__ = "0.1.0"

from .sequence_model import (
    MeanVector,
    ModelIndexSet,
    NoiseLevel,
    Observation,
    generate_observation,
    mean_vector_from_spec,
    squared_loss,
    true_projection_risk,
)
from .estimators import (
    RiskProfile,
    WeightVector,
    aggregate,
    exponential_weights,
    m_epsilon,
    projection_estimate,
    risk_profile,
    unbiased_risk,
    ure_weights,
)
from .risk import OracleReport, oracle_risk
from .bounds import (
    PsiEvaluation,
    RegretBudgets,
    entropy,
    lemma4_bound,
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
    MEpsilonReport,
    RiskEstimate,
    ScenarioConfig,
    lemma2_empirical,
    m_epsilon_budget,
    m_epsilon_study,
    mc_risk,
    unbiasedness_check,
    verify_oracle_inequalities,
)

__all__ = [
    "__version__",
    "MeanVector",
    "NoiseLevel",
    "Observation",
    "ModelIndexSet",
    "generate_observation",
    "true_projection_risk",
    "squared_loss",
    "mean_vector_from_spec",
    "RiskProfile",
    "WeightVector",
    "projection_estimate",
    "unbiased_risk",
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
    "ScenarioConfig",
    "RiskEstimate",
    "ComparisonRow",
    "MEpsilonReport",
    "mc_risk",
    "verify_oracle_inequalities",
    "lemma2_empirical",
    "unbiasedness_check",
    "m_epsilon_study",
    "m_epsilon_budget",
]
