"""Oracle risk over a model family, and regret relative to it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence_model import MeanVector, ModelIndexSet, NoiseLevel

__all__ = ["OracleReport", "oracle_risk", "regret"]


@dataclass(frozen=True)
class OracleReport:
    """Best exact projection risk over the family, plus regret budgets.

    The budget fields stay None until the bound evaluators fill them in.
    """

    oracle_risk: float
    oracle_index: int
    regret_budget_t1: float | None = None
    regret_budget_t2: float | None = None
    regret_budget_t3: float | None = None

    @property
    def combined_budget(self) -> float | None:
        """Minimum of the two exponential-weighting budgets, once filled."""
        if self.regret_budget_t2 is None or self.regret_budget_t3 is None:
            return None
        return min(self.regret_budget_t2, self.regret_budget_t3)


def oracle_risk(mu: MeanVector, sigma: NoiseLevel, M: ModelIndexSet) -> OracleReport:
    """Exact minimum of the projection risk over M, ties to smallest m.

    Each risk is the same sum true_projection_risk gives for that m.
    """
    if M.max_index > mu.declared_length:
        raise ValueError(
            f"max model index {M.max_index} exceeds the mean vector length "
            f"{mu.declared_length}"
        )
    risks = mu.tail_squared_norms()[M.indices] + sigma.variance * M.indices
    pos = int(np.argmin(risks))  # first occurrence breaks ties toward smaller m
    return OracleReport(oracle_risk=float(risks[pos]), oracle_index=int(M.indices[pos]))


def regret(mc_risk: float, oracle: OracleReport) -> float:
    """Excess of an estimated risk over the oracle risk (may be negative within MC error)."""
    return float(mc_risk) - oracle.oracle_risk
