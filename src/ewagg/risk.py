"""Oracle risk over a model family."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence_model import MeanVector, ModelIndexSet, NoiseLevel, true_projection_risk

__all__ = ["OracleReport", "oracle_risk"]


@dataclass(frozen=True)
class OracleReport:
    """Best exact projection risk over the family and the model attaining it."""

    oracle_risk: float
    oracle_index: int


def oracle_risk(mu: MeanVector, sigma: NoiseLevel, M: ModelIndexSet) -> OracleReport:
    """Exact minimum of the projection risk over M, ties to smallest m."""
    if M.max_index > mu.declared_length:
        raise ValueError(
            f"max model index {M.max_index} exceeds the mean vector length "
            f"{mu.declared_length}"
        )
    risks = true_projection_risk(mu, sigma, M.indices)
    pos = int(np.argmin(risks))  # first occurrence breaks ties toward smaller m
    return OracleReport(oracle_risk=float(risks[pos]), oracle_index=int(M.indices[pos]))

