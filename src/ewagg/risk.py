"""Oracle risk over a model family."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .sequence_model import true_projection_risk

__all__ = ["OracleReport", "oracle_risk"]


class OracleReport(NamedTuple):
    """Best exact projection risk over the family and the model attaining it."""

    oracle_risk: float
    oracle_index: int


def oracle_risk(mu: np.ndarray, sigma: float, M: np.ndarray) -> OracleReport:
    """Exact minimum of the projection risk over M, ties to smallest m."""
    if M[-1] > mu.size:
        raise ValueError(f"max model index {M[-1]} exceeds the mean vector length {mu.size}")
    risks = true_projection_risk(mu, sigma, M)
    pos = int(np.argmin(risks))  # first occurrence breaks ties toward smaller m
    return OracleReport(oracle_risk=float(risks[pos]), oracle_index=int(M[pos]))
