"""Reference per-object safety loadings and the classical ruin formula.

The package keys objects by their premium-to-claim ratio ``c_j/mu_j``
(:attr:`ruinnet.model.RiskParams.class_ratio`); these per-object loadings
are the reference that the per-object mixture statistics in
``approx_reference`` are written in.  :func:`classical_ruin` is the
closed-form oracle of the degenerate one-agent, one-object network.
"""

import math
from dataclasses import dataclass

import numpy as np

from ruinnet.model import RiskParams


@dataclass(frozen=True)
class LoadingVector:
    """Per-object safety loadings: ``rho_j = lam*mu_j/c_j`` and ``xi_j = 1/rho_j``."""

    rho: np.ndarray
    xi: np.ndarray


def compute_loadings(params: RiskParams) -> LoadingVector:
    """Elementwise safety loadings ``rho_j = lam*mu_j/c_j`` and ``xi_j = c_j/(lam*mu_j)``."""
    rho = params.lam * params.mu / params.c
    xi = params.c / (params.lam * params.mu)
    return LoadingVector(rho=rho, xi=xi)


def classical_ruin(lam: float, mu_j: float, c_j: float, u: float) -> float:
    """Ruin probability of a single agent fully insuring a single object
    with exponential claims: ``rho * exp(-(c - lam*mu) * u / (c * mu))``,
    or 1 when ``rho = lam*mu/c >= 1``."""
    if not (lam > 0 and mu_j > 0 and c_j > 0):
        raise ValueError("lam, mu_j and c_j must be positive")
    if u < 0:
        raise ValueError("reserve u must be nonnegative")
    rho = lam * mu_j / c_j
    if rho >= 1.0:
        return 1.0
    return rho * math.exp(-(c_j - lam * mu_j) * u / (c_j * mu_j))
