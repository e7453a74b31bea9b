"""Reference per-object safety loadings.

The package keys objects by their premium-to-claim ratio ``c_j/mu_j``
(:func:`ruinnet.model.object_classes`); these per-object loadings are the
reference that the per-object mixture statistics in
``approx_reference`` are written in.
"""

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
