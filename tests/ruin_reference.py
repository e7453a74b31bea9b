"""Reference Pollaczek-Khintchine ratio of one realised indicator vector.

The package computes the ratio from counts of connected objects per
``c/mu`` class (:func:`ruinnet.ruin._pk_from_counts`); this takes the
indicator of every object.
"""

import numpy as np

from ruinnet.model import RiskParams


def pk_value(indicators, params: RiskParams) -> float:
    """Pollaczek-Khintchine ratio for one realised indicator vector."""
    ind = np.asarray(indicators, dtype=bool)
    if ind.size != params.d:
        raise ValueError("indicator length does not match object count")
    n = int(ind.sum())
    if n == 0:
        return 0.0
    return float(params.lam * n / (params.c[ind] / params.mu[ind]).sum())
