"""Reference Pollaczek-Khintchine ratio of one realised indicator vector,
and the exact ruin probability of a Bernoulli network by graph enumeration.

The package computes the ratio from counts of connected objects per
``c/mu`` class (:func:`ruinnet.ruin._pk_from_counts`); this takes the
indicator of every object.
"""

import itertools

import numpy as np

from ruinnet.model import AgentSubset, RiskParams, proportional_r
from ruinnet.ruin import psi_summand


def pk_value(indicators, params: RiskParams) -> float:
    """Pollaczek-Khintchine ratio for one realised indicator vector."""
    ind = np.asarray(indicators, dtype=bool)
    if ind.size != params.d:
        raise ValueError("indicator length does not match object count")
    n = int(ind.sum())
    if n == 0:
        return 0.0
    return float(params.lam * n / (params.c[ind] / params.mu[ind]).sum())


def exhaustive_graph_psi(params: RiskParams, edge_p: float, group: AgentSubset) -> float:
    """Exact ruin probability on a Bernoulli(``edge_p``) network: the ruin
    summand of every one of the ``2^(q*d)`` graphs, weighted by its probability."""
    q, d = params.q, params.d
    r_q = proportional_r(params, group)
    reserve = float(params.u[group.zero_based()].sum())
    exact = 0.0
    for bits in itertools.product((0, 1), repeat=q * d):
        inc = np.array(bits, dtype=bool).reshape(q, d)
        n_edges = int(inc.sum())
        prob = edge_p**n_edges * (1 - edge_p) ** (q * d - n_edges)
        ind = inc[group.zero_based()].any(axis=0)
        exact += prob * psi_summand(pk_value(ind, params), r_q, reserve)
    return exact
