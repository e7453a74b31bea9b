"""Reference Pollaczek-Khintchine ratio of one realised indicator vector,
and the exact ruin probability of a Bernoulli network by graph enumeration.

The package computes the ratio from counts of connected objects per
``c/mu`` class (:func:`ruinnet.ruin._pk_from_counts`); this takes the
indicator of every object.  :func:`estimate_one_group` is the estimator
for one group as a single binomial per class, with no group axis.
:func:`psi_summand` is the package's unchecked summand
(:func:`ruinnet.ruin._summand`) behind argument checks.
"""

import itertools
import math

import numpy as np

from netgen_reference import one_group_counts
from ruinnet.model import AgentSubset, RiskParams, proportional_r
from ruinnet.netgen import BlockModel
from ruinnet.ruin import _pk_from_counts, _summand
from ruinnet.streams import BLOCK_SIZE, RUIN_DOMAIN, mean_stderr, pairwise_sum, stream


def psi_summand(pk, r_q: float, total_reserve: float):
    """Each replicate's contribution to the ruin-probability estimator.

    ``pk * exp(-(1 - pk) * total_reserve / r_q)`` below 1, and 1 from 1
    upward (a realisation at or above 1 is certain ruin).  Continuous at
    ``pk = 1``.  Elementwise over an array of ratios; a float for a scalar.

    Raises:
        ValueError: On ``r_q`` not positive, and on a NaN or negative
            ``total_reserve`` or ``pk``.
    """
    if not r_q > 0:
        raise ValueError("r_q must be positive")
    if not total_reserve >= 0:
        if math.isnan(total_reserve):
            raise ValueError("total_reserve must not be NaN")
        raise ValueError("total reserve must be nonnegative")
    pk = np.asarray(pk, dtype=np.float64)
    if not (pk >= 0).all():
        raise ValueError("pk must not be NaN" if np.isnan(pk).any() else "pk must be nonnegative")
    return _summand(pk, total_reserve / r_q)


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
    r_q = proportional_r(params, group.size)
    reserve = float(params.u[group.zero_based()].sum())
    exact = 0.0
    for bits in itertools.product((0, 1), repeat=q * d):
        inc = np.array(bits, dtype=bool).reshape(q, d)
        n_edges = int(inc.sum())
        prob = edge_p**n_edges * (1 - edge_p) ** (q * d - n_edges)
        ind = inc[group.zero_based()].any(axis=0)
        exact += prob * psi_summand(pk_value(ind, params), r_q, reserve)
    return exact


def estimate_one_group(
    params: RiskParams, model: BlockModel, size_q: int, B: int, base_seed: int
) -> tuple[float, float, float]:
    """``(psi, psi_stderr, tail)`` of the collapsed estimator for the prefix
    group of ``size_q`` agents: each block draws the group's counts as
    :func:`netgen_reference.one_group_counts`, and each term is summed with
    a pairwise tree of its own."""
    group = AgentSubset.prefix(size_q)
    r_q, reserve = proportional_r(params, group.size), float(params.u[group.zero_based()].sum())
    blocks = []
    for k, lo in enumerate(range(0, B, BLOCK_SIZE)):
        rows = min(BLOCK_SIZE, B - lo)
        rng = stream(base_seed, RUIN_DOMAIN, k)
        counts = one_group_counts(model, size_q, params.class_sizes, rng, rows)
        pk = _pk_from_counts(params.lam, counts, params.class_ratio)
        psi = psi_summand(pk, r_q, reserve)
        blocks.append([pairwise_sum(a) for a in (psi, psi * psi, pk < 1.0)])
    total, total_sq, below = (pairwise_sum(column) for column in zip(*blocks))
    psi, stderr = mean_stderr(total, total_sq, B)
    return psi, stderr, below / B
