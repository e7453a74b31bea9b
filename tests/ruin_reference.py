"""Reference Pollaczek-Khintchine ratio of one realised indicator vector,
and the exact ruin probability of a Bernoulli network by graph enumeration.

The package computes the ratio from counts of connected objects per
``c/mu`` class (:func:`ruinnet.ruin._pk_from_counts`); this takes the
indicator of every object.  :func:`estimate_one_group` is the estimator
for one group as a single binomial per class, with no group axis, summed
over a histogram of its count vectors as the package sums a small lattice.
:func:`estimate_by_replicate` is the estimator that evaluates every
replicate and sums with pairwise trees, as the package sums a large
lattice.  :func:`psi_summand` is the package's unchecked summand
(:func:`ruinnet.ruin._summand`) behind argument checks.
"""

import itertools
import math
from collections import Counter

import numpy as np

from netgen_reference import one_group_counts
from ruinnet.model import AgentSubset, RiskParams, proportional_r
from ruinnet.netgen import BlockModel, sample_prefix_counts
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


def histogram_moments(hist: Counter, values: dict, n: int) -> tuple[float, float]:
    """Mean and standard error of ``n`` values, point ``x`` of ``hist`` seen
    ``hist[x]`` times with value ``values[x]``: ``math.fsum`` of the
    products, and the variance about the most frequent point (the first in
    lattice order on a tie), one point at a time in Python floats."""
    points = sorted(hist)
    centre = values[max(points, key=hist.__getitem__)]  # max keeps the first of equals
    mean = math.fsum(hist[x] * values[x] for x in points) / n
    dev = [(hist[x] * (values[x] - centre), values[x] - centre) for x in points]
    s1, s2 = math.fsum(a for a, _ in dev), math.fsum(a * b for a, b in dev)
    var = max(0.0, (s2 - s1 * (s1 / n)) / (n - 1))
    return mean, math.sqrt(var / n)


def estimate_one_group(
    params: RiskParams, model: BlockModel, size_q: int, B: int, base_seed: int
) -> tuple[float, float, float]:
    """``(psi, psi_stderr, tail)`` of the collapsed estimator for the prefix
    group of ``size_q`` agents on a small lattice: each block draws the
    group's counts as :func:`netgen_reference.one_group_counts`, every count
    vector is tallied in one histogram across blocks, and each visited
    vector's summand is evaluated once (:func:`histogram_moments`)."""
    group = AgentSubset.prefix(size_q)
    r_q, reserve = proportional_r(params, group.size), float(params.u[group.zero_based()].sum())
    hist = Counter()
    for k, lo in enumerate(range(0, B, BLOCK_SIZE)):
        rng = stream(base_seed, RUIN_DOMAIN, k)
        counts = one_group_counts(model, size_q, params.class_sizes, rng, min(BLOCK_SIZE, B - lo))
        hist.update(map(tuple, counts.tolist()))
    points = sorted(hist)
    pk = _pk_from_counts(params.lam, np.array(points, dtype=np.int64), params.class_ratio)
    psi = psi_summand(pk, r_q, reserve).tolist()
    mean, stderr = histogram_moments(hist, dict(zip(points, psi)), B)
    below = sum(hist[x] for x, value in zip(points, pk.tolist()) if value < 1.0)
    return mean, stderr, below / B


def estimate_by_replicate(
    params: RiskParams, model: BlockModel, sizes, B: int, base_seed: int
) -> list[tuple[float, float, float]]:
    """``(psi, psi_stderr, tail)`` per prefix group of ``sizes`` agents,
    every replicate evaluated: each block draws the nested counts of
    :func:`ruinnet.netgen.sample_prefix_counts` in one piece (as the package
    does while a block fits one chunk), and each group's summand, its square
    and ``1{PK < 1}`` are summed with a pairwise tree within each block and
    then across blocks."""
    blocks = []
    for k, lo in enumerate(range(0, B, BLOCK_SIZE)):
        rows = min(BLOCK_SIZE, B - lo)
        rng = stream(base_seed, RUIN_DOMAIN, k)
        counts = sample_prefix_counts(model, sizes, params.class_sizes, rng, rows)
        block = []
        for j, size in enumerate(sizes):
            pk = _pk_from_counts(params.lam, counts[:, j], params.class_ratio)
            reserve = float(params.u[:size].sum())
            psi = psi_summand(pk, proportional_r(params, size), reserve)
            block.append([pairwise_sum(a) for a in (psi, psi * psi, pk < 1.0)])
        blocks.append(block)
    out = []
    for j in range(len(sizes)):
        total, total_sq, below = (pairwise_sum(c) for c in zip(*(b[j] for b in blocks)))
        psi, stderr = mean_stderr(total, total_sq, B)
        out.append((psi, stderr, below / B))
    return out
