"""Reference mixture statistics computed object by object from realised types,
and exact mode as one Python loop over the collapsed configurations.

The package summarises a configuration from its collapsed counts
(:func:`ruinnet.approx._stats_from_counts` on
:func:`ruinnet.netgen.connect_given_counts`); :func:`mixture_stats` takes
the agent- and object-type labels themselves.  :func:`exact_by_loop`
walks the configurations one at a time, each with its own multinomial
weight, normal tail and bound term, where the package enumerates them as
arrays.  :func:`sampled_one_group` is sampled mode for one group as a
single-group draw, block by block, where the package draws nested groups.
"""

import itertools
import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from model_reference import LoadingVector
from ruinnet.approx import BOUND_CONSTANT, _stats_from_counts, _terms
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel, connect_given_counts
from ruinnet.streams import APPROX_DOMAIN, BLOCK_SIZE, mean_stderr, pairwise_sum, stream


@dataclass(frozen=True)
class MixtureStats:
    """Normal-component statistics of one type configuration.

    Attributes:
        mean: ``sum_j (xi_j - 1) p(c_j)``.
        variance: ``sum_j (xi_j - 1)^2 p(c_j)(1 - p(c_j))``.
        third_sum: ``sum_j E|Z_j(c)|^3`` (0 and ``degenerate=True`` when the
            variance vanishes).
        weight: Probability or sampling weight of the configuration.
        degenerate: The component is a point mass at ``mean``.
    """

    mean: float
    variance: float
    third_sum: float
    weight: float = 1.0
    degenerate: bool = False

    def __post_init__(self):
        if self.variance < 0 or self.third_sum < 0:
            raise ValueError("variance and third_sum must be nonnegative")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")


def p_of_config(model: BlockModel, agent_types, object_type: int) -> float:
    """Conditional group-connection probability given realised types:
    ``1 - prod_i (1 - p[s(i), t])``."""
    s = np.asarray(agent_types, dtype=np.int64)
    t = int(object_type)
    if s.min(initial=0) < 0 or s.max(initial=0) >= model.K or not 0 <= t < model.L:
        raise ValueError("type labels out of range")
    return float(1.0 - np.prod(1.0 - model.p[s, t]))


def mixture_stats(
    params: RiskParams,
    loadings: LoadingVector,
    model: BlockModel,
    agent_types,
    object_types,
) -> MixtureStats:
    """Normal-component statistics for one realised type configuration."""
    s = np.asarray(agent_types, dtype=np.int64)
    t = np.asarray(object_types, dtype=np.int64)
    if t.size != params.d:
        raise ValueError("object types must cover every object")
    pc = 1.0 - np.prod(1.0 - model.p[s[:, None], t[None, :]], axis=0)
    xm = loadings.xi - 1.0
    mean = float((xm * pc).sum())
    var = float((xm * xm * pc * (1.0 - pc)).sum())
    if var == 0.0:
        return MixtureStats(mean=mean, variance=0.0, third_sum=0.0, degenerate=True)
    raw3 = float((np.abs(xm) ** 3 * (pc * (1.0 - pc) ** 3 + (1.0 - pc) * pc**3)).sum())
    return MixtureStats(mean=mean, variance=var, third_sum=raw3 / var**1.5)


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative counts summing to ``total``,
    first count slowest."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def multinomial_weight(counts, probs: np.ndarray) -> float:
    """Probability of the type counts ``counts`` of iid draws from ``probs``."""
    log_w = lgamma(sum(counts) + 1)
    for m, pr in zip(counts, probs):
        if m == 0:
            continue
        if pr == 0.0:
            return 0.0
        log_w += m * math.log(pr) - lgamma(m + 1)
    return math.exp(log_w)


def weighted_compositions(total: int, probs: np.ndarray):
    """Type counts of ``total`` draws from ``probs`` with positive weight."""
    weighted = ((c, multinomial_weight(c, probs)) for c in compositions(int(total), probs.size))
    return [(counts, weight) for counts, weight in weighted if weight > 0.0]


def collapsed_configurations(model: BlockModel, xi_vals, sizes, size_q: int):
    """Yield ``(weight, mean, variance, raw3, connected)`` per collapsed
    configuration: agent-type counts slowest, then each class's object-type
    counts; ``connected`` is the expected connected count."""
    per_class = [weighted_compositions(dg, model.v) for dg in sizes]
    for m_counts, w_agent in weighted_compositions(size_q, model.w):
        p_l = connect_given_counts(model, np.asarray(m_counts, dtype=np.int64))
        for combo in itertools.product(*per_class):
            weight = w_agent
            for _, w_comp in combo:
                weight *= w_comp
            counts_gl = np.asarray([comp for comp, _ in combo], dtype=np.float64)
            stats = _stats_from_counts(xi_vals, counts_gl, p_l)
            yield (weight, *map(float, stats))


@dataclass(frozen=True)
class LoopResult:
    """Exact mode's totals: tail probability, bound, configuration count and
    point-mass weight; and the common sign of the configurations' means (0
    when they differ)."""

    probability: float
    stein_bound: float
    config_count: int
    degenerate_weight: float
    mean_sign: int


def exact_by_loop(params: RiskParams, model: BlockModel, group: AgentSubset) -> LoopResult:
    """Exact-mode mixture approximation, one configuration at a time."""
    xi_vals, sizes = params.class_ratio / params.lam, params.class_sizes
    prob = bound = deg_weight = 0.0
    count = 0
    signs = set()
    configs = collapsed_configurations(model, xi_vals, sizes, group.size)
    for weight, mean, var, raw3, connected in configs:
        count += 1
        if weight > 0.0:
            signs.add((mean > 0) - (mean < 0))
        if var == 0.0:
            # a point mass: in the tail at a positive mean, or with no
            # connected object (PK = 0/0 := 0); a tie at mean 0 stays out
            prob += weight * (1.0 if mean > 0 or connected == 0.0 else 0.0)
            deg_weight += weight
        else:
            prob += weight * (0.5 * math.erfc(-mean / math.sqrt(2.0 * var)))
            bound += weight * BOUND_CONSTANT * raw3 / var**1.5
    return LoopResult(
        probability=min(prob, 1.0),
        stein_bound=bound,
        config_count=count,
        degenerate_weight=deg_weight,
        mean_sign=signs.pop() if len(signs) == 1 else 0,
    )


def sampled_one_group(
    params: RiskParams, model: BlockModel, size_q: int, m_configs: int, base_seed: int
) -> tuple[float, ...]:
    """``(probability, stein_bound, sampling_stderr, degenerate_weight)`` of
    sampled mode for one group: each block draws ``Multinomial(size_q, w)``
    agent-type counts (when ``K > 1``) and then ``Multinomial(d_g, v)``
    object counts per class (when ``L > 1``), with no group axis, and sums
    each term with a pairwise tree of its own."""
    sizes, xi_vals = params.class_sizes, params.class_ratio / params.lam
    blocks = []
    for k, lo in enumerate(range(0, m_configs, BLOCK_SIZE)):
        rows = min(BLOCK_SIZE, m_configs - lo)
        rng = stream(base_seed, APPROX_DOMAIN, k)
        m = rng.multinomial(size_q, model.w, size=rows) if model.K > 1 else [[size_q]]
        connect = connect_given_counts(model, m)
        if model.L > 1:
            counts = rng.multinomial(sizes, model.v, size=(rows, sizes.size))
        else:
            counts = sizes[None, :, None]
        stats = np.broadcast_to(_stats_from_counts(xi_vals, counts, connect), (4, rows))
        prob, bound, point = _terms(1.0, *stats)
        blocks.append([pairwise_sum(a) for a in (prob, prob * prob, bound, point)])
    total, total_sq, bound, point = (pairwise_sum(column) for column in zip(*blocks))
    probability, stderr = mean_stderr(total, total_sq, m_configs)
    return probability, bound / m_configs, stderr, point / m_configs
