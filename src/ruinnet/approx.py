"""Mixture-of-normals approximation of the tail probability P(PK ratio < 1).

Conditionally on the type configuration of the group and the objects, the
group-connection indicators are independent Bernoulli variables, so the
weighted indicator sum ``sum_j (xi_j - 1) I_j`` is approximately normal
with mean ``sum_j (xi_j - 1) p(c_j)`` and variance
``sum_j (xi_j - 1)^2 p(c_j)(1 - p(c_j))``.  Mixing the per-configuration
normals with the configuration law yields an approximation of the tail
probability together with an explicit error bound

    9.4 * sum_c P(config = c) * sum_j E|Z_j(c)|^3,

where ``Z_j(c)`` are the standardised summands, with

    E|Z_j(c)|^3 = |xi_j - 1|^3 * (p(1-p)^3 + (1-p) p^3) / sigma^3(c).

The per-configuration sums collapse over exchangeable coordinates: agent
types enter only through their multiset, and objects of equal loading
enter only through per-type counts, which keeps exact enumeration feasible
far beyond the raw configuration space.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from math import lgamma
from typing import Iterator, Optional

import numpy as np

from .model import AgentSubset, RiskParams, object_classes
from .netgen import BlockModel, _in_chunks, connect_given_counts, sample_configurations
from .streams import APPROX_DOMAIN, block_totals, mean_stderr

#: Constant of the Berry-Esseen-type bound for sums of independent,
#: not identically distributed summands.
BOUND_CONSTANT = 9.4

#: Largest number of collapsed configurations exact mode will enumerate.
MAX_EXACT_TERMS = 1_000_000

TAIL_TO_ONE = "TAIL_TO_ONE"
TAIL_TO_ZERO = "TAIL_TO_ZERO"
INDETERMINATE = "INDETERMINATE"

MODE_EXACT = "exact"
MODE_SAMPLED = "sampled"
MODE_AUTO = "auto"

#: Fewest configurations sampled mode accepts.
MIN_SAMPLED_CONFIGS = 100


@dataclass(frozen=True)
class ApproxResult:
    """Aggregated mixture approximation with its error bound.

    ``degenerate_weight`` records the total weight of point-mass
    components, which contribute nothing to the bound.
    """

    probability: float
    stein_bound: float
    mode: str
    config_count: int
    sampling_stderr: Optional[float] = None
    degenerate_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError("probability must lie in [0, 1]")
        if self.stein_bound < 0:
            raise ValueError("bound must be nonnegative")


@dataclass(frozen=True)
class PhaseVerdict:
    """Asymptotic phase of the tail probability as the object count grows."""

    limit_mean_sign: int
    verdict: str
    beta: float


def normal_positive_prob(mean: float, variance: float) -> float:
    """P(N(mean, variance) > 0), i.e. Phi(mean/sqrt(variance)).

    Evaluated through the complementary error function (absolute error
    below 1e-12 over the whole range).  A zero variance denotes a point
    mass at ``mean``.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if variance == 0.0:
        return 1.0 if mean > 0 else 0.0
    return 0.5 * math.erfc(-mean / math.sqrt(2.0 * variance))


def _stats_from_counts(
    xi_vals: np.ndarray, counts_gl: np.ndarray, p_l: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, variance, raw third-moment sum) from per-(class, object-type) counts.

    ``counts_gl`` has shape ``(..., G, L)`` and the connection probabilities
    ``p_l`` shape ``(..., L)``; leading axes broadcast, one result per
    configuration.
    """
    xm = xi_vals - 1.0
    s2 = p_l * (1.0 - p_l)
    h = p_l * (1.0 - p_l) ** 3 + (1.0 - p_l) * p_l**3

    def per_class(x: np.ndarray) -> np.ndarray:
        return (counts_gl @ x[..., None])[..., 0]

    mean = (xm * per_class(p_l)).sum(axis=-1)
    var = (xm * xm * per_class(s2)).sum(axis=-1)
    raw3 = (np.abs(xm) ** 3 * per_class(h)).sum(axis=-1)
    return mean, var, raw3


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial_weight(counts, probs: np.ndarray) -> float:
    n = sum(counts)
    log_w = lgamma(n + 1)
    for m, pr in zip(counts, probs):
        if m == 0:
            continue
        if pr == 0.0:
            return 0.0
        log_w += m * math.log(pr) - lgamma(m + 1)
    return math.exp(log_w)


def _weighted_compositions(total: int, probs: np.ndarray) -> list[tuple[tuple[int, ...], float]]:
    """Type counts of ``total`` iid draws from ``probs``, with their positive
    multinomial weights."""
    weighted = ((c, _multinomial_weight(c, probs)) for c in _compositions(int(total), probs.size))
    return [(counts, weight) for counts, weight in weighted if weight > 0.0]


def exact_term_count(model: BlockModel, size_q: int, n_classes_sizes) -> int:
    """Number of collapsed configurations exact mode would enumerate."""
    terms = math.comb(int(size_q) + model.K - 1, model.K - 1)
    for dg in n_classes_sizes:
        terms *= math.comb(int(dg) + model.L - 1, model.L - 1)
    return terms


def _enumerate_collapsed(
    model: BlockModel, xi_vals: np.ndarray, sizes: np.ndarray, size_q: int
) -> Iterator[tuple[float, float, float, float]]:
    """Yield ``(weight, mean, variance, raw3)`` over collapsed configurations."""
    per_class = [_weighted_compositions(dg, model.v) for dg in sizes]
    for m_counts, w_agent in _weighted_compositions(size_q, model.w):
        p_l = connect_given_counts(model, np.asarray(m_counts, dtype=np.int64))
        for combo in itertools.product(*per_class):
            weight = w_agent
            for _, w_comp in combo:
                weight *= w_comp
            counts_gl = np.asarray([comp for comp, _ in combo], dtype=np.float64)
            mean, var, raw3 = _stats_from_counts(xi_vals, counts_gl, p_l)
            yield weight, float(mean), float(var), float(raw3)


def _exact(
    model: BlockModel, group: AgentSubset, xi_vals: np.ndarray, sizes: np.ndarray
) -> ApproxResult:
    terms = exact_term_count(model, group.size, sizes)
    if terms > MAX_EXACT_TERMS:
        raise ValueError(
            f"exact mode would enumerate {terms} configurations "
            f"(limit {MAX_EXACT_TERMS}); use sampled mode"
        )
    prob = bound = deg_weight = 0.0
    count = 0
    for weight, mean, var, raw3 in _enumerate_collapsed(model, xi_vals, sizes, group.size):
        count += 1
        if var == 0.0:
            prob += weight * (1.0 if mean > 0 else 0.0)
            deg_weight += weight
        else:
            prob += weight * normal_positive_prob(mean, var)
            bound += weight * BOUND_CONSTANT * raw3 / var**1.5
    return ApproxResult(
        probability=min(prob, 1.0),
        stein_bound=bound,
        mode=MODE_EXACT,
        config_count=count,
        degenerate_weight=deg_weight,
    )


def _sampled(
    model: BlockModel,
    group: AgentSubset,
    xi_vals: np.ndarray,
    sizes: np.ndarray,
    m_configs: int,
    base_seed: int,
    threads: int,
) -> ApproxResult:
    """Monte Carlo over collapsed configurations.

    Each configuration is one draw of :func:`netgen.sample_configurations`
    (the group's agent-type counts and the object counts per (loading
    class, object type)), summarised by :func:`_stats_from_counts` exactly
    as exact mode summarises an enumerated one.
    """
    if m_configs < MIN_SAMPLED_CONFIGS:
        raise ValueError(f"sampled mode needs at least {MIN_SAMPLED_CONFIGS} configurations")

    def configs(rng: np.random.Generator, rows: int) -> np.ndarray:
        connect, counts = sample_configurations(model, group.size, sizes, rng, rows)
        return np.broadcast_to(_stats_from_counts(xi_vals, counts, connect), (3, rows))

    def draw(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, ...]:
        mean_v, var_v, raw3_v = _in_chunks(configs, rng, rows, sizes.size * model.L)
        pos = var_v > 0.0
        prob_v = np.where(pos, 0.0, (mean_v > 0).astype(np.float64))
        prob_v[pos] = [normal_positive_prob(mv, vv) for mv, vv in zip(mean_v[pos], var_v[pos])]
        bound_v = np.zeros(rows)
        bound_v[pos] = BOUND_CONSTANT * raw3_v[pos] / var_v[pos] ** 1.5
        return prob_v, prob_v * prob_v, bound_v, ~pos

    total, total_sq, total_bound, degenerate = block_totals(
        m_configs, APPROX_DOMAIN, base_seed, draw, threads
    )
    probability, stderr = mean_stderr(total, total_sq, m_configs)
    return ApproxResult(
        probability=probability,
        stein_bound=total_bound / m_configs,
        mode=MODE_SAMPLED,
        config_count=int(m_configs),
        sampling_stderr=stderr,
        degenerate_weight=degenerate / m_configs,
    )


def mixture_probability(
    params: RiskParams,
    model: BlockModel,
    group: AgentSubset,
    mode: str,
    m_configs: int = 10_000,
    base_seed: int = 0,
    threads: int = 1,
) -> ApproxResult:
    """Mixture-normal approximation of P(PK ratio < 1) with its error bound.

    Args:
        params: Risk parameters (supply the loadings).
        model: Network model.
        group: Agent group; only its size matters (agents are exchangeable).
        mode: ``exact`` (collapsed enumeration), ``sampled`` (Monte Carlo
            over collapsed configurations), or ``auto``: exact when it has at
            most :data:`MAX_EXACT_TERMS` terms, sampled otherwise.  A
            one-type model always has a single term.
        m_configs: Sampled-mode configuration count (>= 100).
        base_seed: Sampled-mode stream seed.
        threads: Worker threads (never affects the result).
    """
    group.validate_for(params.q)
    ratio, sizes = object_classes(params)
    xi_vals = ratio / params.lam
    if mode == MODE_AUTO:
        enumerable = exact_term_count(model, group.size, sizes) <= MAX_EXACT_TERMS
        mode = MODE_EXACT if enumerable else MODE_SAMPLED
    if mode == MODE_EXACT:
        return _exact(model, group, xi_vals, sizes)
    if mode == MODE_SAMPLED:
        return _sampled(model, group, xi_vals, sizes, m_configs, base_seed, threads)
    raise ValueError(f"unknown mode {mode!r}")


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def phase_classify(
    params: RiskParams, model: BlockModel, group: AgentSubset, beta: float
) -> PhaseVerdict:
    """Asymptotic verdict for the tail probability in the moderately dense
    regime (edge probabilities of order ``d**-beta`` with ``beta`` in (0,1)).

    For one-type models the verdict follows the sign of the average
    loading excess ``mean(xi - 1)``; in general each collapsed
    configuration's scaled mean must have a common strict sign, otherwise
    the phase is indeterminate.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("density exponent beta must lie in (0, 1)")
    group.validate_for(params.q)
    ratio, sizes = object_classes(params)
    xi_vals = ratio / params.lam
    if np.any(xi_vals == 1.0):
        warnings.warn(
            "some objects have zero loading excess (xi == 1); the phase "
            "classification assumes loadings bounded away from 1",
            stacklevel=2,
        )
    if model.is_bernoulli:
        # class-collapsed sum so that perfectly balanced loadings cancel exactly
        sign = _sign(float(((xi_vals - 1.0) * sizes).sum()) / params.d)
    else:
        if exact_term_count(model, group.size, sizes) > MAX_EXACT_TERMS:
            raise ValueError("too many configurations to classify exactly")
        signs = {
            _sign(mean)
            for weight, mean, _, _ in _enumerate_collapsed(model, xi_vals, sizes, group.size)
            if weight > 0.0
        }
        sign = signs.pop() if len(signs) == 1 else 0
    verdict = TAIL_TO_ONE if sign > 0 else TAIL_TO_ZERO if sign < 0 else INDETERMINATE
    return PhaseVerdict(limit_mean_sign=sign, verdict=verdict, beta=float(beta))
