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

Exact mode and the phase classifier enumerate these configurations as
arrays (:func:`_configurations`), sampled mode draws them, and one evaluator
(:func:`_terms`) turns each into its tail probability, bound term and
point-mass weight.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from functools import reduce
from math import lgamma
from typing import Iterator, Optional

import numpy as np

from .model import AgentSubset, RiskParams
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

#: Count cells (configurations x classes x object types) of one exact-mode chunk.
_CHUNK_CELLS = 1 << 16


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


def normal_positive_prob(mean, variance):
    """P(N(mean, variance) > 0) elementwise, with the bits of the scalar
    ``0.5 * erfc(-mean / sqrt(2 * variance))`` (numpy's division and square
    root are correctly rounded; erfc's absolute error is below 1e-12).  A
    zero variance denotes a point mass at ``mean``.  Scalars give a float.
    """
    mean, variance = np.asarray(mean, dtype=np.float64), np.asarray(variance, dtype=np.float64)
    if (variance < 0).any():
        raise ValueError("variance must be nonnegative")
    point = variance == 0.0
    # a point mass is standardised by 1, and its value set below
    z = -mean / np.sqrt(2.0 * variance + point)
    prob = 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), np.float64, z.size)
    prob = prob.reshape(z.shape)
    np.copyto(prob, mean > 0, where=point)
    return float(prob) if prob.ndim == 0 else prob


def _stats_from_counts(
    xi_vals: np.ndarray, counts_gl: np.ndarray, p_l: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, variance, raw third-moment sum) from per-(class, object-type) counts
    ``counts_gl`` of shape ``(..., G, L)`` and connection probabilities ``p_l``
    of shape ``(..., L)``; leading axes broadcast, one result per configuration."""
    xm = xi_vals - 1.0
    q_l = 1.0 - p_l
    s2 = p_l * q_l
    h = p_l * q_l**3 + q_l * p_l**3

    def per_class(x: np.ndarray) -> np.ndarray:
        return (counts_gl @ x[..., None])[..., 0]

    mean = (xm * per_class(p_l)).sum(axis=-1)
    var = (xm * xm * per_class(s2)).sum(axis=-1)
    raw3 = (np.abs(xm) ** 3 * per_class(h)).sum(axis=-1)
    return mean, var, raw3


def _terms(weight, mean, var, raw3) -> tuple[np.ndarray, ...]:
    """Each configuration's tail probability, bound term and point-mass
    weight, times its ``weight``.  ``var ** 1.5`` is libm's ``pow``, and a
    point mass gets an infinite root, which zeroes its bound term."""
    point = var == 0.0
    root = np.fromiter(map(pow, var.tolist(), itertools.repeat(1.5)), np.float64, var.size)
    root[point] = np.inf
    bound = weight * BOUND_CONSTANT * raw3 / root
    return weight * normal_positive_prob(mean, var), bound, weight * point


def _compositions(total: int, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Type counts of ``total`` iid draws from ``probs`` with positive
    multinomial weight, first type slowest, and those weights (log, exp and
    lgamma in Python floats)."""
    k, end = probs.size, total + probs.size - 1
    log_p = [math.log(pr) if pr > 0.0 else -math.inf for pr in probs.tolist()]
    counts, weights = [], []
    # combinations() copies its pool, so one type draws from an empty one
    for cut in itertools.combinations(range(end if k > 1 else 0), k - 1):
        row = [hi - lo - 1 for lo, hi in zip((-1, *cut), (*cut, end))]
        log_w = lgamma(total + 1)
        for m, lp in zip(row, log_p):
            if m:
                log_w += m * lp - lgamma(m + 1)
        weight = math.exp(log_w)
        if weight > 0.0:
            counts.append(row)
            weights.append(weight)
    return np.array(counts, dtype=np.int64), np.array(weights)


def exact_term_count(model: BlockModel, size_q: int, n_classes_sizes) -> int:
    """Number of collapsed configurations exact mode would enumerate."""
    terms = math.comb(int(size_q) + model.K - 1, model.K - 1)
    for dg in n_classes_sizes:
        terms *= math.comb(int(dg) + model.L - 1, model.L - 1)
    return terms


def _configurations(
    model: BlockModel, xi_vals: np.ndarray, sizes: np.ndarray, size_q: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """``(weight, mean, variance, raw3)`` arrays of the collapsed configurations,
    in chunks of at most ``_CHUNK_CELLS`` count cells: one agent-type
    composition (slowest) and one object-type composition per class, with
    the product of their weights, summarised as sampled mode summarises
    drawn ones.  More than :data:`MAX_EXACT_TERMS` configurations is a
    ``ValueError``."""
    terms = exact_term_count(model, size_q, sizes)
    if terms > MAX_EXACT_TERMS:
        raise ValueError(
            f"exact enumeration would need {terms} configurations (limit "
            f"{MAX_EXACT_TERMS}); only mixture_probability's sampled mode can take more"
        )
    agents, weight_a = _compositions(int(size_q), model.w)
    connect = connect_given_counts(model, agents)
    counts, weights = zip(*(_compositions(int(dg), model.v) for dg in sizes))
    counts = [c.astype(np.float64) for c in counts]
    shape = (len(agents), *map(len, weights))
    total = math.prod(shape)
    step = max(1, _CHUNK_CELLS // (sizes.size * model.L))
    for lo in range(0, total, step):
        a, *rows = np.unravel_index(np.arange(lo, min(lo + step, total)), shape)
        weight = weight_a[a]
        for w, row in zip(weights, rows):
            weight = weight * w[row]
        chunk = np.stack([c[row] for c, row in zip(counts, rows)], axis=1)
        yield (weight, *_stats_from_counts(xi_vals, chunk, connect[a]))


def _exact(
    model: BlockModel, group: AgentSubset, xi_vals: np.ndarray, sizes: np.ndarray
) -> ApproxResult:
    totals = [0.0, 0.0, 0.0]  # summed term by term: sum() compensates on Python >= 3.12
    count = 0
    for weight, mean, var, raw3 in _configurations(model, xi_vals, sizes, group.size):
        parts = _terms(weight, mean, var, raw3)
        totals = [reduce(operator.add, part.tolist(), t) for t, part in zip(totals, parts)]
        count += weight.size
    prob, bound, deg_weight = totals
    return ApproxResult(min(prob, 1.0), bound, MODE_EXACT, count, degenerate_weight=deg_weight)


def _sampled(
    model: BlockModel,
    group: AgentSubset,
    xi_vals: np.ndarray,
    sizes: np.ndarray,
    m_configs: int,
    base_seed: int,
    threads: int,
) -> ApproxResult:
    """Monte Carlo over collapsed configurations: draws of
    :func:`netgen.sample_configurations`, each summarised as exact mode
    summarises an enumerated one, with weight 1."""
    if m_configs < MIN_SAMPLED_CONFIGS:
        raise ValueError(f"sampled mode needs at least {MIN_SAMPLED_CONFIGS} configurations")

    def configs(rng: np.random.Generator, rows: int) -> np.ndarray:
        connect, counts = sample_configurations(model, group.size, sizes, rng, rows)
        return np.broadcast_to(_stats_from_counts(xi_vals, counts, connect), (3, rows))

    def draw(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, ...]:
        stats = _in_chunks(configs, rng, rows, sizes.size * model.L)
        prob_v, bound_v, point_v = _terms(1.0, *stats)
        return prob_v, prob_v * prob_v, bound_v, point_v

    total, total_sq, total_bound, degenerate = block_totals(
        m_configs, APPROX_DOMAIN, base_seed, draw, threads
    )
    probability, stderr = mean_stderr(total, total_sq, m_configs)
    bound, point_weight = total_bound / m_configs, degenerate / m_configs
    return ApproxResult(probability, bound, MODE_SAMPLED, int(m_configs), stderr, point_weight)


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
    sizes = params.class_sizes
    xi_vals = params.class_ratio / params.lam
    if mode == MODE_AUTO:
        enumerable = exact_term_count(model, group.size, sizes) <= MAX_EXACT_TERMS
        mode = MODE_EXACT if enumerable else MODE_SAMPLED
    if mode == MODE_EXACT:
        return _exact(model, group, xi_vals, sizes)
    if mode == MODE_SAMPLED:
        return _sampled(model, group, xi_vals, sizes, m_configs, base_seed, threads)
    raise ValueError(f"unknown mode {mode!r}")


def phase_classify(
    params: RiskParams, model: BlockModel, group: AgentSubset, beta: float
) -> PhaseVerdict:
    """Asymptotic verdict for the tail probability in the moderately dense
    regime (edge probabilities of order ``d**-beta`` with ``beta`` in (0,1)).

    Every collapsed configuration of positive weight must give the mean
    loading excess ``sum_j (xi_j - 1) p(c_j)`` one strict sign, otherwise
    the phase is indeterminate.  A one-type model has one configuration, so
    its verdict is the sign of ``sum_j (xi_j - 1)`` when ``p > 0``, and
    indeterminate when ``p = 0``.

    Raises:
        ValueError: If ``beta`` is outside (0, 1), or there are more than
            :data:`MAX_EXACT_TERMS` configurations.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("density exponent beta must lie in (0, 1)")
    group.validate_for(params.q)
    sizes = params.class_sizes
    xi_vals = params.class_ratio / params.lam
    if np.any(xi_vals == 1.0):
        warnings.warn(
            "some objects have zero loading excess (xi == 1); the phase "
            "classification assumes loadings bounded away from 1",
            stacklevel=2,
        )
    configs = _configurations(model, xi_vals, sizes, group.size)
    signs = {s for weight, mean, _, _ in configs for s in np.sign(mean[weight > 0.0]).tolist()}
    sign = int(signs.pop()) if len(signs) == 1 else 0
    verdict = TAIL_TO_ONE if sign > 0 else TAIL_TO_ZERO if sign < 0 else INDETERMINATE
    return PhaseVerdict(limit_mean_sign=sign, verdict=verdict, beta=float(beta))
