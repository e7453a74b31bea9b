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
point-mass weight.  Each per-type and per-class total is one
:func:`streams.weighted_sum`, and a point mass is exact (:func:`_terms`).
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

from . import netgen
from .model import AgentSubset, RiskParams
from .netgen import BlockModel, _in_chunks, connect_given_counts, sample_configurations
from .streams import APPROX_DOMAIN, block_totals, mean_stderr, weighted_sum

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
#: The modes :func:`mixture_probability` and :func:`mixture_prefixes` take.
MODES = (MODE_EXACT, MODE_SAMPLED, MODE_AUTO)

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
    prob = _positive_prob(mean, variance, variance == 0.0)
    return float(prob) if prob.ndim == 0 else prob


def _positive_prob(mean: np.ndarray, variance: np.ndarray, point: np.ndarray) -> np.ndarray:
    """:func:`normal_positive_prob` of float arrays, unchecked, given the
    point masses ``point = variance == 0``."""
    # a point mass is standardised by 1, and its value set below
    z = -mean / np.sqrt(2.0 * variance + point)
    prob = 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), np.float64, z.size)
    prob = prob.reshape(z.shape)
    np.copyto(prob, mean > 0, where=point)
    return prob


def _stats_from_counts(xi_vals: np.ndarray, counts_gl: np.ndarray, p_l: np.ndarray) -> tuple:
    """(mean, variance, raw third-moment sum, expected connected count) per
    configuration, from counts ``counts_gl`` per (class, object type), ``(..., G, L)``,
    and connection probabilities ``p_l``, ``(..., L)``; leading axes broadcast."""
    xm = xi_vals - 1.0
    q_l = 1.0 - p_l
    s2 = p_l * q_l
    h = p_l * q_l**3 + q_l * p_l**3
    connected, per_s2, per_h = (weighted_sum(counts_gl, x[..., None, :]) for x in (p_l, s2, h))
    mean = weighted_sum(connected, xm)
    var = weighted_sum(per_s2, xm * xm)
    raw3 = weighted_sum(per_h, np.abs(xm) ** 3)
    return mean, var, raw3, connected.sum(axis=-1)  # 0 only when every class's is


def _terms(weight, mean, var, raw3, connected) -> tuple[np.ndarray, ...]:
    """Each configuration's tail probability, bound term and point-mass
    weight, times its ``weight``.  ``var ** 1.5`` is libm's ``pow``, and a
    point mass gets an infinite root, which zeroes its bound term.  A point
    mass is in the tail at a positive mean or with no connected object (PK
    is 0/0 := 0); at mean 0 with connected objects it is a tie, out of it."""
    point = var == 0.0
    root = np.fromiter(map(pow, var.ravel().tolist(), itertools.repeat(1.5)), np.float64, var.size)
    root = root.reshape(var.shape)
    root[point] = np.inf
    bound = weight * BOUND_CONSTANT * raw3 / root
    prob = _positive_prob(mean, var, point)
    np.copyto(prob, 1.0, where=connected == 0.0)  # PK = 0/0 := 0; var is 0 there too
    return weight * prob, bound, weight * point


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
    """``(weight, mean, variance, raw3, connected)`` arrays of the collapsed
    configurations, in chunks of at most ``_CHUNK_CELLS`` count cells: one
    agent-type composition (slowest) and one object-type composition per
    class, with the product of their weights, summarised as sampled mode
    summarises drawn ones.  More than :data:`MAX_EXACT_TERMS` configurations is a
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
    shape = (len(agents), *map(len, weights))
    total = math.prod(shape)
    step = max(1, _CHUNK_CELLS // (sizes.size * model.L))
    for lo in range(0, total, step):
        a, *rows = np.unravel_index(np.arange(lo, min(lo + step, total)), shape)
        weight = weight_a[a]
        chunk = np.empty((a.size, sizes.size, model.L))
        for g, (w, c, row) in enumerate(zip(weights, counts, rows)):
            weight = weight * w[row]
            chunk[:, g] = c[row]
        yield (weight, *_stats_from_counts(xi_vals, chunk, connect[a]))


def _exact(model: BlockModel, size_q: int, xi_vals: np.ndarray, sizes: np.ndarray) -> ApproxResult:
    totals = [0.0, 0.0, 0.0]  # summed term by term: sum() compensates on Python >= 3.12
    count = 0
    for weight, *stats in _configurations(model, xi_vals, sizes, size_q):
        parts = _terms(weight, *stats)
        totals = [reduce(operator.add, part.tolist(), t) for t, part in zip(totals, parts)]
        count += weight.size
    prob, bound, deg_weight = totals
    return ApproxResult(min(prob, 1.0), bound, MODE_EXACT, count, degenerate_weight=deg_weight)


def _sampled(
    model: BlockModel,
    group_sizes,
    xi_vals: np.ndarray,
    sizes: np.ndarray,
    m_configs: int,
    base_seed: int,
    threads: int,
) -> list[ApproxResult]:
    """Monte Carlo over collapsed configurations of nested groups of
    ``group_sizes`` agents: draws of :func:`netgen.sample_configurations`,
    each group's summarised as exact mode summarises an enumerated one,
    with weight 1.  One result per group."""
    if m_configs < MIN_SAMPLED_CONFIGS:
        raise ValueError(f"sampled mode needs at least {MIN_SAMPLED_CONFIGS} configurations")
    J = len(group_sizes)

    def configs(rng: np.random.Generator, rows: int) -> np.ndarray:
        connect, counts = sample_configurations(model, group_sizes, sizes, rng, rows)
        stats = _stats_from_counts(xi_vals, counts[:, None], connect)
        return np.broadcast_to(np.stack(stats, axis=-1), (rows, J, len(stats)))

    def draw(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, ...]:
        # per group, the counts per (class, object type) and the edge powers
        # per (agent type, object type); one group keeps the cap of G * L cells
        # while K <= G
        stats = _in_chunks(configs, rng, rows, J * max(sizes.size, model.K) * model.L)
        prob_v, bound_v, point_v = _terms(1.0, *np.moveaxis(stats, -1, 0))
        return prob_v, prob_v * prob_v, bound_v, point_v

    totals = block_totals(m_configs, APPROX_DOMAIN, base_seed, draw, threads)
    results = []
    for total, total_sq, total_bound, degenerate in zip(*totals):
        probability, stderr = mean_stderr(float(total), float(total_sq), m_configs)
        bound, point_weight = float(total_bound) / m_configs, float(degenerate) / m_configs
        results.append(
            ApproxResult(probability, bound, MODE_SAMPLED, int(m_configs), stderr, point_weight)
        )
    return results


def _choose_mode(model: BlockModel, size_q: int, class_sizes: np.ndarray, mode: str) -> str:
    """The mode a group of ``size_q`` agents runs: ``exact`` or ``sampled``
    as given, and for ``auto`` exact when it has at most
    :data:`MAX_EXACT_TERMS` terms, sampled otherwise."""
    if mode == MODE_AUTO:
        enumerable = exact_term_count(model, size_q, class_sizes) <= MAX_EXACT_TERMS
        return MODE_EXACT if enumerable else MODE_SAMPLED
    if mode in (MODE_EXACT, MODE_SAMPLED):
        return mode
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class PrefixApprox:
    """Approximations of nested prefix groups, one :class:`ApproxResult` each;
    the sampled ones are read from the same configurations."""

    results: tuple[ApproxResult, ...]

    @property
    def mode(self) -> str:
        """The mode every group ran, or ``mixed`` when both modes ran."""
        return "mixed" if len({r.mode for r in self.results}) > 1 else self.results[0].mode

    @property
    def config_count(self) -> int:
        """Configurations summed over the groups, as one
        :func:`mixture_probability` call per group would report them."""
        return sum(r.config_count for r in self.results)


def mixture_prefixes(
    params: RiskParams,
    model: BlockModel,
    group_sizes,
    mode: str,
    m_configs: int = 10_000,
    base_seed: int = 0,
    threads: int = 1,
) -> PrefixApprox:
    """:func:`mixture_probability` for each prefix group ``{1, ..., k}``, ``k``
    in the increasing ``group_sizes``, each in the mode ``mode`` gives it.

    Exact-mode sizes are enumerated one by one.  Sampled-mode sizes share
    one pass over nested configurations (:func:`netgen.sample_configurations`),
    so each one's result has the law of its own call, and their errors are
    positively correlated.  One size gives :func:`mixture_probability`'s bits.
    """
    largest = int(netgen.nested_sizes(group_sizes)[-1])
    AgentSubset((largest,)).validate_for(params.q)  # the largest group's last agent
    sizes = params.class_sizes
    xi_vals = params.class_ratio / params.lam
    modes = [_choose_mode(model, k, sizes, mode) for k in group_sizes]
    sampled = [k for k, m in zip(group_sizes, modes) if m == MODE_SAMPLED]
    coupled = iter(
        _sampled(model, sampled, xi_vals, sizes, m_configs, base_seed, threads) if sampled else ()
    )
    results = [
        next(coupled) if m == MODE_SAMPLED else _exact(model, k, xi_vals, sizes)
        for k, m in zip(group_sizes, modes)
    ]
    return PrefixApprox(tuple(results))


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
    one = mixture_prefixes(params, model, [group.size], mode, m_configs, base_seed, threads)
    return one.results[0]


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
    signs = {s for weight, mean, *_ in configs for s in np.sign(mean[weight > 0.0]).tolist()}
    sign = int(signs.pop()) if len(signs) == 1 else 0
    verdict = TAIL_TO_ONE if sign > 0 else TAIL_TO_ZERO if sign < 0 else INDETERMINATE
    return PhaseVerdict(limit_mean_sign=sign, verdict=verdict, beta=float(beta))
