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

:func:`mixture_probability` approximates groups of increasing sizes, such as a
sweep's ``1..q`` or one configured group's, each in its own mode, and runs
each mode once: exact mode and the phase classifier enumerate all their
groups' configurations as arrays (:func:`_configurations`), sampled mode draws
them at once, and one evaluator (:func:`_terms`) turns each into its tail
probability, bound term and point-mass weight.  Each per-type and per-class
total is one :func:`streams.weighted_sum`, and a point mass is exact
(:func:`_terms`).  The evaluator is whole-array numpy made of correctly rounded
operations only (``var * sqrt(var)`` and :func:`_erfc`), so its bits are the
same on every CPU and under any SIMD dispatch, and it runs without the GIL.
"""

from __future__ import annotations

import itertools
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial, reduce
from math import lgamma
from operator import add
from typing import Iterator, Optional

import numpy as np

from .model import AgentSubset, RiskParams, prefix_sizes
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
#: The modes :func:`mixture_probability` takes; ``auto`` picks one per group.
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


#: fdlibm's ``s_erf.c`` erfc (Sun Microsystems, 1993): the upper edges of its
#: ranges in |x|, and per range the coefficients, lowest degree first, of the
#: numerator and denominator of its rational approximation.
_ERFC_EDGES = (0.84375, 1.25, 2.8571414947509766, 28.0)
_ERX = 8.45062911510467529297e-01  # 0.84506291151 rounded to 24 bits
_ERF_SMALL = (  # (erf(x) - x) / x, |x| < 0.84375, in x * x
    (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
     -5.77027029648944159157e-03, -2.37630166566501626084e-05),
    (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
     1.32494738004321644526e-04, -3.96022827877536812320e-06),
)
_ERF_NEAR_ONE = (  # erf(x) - erx, 0.84375 <= |x| < 1.25, in |x| - 1
    (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
     3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
     -2.16637559486879084300e-03),
    (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
     1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02),
)
_ERFC_MID = (  # log(x erfc(x)) + x^2 + 0.5625, 1.25 <= |x| < 1/0.35, in 1 / x^2
    (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e01,
     -6.23753324503260060396e01, -1.62396669462573470355e02, -1.84605092906711035994e02,
     -8.12874355063065934246e01, -9.81432934416914548592e00),
    (1.0, 1.96512716674392571292e01, 1.37657754143519042600e02, 4.34565877475229228821e02,
     6.45387271733267880336e02, 4.29008140027567833386e02, 1.08635005541779435134e02,
     6.57024977031928170135e00, -6.04244152148580987438e-02),
)
_ERFC_FAR = (  # the same, 1/0.35 <= |x| < 28
    (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e01,
     -1.60636384855821916062e02, -6.37566443368389627722e02, -1.02509513161107724954e03,
     -4.83519191608651397019e02),
    (1.0, 3.03380607434824582924e01, 3.25792512996573918826e02, 1.53672958608443695994e03,
     3.19985821950859553908e03, 2.55305040643316442583e03, 4.74528541206955367215e02,
     -2.24409524465858183362e01),
)
#: Cody and Waite's ln 2 = LN2_HI + LN2_LO, LN2_HI of 32 significant bits, so
#: that k * LN2_HI is exact for |k| < 2**21.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e00
#: Taylor coefficients 1/n!, n = 2..13, of exp(r) - 1 - r on |r| <= ln(2) / 2.
_EXPM1_TAIL = tuple(1.0 / math.factorial(n) for n in range(2, 14))
_HIGH_WORD = np.uint64(0xFFFF_FFFF_0000_0000)


def _poly(x, coeffs):
    """``coeffs[0] + x * (coeffs[1] + x * (...))``, by Horner's rule."""
    out = coeffs[-1] * x
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def _rational(x, coeffs):
    """The quotient of the two polynomials ``coeffs`` in ``x``."""
    return _poly(x, coeffs[0]) / _poly(x, coeffs[1])


def _exp(hi, lo=0.0, over=1.0):
    """``exp(hi + lo) / over``, ``|lo| < 1 <= over``: Cody and Waite's ``hi +
    lo = k ln 2 + r``, a polynomial in r, and 2**k last, the one rounding of a
    subnormal result.  Correctly rounded operations only, so the same bits on
    every CPU; 0 below about -745.13 and at -inf, inf past 709.78, NaN kept."""
    hi = np.minimum(np.maximum(hi, -750.0), 710.0)  # NaN stays NaN, and -inf gives 0
    k = np.fmax(np.rint((hi + lo) * _INV_LN2), -1100.0)  # no NaN is cast: a NaN's k is -1100
    r = (hi - k * _LN2_HI) - k * _LN2_LO + lo
    out = (1.0 + (r + (r * r) * _poly(r, _EXPM1_TAIL))) / over
    return np.ldexp(out, k.astype(np.int32))


def _erfc_small(x, ax):
    """|x| < 0.84375: erf(x) = x + x R(x^2), and no exp.  Below 1/4, erfc is
    ``1 - (x + x R)``, and from there ``0.5 - (x R + (x - 0.5))``: one
    expression, ``(1 - o) - (x R + (x - o))`` with o = 0 or 1/2, gives both."""
    xy = _rational(x * x, _ERF_SMALL)
    xy *= x
    o = np.multiply(x >= 0.25, 0.5)
    xy += x - o
    return (1.0 - o) - xy


def _erfc_near_one(x, ax):
    """0.84375 <= |x| < 1.25: erf(|x|) = erx + R(|x| - 1), and no exp."""
    r = _rational(ax - 1.0, _ERF_NEAR_ONE)
    return np.where(x > 0.0, (1.0 - _ERX) - r, 1.0 + (_ERX + r))


def _erfc_tail(x, ax, coeffs):
    """1.25 <= |x| < 28: erfc(|x|) = exp(-x^2 - 0.5625 + R(1/x^2)) / |x|, and
    erfc(x) = 2 - erfc(|x|) for x < 0.  With ``xh`` the high 21 bits of |x|,
    ``hi = -xh^2 - 0.5625`` is exact, and ``lo = (xh - |x|)(xh + |x|) + R``
    carries the rest of the exponent into :func:`_exp`."""
    xh = (ax.view(np.uint64) & _HIGH_WORD).view(np.float64)
    hi = -(xh * xh) - 0.5625
    lo = (xh - ax) * (xh + ax) + _rational(1.0 / (ax * ax), coeffs)
    tail = _exp(hi, lo, ax)
    sign = np.sign(x)
    tail *= sign  # exact, and then 0 + tail or 2 - |tail|
    tail += 1.0 - sign
    return tail


_ERFC_RANGES = (
    _erfc_small,
    _erfc_near_one,
    lambda x, ax: _erfc_tail(x, ax, _ERFC_MID),
    lambda x, ax: _erfc_tail(x, ax, _ERFC_FAR),
    lambda x, ax: 1.0 - np.sign(x),  # |x| >= 28: 0 or 2 in double precision; NaN stays NaN
)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc of a float64 array, elementwise, within 3 ulps of the correctly
    rounded value (asserted against ``mpmath``; the largest error seen is
    2.35 ulps), from ``+ - * /``, ``rint``, ``ldexp`` and an exact bit mask
    only.  Each of these is correctly rounded, so the bits are the same on
    every CPU and under any SIMD dispatch, and numpy releases the GIL for
    each.  fdlibm's ranges and rational approximations; each range is
    evaluated on its own values only, and only those past |x| = 1.25 need
    exp."""
    if x.size == 1:  # on numpy scalars: the same operations, about 7 times faster
        v = x.flat[0]
        return np.array(_ERFC_RANGES[bisect_right(_ERFC_EDGES, abs(v))](v, abs(v)), ndmin=x.ndim)
    ax = np.abs(x)
    below = [ax < edge for edge in _ERFC_EDGES]  # NaN is below none
    ends = [0, *(np.count_nonzero(b) for b in below), ax.size]
    out = np.empty_like(ax)
    for i, evaluate in enumerate(_ERFC_RANGES):
        n = ends[i + 1] - ends[i]
        if n == ax.size:  # one range: no gather
            out[...] = evaluate(x, ax)
        elif n:
            sel = below[i] if i == 0 else ~below[i - 1]
            if i < len(below):
                sel &= below[i]
            out[sel] = evaluate(x[sel], ax[sel])
    return out


def _positive_prob(mean: np.ndarray, variance: np.ndarray, point: np.ndarray) -> np.ndarray:
    """P(N(mean, variance) > 0) elementwise, of float arrays, unchecked, given
    the point masses ``point = variance == 0`` (1 at a positive mean, else 0):
    ``0.5 * erfc(-mean / sqrt(2 * variance))`` with :func:`_erfc`, from
    correctly rounded operations only."""
    # a point mass is standardised by 1, and its value set below
    prob = _erfc(-mean / np.sqrt(2.0 * variance + point))
    prob *= 0.5
    np.copyto(prob, mean > 0, where=point)
    return prob


def _stats_from_counts(xi_vals: np.ndarray, counts_gl: np.ndarray, p_l: np.ndarray) -> tuple:
    """(mean, variance, raw third-moment sum, expected connected count) per
    configuration, from counts ``counts_gl`` per (class, object type), ``(..., G, L)``,
    and connection probabilities ``p_l``, ``(..., L)``; leading axes broadcast.
    Callers lay them out (type, class, group, replicate) in memory, so each
    product and total runs over whole replicate rows, with any layout's bits."""
    xm = xi_vals - 1.0
    q_l = 1.0 - p_l
    s2 = p_l * q_l
    h = s2 * (q_l * q_l + p_l * p_l)  # p q^3 + q p^3
    connected, per_s2, per_h = (weighted_sum(counts_gl, x[..., None, :]) for x in (p_l, s2, h))
    xm2 = xm * xm
    mean = weighted_sum(connected, xm)
    var = weighted_sum(per_s2, xm2)
    raw3 = weighted_sum(per_h, np.abs(xm) * xm2)
    return mean, var, raw3, connected.sum(axis=-1)  # 0 only when every class's is


def _terms(weight, mean, var, raw3, connected) -> tuple[np.ndarray, ...]:
    """Each configuration's tail probability, bound term and point-mass
    weight, times its ``weight``.  The root ``var ** 1.5`` is
    ``var * sqrt(var)``, correctly rounded twice, and a point mass gets an
    infinite root, which zeroes its bound term.  A point
    mass is in the tail at a positive mean or with no connected object (PK
    is 0/0 := 0); at mean 0 with connected objects it is a tie, out of it."""
    point = var == 0.0
    root = var * np.sqrt(var)
    root[point] = np.inf
    bound = weight * BOUND_CONSTANT * raw3 / root
    prob = _positive_prob(mean, var, point)
    np.copyto(prob, 1.0, where=connected == 0.0)  # PK = 0/0 := 0; var is 0 there too
    return weight * prob, bound, weight * point


def _compositions(total: int, probs: np.ndarray) -> tuple[list, list]:
    """Type counts of ``total`` iid draws from ``probs`` with positive
    multinomial weight, first type slowest, and those weights (log, exp and
    lgamma in Python floats), as lists."""
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
    return counts, weights


def exact_term_count(model: BlockModel, n_classes_sizes, size_q: int) -> int:
    """Number of collapsed configurations exact mode would enumerate."""
    terms = math.comb(int(size_q) + model.K - 1, model.K - 1)
    for dg in n_classes_sizes:
        terms *= math.comb(int(dg) + model.L - 1, model.L - 1)
    return terms


def _configurations(
    model: BlockModel, xi_vals: np.ndarray, classes: np.ndarray, group_sizes
) -> Iterator[tuple]:
    """``(runs, weight, mean, variance, raw3, connected)`` of the collapsed
    configurations of groups of ``group_sizes`` agents, in chunks of at most
    ``_CHUNK_CELLS`` count cells: a group (slowest), one of its agent-type
    compositions and one of each class's object-type compositions (built once
    for every group), with the product of their weights, summarised as sampled
    mode summarises drawn ones.  A chunk's ``(j, start, stop)`` runs give
    group ``j`` its ``start:stop``; a group of more than
    :data:`MAX_EXACT_TERMS` configurations is a ``ValueError``."""
    agents, weight_a, firsts = [], [], [0]  # each group's first agent composition, then the end
    for size_q in group_sizes:
        terms = exact_term_count(model, classes, size_q)
        if terms > MAX_EXACT_TERMS:
            raise ValueError(
                f"exact enumeration would need {terms} configurations (limit "
                f"{MAX_EXACT_TERMS}); only mixture_probability's sampled mode can take more"
            )
        group_agents, group_weights = _compositions(int(size_q), model.w)
        agents += group_agents
        weight_a += group_weights
        firsts.append(len(agents))
    counts, weights = zip(*(map(np.array, _compositions(int(dg), model.v)) for dg in classes))
    shape = (len(agents), *map(len, weights))
    starts = [first * math.prod(shape[1:]) for first in firsts]  # in configurations
    agents, weight_a = np.array(agents, dtype=np.int64), np.array(weight_a)
    connect = connect_given_counts(model, agents)
    step = max(1, _CHUNK_CELLS // (classes.size * model.L))
    for lo in range(0, starts[-1], step):
        hi = min(lo + step, starts[-1])
        groups = range(bisect_right(starts, lo) - 1, bisect_left(starts, hi))
        runs = [(j, max(starts[j], lo) - lo, min(starts[j + 1], hi) - lo) for j in groups]
        a, *rows = np.unravel_index(np.arange(lo, hi), shape)
        weight = weight_a[a]
        chunk = np.empty((model.L, classes.size, a.size))  # (type, class, configuration)
        for g, (w, c, row) in enumerate(zip(weights, counts, rows)):
            weight = weight * w[row]
            chunk[:, g] = c[row].T
        yield (runs, weight, *_stats_from_counts(xi_vals, chunk.T, connect.T[:, a].T))


def _exact(
    model: BlockModel, group_sizes, xi_vals: np.ndarray, classes: np.ndarray
) -> list[ApproxResult]:
    """One exact-mode result per group: its terms summed in enumeration order."""
    totals = [(0.0, 0.0, 0.0)] * len(group_sizes)  # term by term: sum() compensates on 3.12+
    counts = [0] * len(group_sizes)
    for runs, weight, *stats in _configurations(model, xi_vals, classes, group_sizes):
        parts = _terms(weight, *stats)
        for j, lo, hi in runs:
            totals[j] = [reduce(add, p[lo:hi].tolist(), t) for t, p in zip(totals[j], parts)]
            counts[j] += hi - lo
    return [
        ApproxResult(min(prob, 1.0), bound, MODE_EXACT, count, degenerate_weight=deg_weight)
        for (prob, bound, deg_weight), count in zip(totals, counts)
    ]


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
        # the cap fixes where a block splits into chunks, and so the draws
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


@dataclass(frozen=True)
class PrefixApprox:
    """Approximations of a nested family, one :class:`ApproxResult` per
    group; the sampled ones are read from the same configurations."""

    results: tuple[ApproxResult, ...]

    @property
    def mode(self) -> str:
        """The mode every group ran, or ``mixed`` when both modes ran."""
        return "mixed" if len({r.mode for r in self.results}) > 1 else self.results[0].mode

    @property
    def config_count(self) -> int:
        """Configurations summed over the groups."""
        return sum(r.config_count for r in self.results)


def mixture_probability(
    params: RiskParams,
    model: BlockModel,
    sizes,
    mode: str,
    m_configs: int = 10_000,
    base_seed: int = 0,
    threads: int = 1,
) -> PrefixApprox:
    """Mixture-normal approximation of P(PK ratio < 1), with its error bound,
    for a group of each of the increasing ``sizes`` (:func:`model.prefix_sizes`);
    a single group is ``[group.size]``.  Only a group's size matters.  Each
    mode runs once: exact-mode groups share one enumeration, each with the
    bits of its own one-group call; sampled-mode groups share one pass over
    nested configurations, each with the law of its own, their errors correlated.

    Args:
        params: Risk parameters (supply the loadings).
        model: Network model.
        sizes: Increasing group sizes, each in ``1..q``.
        mode: ``exact`` (collapsed enumeration), ``sampled`` (Monte Carlo
            over collapsed configurations), or ``auto``: exact for a group
            with at most :data:`MAX_EXACT_TERMS` terms (a one-type model has
            one), sampled otherwise.
        m_configs: Sampled-mode configuration count (>= 100).
        base_seed: Sampled-mode stream seed.
        threads: Worker threads (never affects the result).
    """
    sizes, classes = prefix_sizes(sizes, params.q), params.class_sizes
    xi_vals = params.class_ratio / params.lam
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    cut = len(sizes) if mode == MODE_EXACT else 0
    if mode == MODE_AUTO:  # a group's term count grows with its size: exact groups come first
        cut = bisect_right(sizes, MAX_EXACT_TERMS, key=partial(exact_term_count, model, classes))
    exact, sampled = sizes[:cut], sizes[cut:]
    results = _exact(model, exact, xi_vals, classes) if exact else []
    if sampled:
        results += _sampled(model, sampled, xi_vals, classes, m_configs, base_seed, threads)
    return PrefixApprox(tuple(results))


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
    configs = _configurations(model, xi_vals, sizes, [group.size])
    signs = {s for _, weight, mean, *_ in configs for s in np.sign(mean[weight > 0.0]).tolist()}
    sign = int(signs.pop()) if len(signs) == 1 else 0
    verdict = TAIL_TO_ONE if sign > 0 else TAIL_TO_ZERO if sign < 0 else INDETERMINATE
    return PhaseVerdict(limit_mean_sign=sign, verdict=verdict, beta=float(beta))
