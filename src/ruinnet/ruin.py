"""Monte-Carlo estimation of group ruin probabilities.

Per network realisation the group's ruin behaviour is summarised by the
network Pollaczek-Khintchine ratio, claim rate over premium rate,

    P = lam * (number of connected objects) / (sum over connected j of c_j/mu_j)

with 0/0 := 0; :func:`rate_and_premium` forms both, for the estimator and the
path oracle alike.  ``P >= 1`` is certain group ruin; with ``P < 1`` the
group ruins with probability ``P * exp(-(1-P) * U / r)``, ``U`` the group's
total reserve and ``r`` the proportional-weight scaling constant (``P``
itself at ``U = 0``, the classical ``psi(0) = lam*mu/c`` for one object).
Averaging that summand over network replicates estimates the group ruin
probability, and the frequency of ``P < 1`` the tail probability driving
the phase transition.  :func:`estimate` reads both from the same draws, for
the prefixes of one group by their sizes (a sweep's ``{1..k}``, or the group).

``P`` depends on a realisation only through the group's connected count per
``c/mu`` class, a point of the lattice ``prod_g [0, d_g]``.  When the lattice
has no more points than a block has rows, each block is reduced to an
integer histogram of its points, and the summand is evaluated once per
visited point and call (:func:`_by_histogram`); a larger lattice, such as
the paper's table at ``d = 1e5``, is evaluated replicate by replicate
(:func:`_by_replicate`).

This module only evaluates and reduces: ``netgen`` draws the counts and
hands each chunk to the reduction given here, and
:func:`model.group_decay` reads the reserves, for the path oracle too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
import numpy as np

from . import approx, netgen
from .model import AgentSubset, RiskParams, group_decay, prefix_sizes
from .netgen import BlockModel
from .streams import BLOCK_SIZE, RUIN_DOMAIN, block_counts, block_totals, mean_stderr, weighted_sum


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte-Carlo estimate with its standard error.

    Attributes:
        mean: The estimate.
        stderr: Standard error of the mean.
        replicates: Number of Monte-Carlo replicates.
    """

    mean: float
    stderr: float
    replicates: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("standard error must be nonnegative")

    @property
    def halfwidth(self) -> float:
        """Reporting convention: plus/minus two standard errors."""
        return 2.0 * self.stderr


@dataclass(frozen=True)
class RuinEstimate:
    """Ruin probability ``psi`` and tail ``P(PK ratio < 1)`` estimated
    from the same replicates."""

    psi: EstimateWithCI
    tail: EstimateWithCI

    @property
    def replicates(self) -> int:
        return self.psi.replicates


def _summand(pk: np.ndarray, decay):
    """Each replicate's contribution to the ruin-probability estimator,
    unchecked: ``P * exp(-(1 - P) * decay)``, ``P = min(pk, 1)`` and ``decay =
    total_reserve / r_q`` finite, so exactly 1 (certain ruin) from ``pk = 1``
    up; exp is :func:`approx._exp`.  A float for a 0-d ``pk``, else ``decay``
    broadcast against ``pk``: one per group column, or per visited vector."""
    capped = np.minimum(pk, 1.0)
    out = capped * approx._exp(-(1.0 - capped) * decay)
    return float(out) if out.ndim == 0 else out


def rate_and_premium(lam: float, counts: np.ndarray, ratio: np.ndarray):
    """Claim rate ``lam * n`` and premium rate ``sum_g n_g * ratio_g`` (units of
    ``r_q``) of ``(..., G)`` connected counts per class of :attr:`RiskParams.class_ratio`."""
    total = np.einsum("...g->...", counts)  # exact integers, faster than sum(axis=-1)
    return lam * total, weighted_sum(counts, ratio)


def _pk_from_counts(lam: float, counts: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """PK ratios ``rate / premium`` of ``(..., G)`` counts (:func:`rate_and_premium`),
    0 for a disconnected group; never negative, since the ratios are positive."""
    rate, premium = rate_and_premium(lam, counts, ratio)
    with np.errstate(invalid="ignore"):
        np.divide(rate, premium, out=rate)
    # every ratio is positive and normal, so the one NaN is a disconnected
    # group's 0/0, and fmax takes 0 over it (one pass, unlike a masked write)
    return np.fmax(rate, 0.0, out=rate)


def _lattice_dims(class_sizes: np.ndarray, limit: int):
    """The count lattice's side lengths ``d_g + 1``, or None when it has more
    than ``limit`` points ``prod_g (d_g + 1)``."""
    dims, points = [], 1
    for dg in map(int, class_sizes):  # stops within log2(limit) classes
        dims.append(dg + 1)
        points *= dg + 1
        if points > limit:
            return None
    return dims


def _moments(h: np.ndarray, psi: np.ndarray, n: int) -> tuple[float, float]:
    """Sample mean and its standard error of ``n`` values, value ``psi[i]``
    seen ``h[i]`` times.  Each sum is ``math.fsum``'s, so neither depends on
    the order of the values.  The variance is taken about the most frequent
    value, which makes it exactly 0 when only one value was seen."""
    mean = math.fsum((h * psi).tolist()) / n
    dev = psi - psi[np.argmax(h)]
    hd = h * dev
    s1, s2 = math.fsum(hd.tolist()), math.fsum((hd * dev).tolist())
    var = max(0.0, (s2 - s1 * (s1 / n)) / (n - 1))
    return mean, math.sqrt(var / n)


def _by_replicate(sample, lam, ratio, decay, B, base_seed, threads):
    """``(mean, stderr, below)`` of each group, every replicate evaluated:
    per block :func:`_summand`, its square and ``1{PK < 1}``, each summed by
    :func:`block_totals`' pairwise trees.  ``sample(rng, rows, reduce)`` draws
    the ``(rows, groups, G)`` counts, each chunk reduced to its PK ratios, so
    that no more than one chunk of counts is held when ``G`` is large."""
    J = decay.size
    pk_of = partial(_pk_from_counts, lam, ratio=ratio)

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
        pk = sample(rng, n, pk_of)  # (rows, groups)
        if J == 1:
            pk = pk[:, 0]  # a 1-D array sums faster, with the same bits
        psi = _summand(pk, decay)
        return psi, psi * psi, pk < 1.0

    totals = block_totals(B, RUIN_DOMAIN, base_seed, draw, threads)
    return [
        (*mean_stderr(total, total_sq, B), int(below))
        for total, total_sq, below in zip(*(t.reshape(-1).tolist() for t in totals))
    ]


def _by_histogram(sample, lam, ratio, decay, dims, B, base_seed, threads):
    """``(mean, stderr, below)`` of each group from one integer histogram of
    its count vectors on the lattice ``prod_g [0, dims_g)``: each block adds
    its ``np.bincount`` (:func:`block_counts`), then :func:`_summand` and
    ``1{PK < 1}`` are evaluated once per visited vector.  ``below`` is an
    exact count, and ``psi``'s sums are :func:`_moments`'.

    ``sample(rng, rows, weights=strides)`` draws each group's weighted count
    ``sum_g n_g*strides_g``, its point's raveled index in the lattice, and
    ``j*points`` is added to group ``j``'s in place."""
    J, points = decay.size, math.prod(dims)
    strides = np.array([math.prod(dims[g + 1 :]) for g in range(len(dims))], dtype=np.int64)
    offset = np.arange(J, dtype=np.int64) * points

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        idx = sample(rng, n, weights=strides)  # (rows, groups)
        idx += offset
        return idx

    hist = block_counts(B, RUIN_DOMAIN, base_seed, draw, J * points, threads)
    flat = np.flatnonzero(hist)  # in lattice order, group slowest
    h = hist[flat]
    j, *coords = np.unravel_index(flat, (J, *dims))
    pk = _pk_from_counts(lam, np.stack(coords, axis=1), ratio)
    psi = _summand(pk, decay[j])
    below = np.where(pk < 1.0, h, 0)
    bounds = np.searchsorted(j, np.arange(J + 1)).tolist()  # no group is empty: B > 0
    return [
        (*_moments(h[lo:hi], psi[lo:hi], B), int(below[lo:hi].sum()))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@dataclass(frozen=True)
class PrefixEstimates:
    """The estimates of a nested family, one :class:`RuinEstimate` per
    group, read from the same draws."""

    estimates: tuple[RuinEstimate, ...]

    @property
    def replicates(self) -> int:
        """Replicates summed over the groups."""
        return sum(e.replicates for e in self.estimates)


def estimate(
    params: RiskParams,
    model: BlockModel,
    group: AgentSubset,
    sizes,
    B: int,
    base_seed: int,
    threads: int = 1,
    method: str = "collapsed",
) -> PrefixEstimates:
    """Monte-Carlo estimates of each group's ruin probability and tail
    ``P(PK ratio < 1)``, read from the same count draws in one pass.

    Group ``j`` is the first ``sizes[j]`` members of ``group``, such as a
    sweep's ``{1..k}``; ``group`` alone is ``[group.size]``.  Only a group's
    reserve (:func:`model.group_decay`) reads its members.  Per replicate a
    group contributes :func:`_summand` to ``psi`` and ``1{PK < 1}`` to
    ``tail`` (a disconnected group has ratio 0).  The default sampler draws every group's per-class
    connected counts at once (:func:`netgen.sample_prefix_counts`) for any
    blockmodel; the groups share their first agents and their objects, so
    each estimate has the law of its own one-group call, and the errors of
    different groups are positively correlated.  ``method="graph"`` samples
    the full network (types and edges, :func:`netgen.sample_graph_counts`)
    instead: the reference, with the same law on a different stream.

    When the count lattice has at most ``min(B, BLOCK_SIZE)`` points, the
    blocks' integer histograms are added and each visited count vector is
    evaluated once: the tail is an exact count, and ``psi``'s mean and
    standard error are order-free sums (:func:`_moments`).  Otherwise every
    replicate is evaluated and summed with pairwise trees.  The choice
    depends on the class sizes and ``B`` only, and output is bit-identical
    for fixed ``(group, sizes, base_seed, B, method)`` regardless of
    ``threads``.

    Raises:
        ValueError: On a group beyond ``1..q``, on sizes that
            :func:`model.prefix_sizes` rejects, on ``B < 2``, or on an
            unknown ``method``.
    """
    group.validate_for(params.q)
    sizes = prefix_sizes(sizes, group.size)
    if B < 2:
        raise ValueError("need at least two replicates for a standard error")
    if method == "collapsed":
        sample = partial(netgen.sample_prefix_counts, model, sizes, params.class_sizes)
    elif method == "graph":
        sample = partial(netgen.sample_graph_counts, model, params, group, sizes)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    args = (sample, params.lam, params.class_ratio, group_decay(params, group, sizes))
    # a lattice with no more points than a block has rows is histogrammed
    dims = _lattice_dims(params.class_sizes, min(B, BLOCK_SIZE))
    if dims is None:
        stats = _by_replicate(*args, B, base_seed, threads)
    else:
        stats = _by_histogram(*args, dims, B, base_seed, threads)
    out = []
    for mean, stderr, below in stats:
        phat = below / B  # a frequency, with the binomial error
        tail = EstimateWithCI(phat, math.sqrt(phat * (1.0 - phat) / B), int(B))
        out.append(RuinEstimate(psi=EstimateWithCI(mean, stderr, int(B)), tail=tail))
    return PrefixEstimates(tuple(out))


def estimate_psi(params, model, group: AgentSubset, *args, **kwargs) -> EstimateWithCI:
    """The ``psi`` of ``estimate`` of ``group`` alone.  It stays because
    ``perfbench/workloads.check_sbm_against_graph`` calls it with ``method="graph"``."""
    return estimate(params, model, group, [group.size], *args, **kwargs).estimates[0].psi
