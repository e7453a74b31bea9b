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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import netgen
from .model import AgentSubset, RiskParams, prefix_sizes, proportional_r
from .netgen import BlockModel
from .streams import RUIN_DOMAIN, block_totals, mean_stderr, weighted_sum


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
    unchecked: ``pk * exp(-(1 - pk) * decay)`` below 1, ``decay =
    total_reserve / r_q``, and 1 from 1 upward (certain ruin); continuous at
    ``pk = 1``.  A float for a 0-d ``pk``, or one per column of a
    ``(replicates, groups)`` array of ratios."""
    capped = np.minimum(pk, 1.0)
    out = np.where(pk >= 1.0, 1.0, capped * np.exp(-(1.0 - capped) * decay))
    return float(out) if out.ndim == 0 else out


def rate_and_premium(lam: float, counts: np.ndarray, ratio: np.ndarray):
    """Claim rate ``lam * n`` and premium rate ``sum_g n_g * ratio_g`` (units of
    ``r_q``) of ``(rows, G)`` connected counts per class of :attr:`RiskParams.class_ratio`."""
    total = np.einsum("ij->i", counts)  # exact integers, faster than sum(axis=1)
    return lam * total, weighted_sum(counts, ratio)


def _pk_from_counts(lam: float, counts: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """PK ratios ``rate / premium`` (:func:`rate_and_premium`), 0 for a
    disconnected group; never negative, since the ratios are positive."""
    rate, premium = rate_and_premium(lam, counts, ratio)
    with np.errstate(invalid="ignore"):
        np.divide(rate, premium, out=rate)
    # every ratio is positive and normal, so the one NaN is a disconnected
    # group's 0/0, and fmax takes 0 over it (one pass, unlike a masked write)
    return np.fmax(rate, 0.0, out=rate)


def _prefix_sampler(params: RiskParams, model: BlockModel, group_sizes):
    """PK-ratio sampler of nested groups of ``group_sizes`` agents on
    per-class counts of connected objects from
    :func:`netgen.sample_prefix_counts`: the groups' agent-type counts layer
    by layer, then one multinomial per class.  Returns
    ``(rows, len(group_sizes))`` ratios."""
    ratio, sizes = params.class_ratio, params.class_sizes
    J = len(group_sizes)

    def chunk(rng: np.random.Generator, n: int) -> np.ndarray:
        counts = netgen.sample_prefix_counts(model, group_sizes, sizes, rng, n)
        return _pk_from_counts(params.lam, counts.reshape(n * J, sizes.size), ratio).reshape(n, J)

    # the cap fixes where a block splits into chunks, and so the draws
    return lambda rng, n: netgen._in_chunks(chunk, rng, n, J * max(sizes.size, model.K * model.L))


def _graph_sampler(params: RiskParams, model: BlockModel, group: AgentSubset, group_sizes):
    """PK-ratio sampler of the prefixes of ``group`` of ``group_sizes`` through
    the full type + graph + indicator pipeline, each one's rows read from one
    incidence draw: the reference of :func:`_prefix_sampler`, with ``q * d`` cells per replicate."""
    rows = [group.zero_based()[:k] for k in group_sizes]
    ratio = params.class_ratio
    cls = np.searchsorted(ratio, params.c / params.mu)  # each object's class
    G, J = ratio.size, len(rows)

    def chunk(rng: np.random.Generator, m: int) -> np.ndarray:
        edges = netgen.sample_incidence(model, params.q, params.d, rng, m)
        ind = np.stack([edges[:, r, :].any(axis=1) for r in rows], axis=1)  # (m, J, d)
        # (replicate, group, class) of each indicator
        cell = (np.arange(m * J)[:, None] * G + cls).reshape(ind.shape)
        counts = np.bincount(cell[ind], minlength=m * J * G).reshape(m * J, G)
        return _pk_from_counts(params.lam, counts, ratio).reshape(m, J)

    return lambda rng, n: netgen._in_chunks(chunk, rng, n, params.q * params.d)


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
    ``P(PK ratio < 1)``, read from the same PK draws in one pass.

    Group ``j`` is the first ``sizes[j]`` members of ``group``, such as a
    sweep's ``{1..k}``; ``group`` alone is ``[group.size]``.  Only a group's
    reserve reads its members.  Per replicate a group contributes
    :func:`_summand` to ``psi`` and ``1{PK < 1}`` to ``tail`` (a disconnected
    group has ratio 0).  The default sampler draws every group's per-class
    connected counts at once (:func:`netgen.sample_prefix_counts`) for any
    blockmodel; the groups share their first agents and their objects, so
    each estimate has the law of its own one-group call, and the errors of
    different groups are positively correlated.  ``method="graph"`` samples
    the full network (types and edges) instead: the reference, with the same
    law on a different stream.  Output is bit-identical for fixed ``(group,
    sizes, base_seed, B, method)`` regardless of ``threads``.

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
        sampler = _prefix_sampler(params, model, sizes)
    elif method == "graph":
        sampler = _graph_sampler(params, model, group, sizes)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    reserves = params.u[group.zero_based()]
    decay = np.array([float(reserves[:k].sum()) / proportional_r(params, k) for k in sizes])

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
        pk = sampler(rng, n)  # (rows, groups)
        if len(sizes) == 1:
            pk = pk[:, 0]  # a 1-D array sums faster, with the same bits
        psi = _summand(pk, decay)
        return psi, psi * psi, pk < 1.0

    totals = block_totals(B, RUIN_DOMAIN, base_seed, draw, threads)
    out = []
    for total, total_sq, below in zip(*(t.reshape(-1).tolist() for t in totals)):
        mean, stderr = mean_stderr(total, total_sq, B)
        phat = below / B  # a frequency, with the binomial error
        tail = EstimateWithCI(phat, math.sqrt(phat * (1.0 - phat) / B), int(B))
        out.append(RuinEstimate(psi=EstimateWithCI(mean, stderr, int(B)), tail=tail))
    return PrefixEstimates(tuple(out))


def estimate_psi(params, model, group: AgentSubset, *args, **kwargs) -> EstimateWithCI:
    """The ``psi`` of ``estimate`` of ``group`` alone.  It stays because
    ``perfbench/workloads.check_sbm_against_graph`` calls it with ``method="graph"``."""
    return estimate(params, model, group, [group.size], *args, **kwargs).estimates[0].psi
