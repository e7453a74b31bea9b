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
the phase transition; :func:`estimate` reads both from the same draws, and
:func:`estimate_prefixes` reads them for nested prefix groups from one
nested draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import netgen
from .model import AgentSubset, RiskParams, proportional_r
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


def _summand(pk: np.ndarray, decay):
    """:func:`psi_summand` given ``decay = total_reserve / r_q``, unchecked: a
    float for a 0-d ``pk``, or one per column of a ``(replicates, groups)``
    array of ratios."""
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
    """PK-ratio sampler of nested prefix groups on per-class counts of
    connected objects from :func:`netgen.sample_prefix_counts`: the groups'
    agent-type counts layer by layer, then one multinomial per class.
    Returns ``(rows, len(group_sizes))`` ratios."""
    ratio, sizes = params.class_ratio, params.class_sizes
    J = len(group_sizes)

    def chunk(rng: np.random.Generator, n: int) -> np.ndarray:
        counts = netgen.sample_prefix_counts(model, group_sizes, sizes, rng, n)
        return _pk_from_counts(params.lam, counts.reshape(n * J, sizes.size), ratio).reshape(n, J)

    # the largest arrays per replicate: counts per group and class, and
    # the edge powers per group and (agent type, object type)
    return lambda rng, n: netgen._in_chunks(chunk, rng, n, J * max(sizes.size, model.K * model.L))


def _graph_sampler(params: RiskParams, model: BlockModel, group: AgentSubset):
    """PK-ratio sampler through the full type + graph + indicator pipeline.

    The reference implementation of :func:`_prefix_sampler`: same law,
    different stream, and ``q * d`` cells per replicate.
    """
    rows = group.zero_based()
    ratio = params.class_ratio
    cls = np.searchsorted(ratio, params.c / params.mu)  # each object's class
    G = ratio.size

    def chunk(rng: np.random.Generator, m: int) -> np.ndarray:
        edges = netgen.sample_incidence(model, params.q, params.d, rng, m)
        ind = edges[:, rows, :].any(axis=1)
        cell = np.arange(m)[:, None] * G + cls  # (replicate, class) of each indicator
        counts = np.bincount(cell[ind], minlength=m * G).reshape(m, G)
        return _pk_from_counts(params.lam, counts, ratio)[:, None]

    return lambda rng, n: netgen._in_chunks(chunk, rng, n, params.q * params.d)


def _validate(params: RiskParams, groups: list[AgentSubset], B: int) -> None:
    for group in groups:
        group.validate_for(params.q)
    if B < 2:
        raise ValueError("need at least two replicates for a standard error")


def _make_sampler(params: RiskParams, model: BlockModel, group: AgentSubset, B: int, method: str):
    _validate(params, [group], B)
    if method == "collapsed":
        return _prefix_sampler(params, model, [group.size])
    if method == "graph":
        return _graph_sampler(params, model, group)
    raise ValueError(f"unknown sampling method {method!r}")


def _frequency(total: float, B: int) -> EstimateWithCI:
    """Frequency ``total / B`` with the binomial error ``sqrt(phat*(1-phat)/B)``."""
    phat = total / B
    return EstimateWithCI(mean=phat, stderr=math.sqrt(phat * (1.0 - phat) / B), replicates=int(B))


def _run(
    sampler, groups: list[AgentSubset], params: RiskParams, B: int, base_seed: int, threads: int
) -> list[RuinEstimate]:
    """One :class:`RuinEstimate` per group, from one pass of ``B`` draws of
    ``sampler``: PK ratios of shape ``(rows, len(groups))``."""
    decay = np.array(
        [float(params.u[g.zero_based()].sum()) / proportional_r(params, g) for g in groups]
    )

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
        pk = sampler(rng, n)
        if len(groups) == 1:
            pk = pk[:, 0]  # a 1-D array sums faster, with the same bits
        psi = _summand(pk, decay)
        return psi, psi * psi, pk < 1.0

    totals = block_totals(B, RUIN_DOMAIN, base_seed, draw, threads)
    out = []
    for total, total_sq, below in zip(*(t.reshape(-1).tolist() for t in totals)):
        mean, stderr = mean_stderr(total, total_sq, B)
        psi = EstimateWithCI(mean=mean, stderr=stderr, replicates=int(B))
        out.append(RuinEstimate(psi=psi, tail=_frequency(below, B)))
    return out


def estimate(
    params: RiskParams,
    model: BlockModel,
    group: AgentSubset,
    B: int,
    base_seed: int,
    threads: int = 1,
    method: str = "collapsed",
) -> RuinEstimate:
    """Monte-Carlo estimates of the group ruin probability and of the tail
    ``P(PK ratio < 1)``, read from the same PK draws in one pass.

    Each replicate draws a network realisation and computes its PK ratio;
    it contributes :func:`psi_summand` to ``psi`` and the indicator of a
    ratio below 1 (a disconnected group has ratio 0) to ``tail``.  The
    default sampler draws the ratio in collapsed form for every
    blockmodel: the group's agent-type counts, then one binomial count of
    connected objects per premium class (the one-group case of
    :func:`netgen.sample_prefix_counts`); no object type is drawn.
    ``method="graph"`` samples the full network (types and edges)
    instead; it is the reference with the same law on a different stream.
    Output is bit-identical for fixed ``(base_seed, B, method)`` regardless
    of ``threads``.

    Args:
        params: Risk parameters; the group's total reserve may be zero.
        model: Network model.
        group: Agent group.
        B: Replicate count, at least 2.
        base_seed: Base seed of the replicate streams.
        threads: Worker threads (does not affect the result).
        method: ``collapsed`` | ``graph`` sampling backend.

    Raises:
        ValueError: On ``B < 2``.
    """
    sampler = _make_sampler(params, model, group, B, method)
    return _run(sampler, [group], params, B, base_seed, threads)[0]


@dataclass(frozen=True)
class PrefixEstimates:
    """The estimates of nested prefix groups, one :class:`RuinEstimate` each,
    read from the same draws."""

    estimates: tuple[RuinEstimate, ...]

    @property
    def replicates(self) -> int:
        """Replicates summed over the groups, as one :func:`estimate` call
        per group would report them."""
        return sum(e.replicates for e in self.estimates)


def estimate_prefixes(
    params: RiskParams,
    model: BlockModel,
    group_sizes,
    B: int,
    base_seed: int,
    threads: int = 1,
) -> PrefixEstimates:
    """:func:`estimate` for each prefix group ``{1, ..., k}``, ``k`` in the
    increasing ``group_sizes``, from one pass over nested draws.

    Each replicate draws every group's connected counts at once
    (:func:`netgen.sample_prefix_counts`): the groups share their first
    agents and their objects.  Each group's estimate has the law of its
    :func:`estimate`, and the errors of different groups are positively
    correlated.  One group gives :func:`estimate`'s bits.  Output is
    bit-identical for fixed ``(base_seed, B)`` regardless of ``threads``.

    Raises:
        ValueError: On ``B < 2``, or sizes that are not increasing within ``1..q``.
    """
    groups = [AgentSubset.prefix(k) for k in group_sizes]
    _validate(params, groups, B)
    sampler = _prefix_sampler(params, model, group_sizes)
    return PrefixEstimates(tuple(_run(sampler, groups, params, B, base_seed, threads)))


def estimate_psi(
    params: RiskParams,
    model: BlockModel,
    group: AgentSubset,
    B: int,
    base_seed: int,
    threads: int = 1,
    method: str = "collapsed",
) -> EstimateWithCI:
    """Monte-Carlo estimate of the group ruin probability: the ``psi``
    field of :func:`estimate`, with the same arguments and errors."""
    return estimate(params, model, group, B, base_seed, threads, method).psi
