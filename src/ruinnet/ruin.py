"""Monte-Carlo estimation of group ruin probabilities.

Per network realisation the group's ruin behaviour is summarised by the
network Pollaczek-Khintchine ratio

    P = lam * (number of connected objects) / (sum over connected j of c_j/mu_j)

with the convention 0/0 := 0.  A realisation with ``P >= 1`` implies
certain group ruin; with ``P < 1`` the group ruins with probability
``P * exp(-(1-P) * U / r)`` where ``U`` is the group's total reserve and
``r`` the proportional-weight scaling constant.  Averaging that summand
over network replicates estimates the group ruin probability, and the
frequency of ``P < 1`` estimates the tail probability driving the phase
transition; :func:`estimate` reads both from the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import netgen
from .model import AgentSubset, RiskParams, object_classes, proportional_r
from .netgen import BlockModel
from .streams import RUIN_DOMAIN, block_totals, mean_stderr


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
    """
    if not r_q > 0:
        raise ValueError("r_q must be positive")
    if total_reserve < 0:
        raise ValueError("total reserve must be nonnegative")
    pk = np.asarray(pk, dtype=np.float64)
    if (pk < 0).any():
        raise ValueError("pk must be nonnegative")
    decay = total_reserve / r_q
    capped = np.minimum(pk, 1.0)
    out = np.where(pk >= 1.0, 1.0, capped * np.exp(-(1.0 - capped) * decay))
    return float(out) if out.ndim == 0 else out


def _pk_from_counts(lam: float, counts: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """PK ratios of replicates given as counts of connected objects per
    :func:`model.object_classes` class, 0 for a disconnected group.

    Both samplers pass freshly allocated integer counts through this
    arithmetic, so a configuration gives the same bits (and the same side
    of a tie at 1) whichever sampler drew it.  The BLAS product can round
    differently for an array that starts at an unaligned offset, such as
    a slice.
    """
    total = counts.sum(axis=1)
    out = np.zeros(counts.shape[0])
    np.divide(lam * total, counts @ ratio, out=out, where=total > 0)
    return out


def _collapsed_sampler(params: RiskParams, model: BlockModel, group: AgentSubset):
    """PK-ratio sampler on per-class counts of connected objects from
    :func:`netgen.sample_group_counts`: the group's agent-type counts, then
    one binomial per class, so a replicate holds ``G`` cells."""
    ratio, _, sizes = object_classes(params)

    def chunk(rng: np.random.Generator, n: int) -> np.ndarray:
        counts = netgen.sample_group_counts(model, group.size, sizes, rng, n)
        return _pk_from_counts(params.lam, counts, ratio)

    return lambda rng, n: netgen._in_chunks(chunk, rng, n, sizes.size)


def _graph_sampler(params: RiskParams, model: BlockModel, group: AgentSubset):
    """PK-ratio sampler through the full type + graph + indicator pipeline.

    The reference implementation of :func:`_collapsed_sampler`: same law,
    different stream, and ``q * d`` cells per replicate.
    """
    rows = group.zero_based()
    ratio, cls, _ = object_classes(params)
    G = ratio.size

    def chunk(rng: np.random.Generator, m: int) -> np.ndarray:
        s = netgen._draw_types(rng, model.w, (m, params.q))
        t = netgen._draw_types(rng, model.v, (m, params.d))
        pm = model.p[s[:, :, None], t[:, None, :]]
        edges = rng.random((m, params.q, params.d)) < pm
        ind = edges[:, rows, :].any(axis=1)
        cell = np.arange(m)[:, None] * G + cls  # (replicate, class) of each indicator
        counts = np.bincount(cell[ind], minlength=m * G).reshape(m, G)
        return _pk_from_counts(params.lam, counts, ratio)

    return lambda rng, n: netgen._in_chunks(chunk, rng, n, params.q * params.d)


def _make_sampler(params: RiskParams, model: BlockModel, group: AgentSubset, B: int, method: str):
    group.validate_for(params.q)
    if B < 2:
        raise ValueError("need at least two replicates for a standard error")
    if method in ("auto", "collapsed"):
        return _collapsed_sampler(params, model, group)
    if method == "graph":
        return _graph_sampler(params, model, group)
    raise ValueError(f"unknown sampling method {method!r}")


def _frequency(total: float, B: int) -> EstimateWithCI:
    """Frequency ``total / B`` with the binomial error ``sqrt(phat*(1-phat)/B)``."""
    phat = total / B
    return EstimateWithCI(mean=phat, stderr=math.sqrt(phat * (1.0 - phat) / B), replicates=int(B))


def estimate(
    params: RiskParams,
    model: BlockModel,
    group: AgentSubset,
    B: int,
    base_seed: int,
    threads: int = 1,
    method: str = "auto",
) -> RuinEstimate:
    """Monte-Carlo estimates of the group ruin probability and of the tail
    ``P(PK ratio < 1)``, read from the same PK draws in one pass.

    Each replicate draws a network realisation and computes its PK ratio;
    it contributes :func:`psi_summand` to ``psi`` and the indicator of a
    ratio below 1 (a disconnected group has ratio 0) to ``tail``.  The
    default sampler draws the ratio in collapsed form for every
    blockmodel: the group's agent-type counts, then one binomial count of
    connected objects per premium class (:func:`netgen.sample_group_counts`);
    no object type is drawn.  ``method="graph"`` samples the
    full network (types and edges) instead; it is the reference with the
    same law on a different stream.  Output is bit-identical for fixed
    ``(base_seed, B, method)`` regardless of ``threads``.

    Args:
        params: Risk parameters; the group's total reserve must be positive.
        model: Network model.
        group: Agent group.
        B: Replicate count, at least 2.
        base_seed: Base seed of the replicate streams.
        threads: Worker threads (does not affect the result).
        method: ``auto`` (= ``collapsed``) | ``collapsed`` | ``graph``
            sampling backend.

    Raises:
        ValueError: On ``B < 2`` or zero total reserve.
    """
    sampler = _make_sampler(params, model, group, B, method)
    total_reserve = float(params.u[group.zero_based()].sum())
    if not total_reserve > 0:
        raise ValueError("total reserve must be positive")
    r_q = proportional_r(params, group)

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
        pk = sampler(rng, n)
        psi = psi_summand(pk, r_q, total_reserve)
        return psi, psi * psi, pk < 1.0

    total, total_sq, below = block_totals(B, RUIN_DOMAIN, base_seed, draw, threads)
    mean, stderr = mean_stderr(total, total_sq, B)
    psi = EstimateWithCI(mean=mean, stderr=stderr, replicates=int(B))
    return RuinEstimate(psi=psi, tail=_frequency(below, B))


def estimate_psi(
    params: RiskParams,
    model: BlockModel,
    group: AgentSubset,
    B: int,
    base_seed: int,
    threads: int = 1,
    method: str = "auto",
) -> EstimateWithCI:
    """Monte-Carlo estimate of the group ruin probability: the ``psi``
    field of :func:`estimate`, with the same arguments and errors."""
    return estimate(params, model, group, B, base_seed, threads, method).psi


def estimate_tail(
    params: RiskParams,
    model: BlockModel,
    group: AgentSubset,
    B: int,
    base_seed: int,
    threads: int = 1,
    method: str = "auto",
) -> EstimateWithCI:
    """Monte-Carlo frequency of realisations with PK ratio below 1.

    The tail-only pass: the same draws and value as ``estimate(...).tail``,
    without the ruin summand, so the group's total reserve may be zero.  A
    disconnected group has ratio 0 and counts toward the event.  The
    standard error is the binomial ``sqrt(phat*(1-phat)/B)``.
    """
    sampler = _make_sampler(params, model, group, B, method)

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray]:
        return (sampler(rng, n) < 1.0,)

    (below,) = block_totals(B, RUIN_DOMAIN, base_seed, draw, threads)
    return _frequency(below, B)
