"""Exact law of the PK ratio: a zero-variance reference for the estimators.

Given the group's agent-type counts ``m``, object types are iid and edges
independent, so each object connects to the group independently with
probability ``pbar(m) = sum_l v_l (1 - prod_k (1 - p_kl)^m_k)``.  The
connected count of ``c/mu`` class ``g`` is then ``Binomial(d_g, pbar(m))``,
independently across classes.  Summing the ruin summand and ``1{PK < 1}``
against this law, over the agent-type compositions with their multinomial
weights, gives the exact ruin probability and tail.  The PK ratio of each
count vector goes through :func:`ruinnet.ruin._pk_from_counts`, so a tie at
1 falls on the side the samplers put it.
"""

from dataclasses import dataclass
from math import lgamma, log, prod

import numpy as np

from ruinnet.approx import _compositions
from ruinnet.model import AgentSubset, RiskParams, proportional_r
from ruinnet.netgen import BlockModel, connect_given_counts
from ruinnet.ruin import _pk_from_counts, psi_summand

#: Largest count lattice ``prod_g (d_g + 1)`` the evaluator sums over.
MAX_LATTICE = 1_000_000


@dataclass(frozen=True)
class ExactLaw:
    """Exact moments of one replicate of :func:`ruinnet.ruin.estimate`.

    ``psi`` and ``psi_sq`` are the first two moments of the ruin summand
    (of ``min(PK ratio, 1)`` when the group's total reserve is zero);
    ``tail`` is ``P(PK ratio < 1)``.
    """

    psi: float
    psi_sq: float
    tail: float

    def z_psi(self, mean: float, replicates: int) -> float:
        """z-score of a ``psi`` estimate from ``replicates`` draws."""
        return _z(mean - self.psi, self.psi_sq - self.psi**2, replicates)

    def z_tail(self, mean: float, replicates: int) -> float:
        """z-score of a ``tail`` frequency from ``replicates`` draws."""
        return _z(mean - self.tail, self.tail * (1.0 - self.tail), replicates)


def _z(diff: float, variance: float, replicates: int) -> float:
    """``diff`` in standard errors; a zero-variance law demands ``diff == 0``
    up to rounding."""
    if variance <= 1e-15:
        return 0.0 if abs(diff) < 1e-12 else float("inf")
    return diff / np.sqrt(variance / replicates)


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """``P(Binomial(n, p) = k)`` for ``k = 0..n``."""
    k = np.arange(n + 1)
    if p == 0.0 or p == 1.0:
        return (k == (n if p == 1.0 else 0)).astype(np.float64)
    log_comb = np.array([lgamma(n + 1) - lgamma(j + 1) - lgamma(n - j + 1) for j in k])
    return np.exp(log_comb + k * log(p) + (n - k) * log(1.0 - p))


def exact_law(params: RiskParams, model: BlockModel, group: AgentSubset) -> ExactLaw:
    """Exact ``psi``, its second moment and the tail for a group of ``params``."""
    group.validate_for(params.q)
    sizes = params.class_sizes
    shape = tuple(int(dg) + 1 for dg in sizes)
    if prod(shape) > MAX_LATTICE:
        raise ValueError(f"count lattice of {prod(shape)} points exceeds {MAX_LATTICE}")
    # every per-class count vector, row-major over the lattice
    counts = np.ascontiguousarray(np.indices(shape).reshape(len(shape), -1).T, dtype=np.int64)
    pk = _pk_from_counts(params.lam, counts, params.class_ratio)
    below = (pk < 1.0).astype(np.float64)
    total_reserve = float(params.u[group.zero_based()].sum())
    summand = psi_summand(pk, proportional_r(params, group), total_reserve)
    psi = psi_sq = tail = 0.0
    agents, weights = _compositions(group.size, model.w)
    for m, weight in zip(agents, weights.tolist()):
        pbar = min(float(connect_given_counts(model, m) @ model.v), 1.0)
        pmf = np.ones(1)
        for dg in sizes:
            pmf = np.multiply.outer(pmf, binomial_pmf(int(dg), pbar)).ravel()
        psi += weight * float(pmf @ summand)
        psi_sq += weight * float(pmf @ (summand * summand))
        tail += weight * float(pmf @ below)
    return ExactLaw(psi=psi, psi_sq=psi_sq, tail=tail)
