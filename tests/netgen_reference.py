"""Reference group indicators and group-connection probabilities.

The package never materialises the group's indicator vector or the
marginal connection probability: it draws the group's agent-type counts,
then per class one multinomial of the objects by the first nested group
they connect to (:func:`ruinnet.netgen.sample_prefix_counts`).
These are the per-object and closed-form quantities the tests check that
sampler, and the incidence matrices of :func:`ruinnet.netgen.sample_incidence`,
against.
"""

import itertools

import numpy as np

from ruinnet.model import AgentSubset
from ruinnet.netgen import BlockModel

#: Largest number of terms the enumerated connection-probability oracle
#: will expand (K^|Q| * L).
MAX_ENUM_TERMS = 10_000_000


def group_indicators(incidence: np.ndarray, group: AgentSubset) -> np.ndarray:
    """Object ``j`` is connected to some agent of ``group``: a boolean vector
    per ``q x d`` incidence matrix, shape ``(..., d)`` for ``(..., q, d)``."""
    group.validate_for(incidence.shape[-2])
    return incidence[..., group.zero_based(), :].any(axis=-2)


def connect_prob(model: BlockModel, size_q: int) -> float:
    """Probability that a fixed object connects to a group of ``size_q`` agents.

    Uses the factorised form ``sum_l v_l * (1 - (sum_k w_k (1 - p_kl))^|Q|)``,
    which is exact because agent types are iid.
    """
    if size_q < 1:
        raise ValueError("group size must be at least 1")
    no_edge_per_l = (model.w[:, None] * (1.0 - model.p)).sum(axis=0) ** int(size_q)
    return float((model.v * (1.0 - no_edge_per_l)).sum())


def connect_prob_enumerated(model: BlockModel, size_q: int) -> float:
    """Brute-force evaluation of the group-connection probability.

    Expands the full sum over agent-type tuples and object types; kept as
    an independent oracle for :func:`connect_prob`.
    """
    if size_q < 1:
        raise ValueError("group size must be at least 1")
    if model.K**size_q * model.L > MAX_ENUM_TERMS:
        raise ValueError("instance too large to enumerate; use connect_prob")
    total = 0.0
    for ks in itertools.product(range(model.K), repeat=int(size_q)):
        w_weight = float(np.prod(model.w[list(ks)]))
        if w_weight == 0.0:
            continue
        for l in range(model.L):
            no_edge = float(np.prod(1.0 - model.p[list(ks), l]))
            total += (1.0 - no_edge) * model.v[l] * w_weight
    return total


def sample_group_indicators(
    model: BlockModel, size_q: int, d: int, rng: np.random.Generator
) -> np.ndarray:
    """One-type models: draw the group-connection indicators directly.

    Under a Bernoulli network the indicators are iid with success
    probability ``1 - (1-p)^|Q|``, so the graph itself never needs to be
    materialised.
    """
    if not model.is_bernoulli:
        raise ValueError("direct indicator sampling requires a one-type model")
    pc = connect_prob(model, size_q)
    return rng.random(int(d)) < pc


def one_group_counts(
    model: BlockModel, size_q: int, class_sizes, rng: np.random.Generator, replicates: int
) -> np.ndarray:
    """One group's connected counts per class, drawn as the single binomial
    the nested draw reduces to: the agent-type counts (when ``K > 1``), then
    one ``Binomial(d_g, pbar)`` per class.  Shape ``(replicates, G)``."""
    sizes = np.asarray(class_sizes, dtype=np.int64)
    m = rng.multinomial(size_q, model.w, size=replicates) if model.K > 1 else np.array([[size_q]])
    pbar = np.minimum((1.0 - np.prod((1.0 - model.p) ** m[:, :, None], axis=1)) @ model.v, 1.0)
    return rng.binomial(sizes, pbar[:, None], size=(replicates, sizes.size))
