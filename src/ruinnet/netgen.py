"""Bipartite random networks from a stochastic blockmodel.

Agents and objects carry latent types; an edge between agent ``i`` and
object ``j`` appears independently with probability ``p[s(i), t(j)]``
given the types.  The one-type special case is a bipartite Bernoulli
graph.  Type labels are 0-based indices into the type-probability vectors.

:func:`sample_incidence` draws whole networks; the estimator and the
approximation draw only what they need of one (:func:`sample_group_counts`,
:func:`sample_configurations`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Memory cap (array cells) of one vectorised draw; see :func:`_in_chunks`.
_CHUNK_CELLS = 1 << 22


def _as_prob_vector(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if (arr < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    if abs(arr.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1 (got {arr.sum()!r})")
    return arr


@dataclass(frozen=True)
class BlockModel:
    """Stochastic blockmodel: type probabilities and edge-probability matrix.

    Attributes:
        w: Agent-type probabilities, length ``K``.
        v: Object-type probabilities, length ``L``.
        p: ``K x L`` matrix of edge probabilities.
    """

    w: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        w = _as_prob_vector(self.w, "w")
        v = _as_prob_vector(self.v, "v")
        p = np.atleast_2d(np.asarray(self.p, dtype=np.float64))
        if p.shape != (w.size, v.size):
            raise ValueError(f"p must have shape ({w.size}, {v.size}), got {p.shape}")
        if not ((p >= 0) & (p <= 1)).all():
            raise ValueError("edge probabilities must lie in [0, 1]")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "p", p)

    @classmethod
    def bernoulli(cls, p: float) -> "BlockModel":
        """One agent type, one object type, edge probability ``p``."""
        return cls(w=np.ones(1), v=np.ones(1), p=np.full((1, 1), float(p)))

    @property
    def K(self) -> int:
        return self.w.size

    @property
    def L(self) -> int:
        return self.v.size

    @property
    def is_bernoulli(self) -> bool:
        return self.K == 1 and self.L == 1


def _in_chunks(fn, rng: np.random.Generator, n: int, cells_per_row: int) -> np.ndarray:
    """``fn(rng, rows)`` over consecutive chunks of ``n`` rows, concatenated
    along the last axis, each chunk holding at most ``_CHUNK_CELLS`` cells.

    Chunks draw one after another from ``rng``, so a draw that consumes
    the stream row by row is the same however it is split.
    """
    cap = max(1, _CHUNK_CELLS // max(1, int(cells_per_row)))
    return np.concatenate([fn(rng, min(cap, n - lo)) for lo in range(0, n, cap)], axis=-1)


def _draw_types(rng: np.random.Generator, probs: np.ndarray, size) -> np.ndarray:
    if probs.size == 1:
        return np.zeros(size, dtype=np.int64)
    return rng.choice(probs.size, size=size, p=probs)


def sample_incidence(
    model: BlockModel, q: int, d: int, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Incidence matrices of ``n`` independent networks, shape ``(n, q, d)``.

    Draws the agent types of every network, then their object types (each
    only when there is more than one type), then one uniform per (agent,
    object) pair, compared with ``p[s(i), t(j)]``.
    """
    s = _draw_types(rng, model.w, (n, q))
    t = _draw_types(rng, model.v, (n, d))
    pm = model.p[s[..., :, None], t[..., None, :]]
    return rng.random(pm.shape) < pm


def connect_given_counts(model: BlockModel, agent_counts) -> np.ndarray:
    """Probability that an object of each type connects to a group whose
    agent-type counts are ``agent_counts``: ``1 - prod_k (1 - p_kl)^m_k``.

    ``agent_counts`` has shape ``(..., K)``; the result has shape ``(..., L)``.
    """
    m = np.asarray(agent_counts)
    return 1.0 - np.prod((1.0 - model.p) ** m[..., :, None], axis=-2)


def _connect_for_group(model: BlockModel, size_q: int, rng: np.random.Generator, n: int):
    """:func:`connect_given_counts` of ``n`` draws of the group's agent-type counts
    ``m ~ Multinomial(size_q, w)``: ``(n, L)``, or ``(1, L)`` (nothing drawn) if ``K == 1``."""
    m = rng.multinomial(int(size_q), model.w, size=n) if model.K > 1 else [[int(size_q)]]
    return connect_given_counts(model, m)


def sample_configurations(
    model: BlockModel,
    size_q: int,
    class_sizes: np.ndarray,
    rng: np.random.Generator,
    replicates: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw collapsed type configurations of a group of ``size_q`` agents.

    A configuration is the group's agent-type counts ``m`` together with
    the object counts per (class, object type) ``n_g ~ Multinomial(d_g, v)``
    for a partition of the objects into classes of sizes ``class_sizes``.
    Given it, the group-connection indicators are independent.

    Returns:
        ``(connect, counts)``: :func:`_connect_for_group` and integer object
        counts of shape ``(replicates, G, L)`` (``(1, G, 1)``, nothing drawn,
        when ``L == 1``), ``G = len(class_sizes)``; both broadcast to ``replicates`` rows.
    """
    sizes = np.asarray(class_sizes, dtype=np.int64)
    n = int(replicates)
    connect = _connect_for_group(model, size_q, rng, n)
    if model.L > 1:
        return connect, rng.multinomial(sizes, model.v, size=(n, sizes.size))
    return connect, sizes[None, :, None]


def sample_group_counts(
    model: BlockModel,
    size_q: int,
    class_sizes: np.ndarray,
    rng: np.random.Generator,
    replicates: int,
) -> np.ndarray:
    """Counts of group-connected objects per class, for any blockmodel.

    Draws the group's agent-type counts ``m`` (only when ``K > 1``), then
    the connected count of class ``g`` as one ``Binomial(d_g, pbar(m))``,
    ``pbar(m) = sum_l v_l connect_l(m)``: given ``m``, object types are iid
    and edges independent, so each object connects independently with
    probability ``pbar(m)``.  The law equals that of the full type + graph
    + indicator pipeline, and no object type is drawn.  On a one-type
    model it is the single draw ``rng.binomial(class_sizes, 1 - (1-p)**size_q)``.

    Returns:
        Integer array of shape ``(replicates, len(class_sizes))``.
    """
    sizes = np.asarray(class_sizes, dtype=np.int64)
    n = int(replicates)
    # v sums to 1 only within rounding, so pbar may exceed 1 by an ulp
    pbar = np.minimum(_connect_for_group(model, size_q, rng, n) @ model.v, 1.0)
    return rng.binomial(sizes, pbar[:, None], size=(n, sizes.size))
