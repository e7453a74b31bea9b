"""Bipartite random networks from a stochastic blockmodel.

Agents and objects carry latent types; an edge between agent ``i`` and
object ``j`` appears independently with probability ``p[s(i), t(j)]``
given the types.  The one-type special case is a bipartite Bernoulli
graph.  Type labels are 0-based indices into the type-probability vectors.

:func:`sample_incidence` draws whole networks, for the full-graph reference
only; the estimator, the path oracle and the approximation draw what they
need of one (:func:`sample_prefix_counts`, :func:`sample_configurations`).
Both take nested groups of agents, such as the prefix groups of a sweep, and
one draw serves every group: the agents are drawn layer by layer and the
objects once.  A single group is the one-layer case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import weighted_sum

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
    along the first axis, each chunk holding at most ``_CHUNK_CELLS`` cells.
    A lone chunk comes back as ``fn`` returned it, which may be a read-only
    view.

    Chunks draw one after another from ``rng``, so a draw that consumes
    the stream row by row is the same however it is split.
    """
    cap = max(1, _CHUNK_CELLS // max(1, int(cells_per_row)))
    if n <= cap:
        return fn(rng, n)
    return np.concatenate([fn(rng, min(cap, n - lo)) for lo in range(0, n, cap)])


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
    The product runs over the ``K`` slices of the powers, left to right: the
    bits of a reduce over the agent-type axis, without the strided reduce
    over that short axis.
    """
    m = np.asarray(agent_counts)
    powers = (1.0 - model.p) ** m[..., :, None]
    none = powers[..., 0, :]
    for k in range(1, model.K):
        none = none * powers[..., k, :]
    return 1.0 - none


def nested_sizes(group_sizes) -> np.ndarray:
    """``group_sizes`` as an ``int64`` vector, checked to be nonempty, positive
    and increasing: the sizes of nested groups."""
    sizes = np.asarray(group_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0 or sizes[0] < 1 or (sizes[1:] <= sizes[:-1]).any():
        raise ValueError(f"group sizes must be positive and increasing, got {sizes.tolist()}")
    return sizes


def _prefix_agent_counts(
    model: BlockModel, group_sizes, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Agent-type counts of nested groups of increasing ``group_sizes``.

    The agents are drawn layer by layer: the ``group_sizes[j] -
    group_sizes[j-1]`` agents that group ``j`` adds get ``Multinomial(layer
    size, w)`` type counts, and a group's counts sum its layers'.  Returns
    ``(n, J, K)``, or ``(1, J, 1)`` (nothing drawn) if ``K == 1``.  With one
    group it draws the bits of ``rng.multinomial(size, w, size=n)``.
    """
    sizes = nested_sizes(group_sizes)
    if model.K == 1:
        return sizes[None, :, None]
    layers = sizes.copy()
    layers[1:] -= sizes[:-1]
    return np.cumsum(rng.multinomial(layers, model.w, size=(n, sizes.size)), axis=1)


def sample_configurations(
    model: BlockModel,
    group_sizes,
    class_sizes: np.ndarray,
    rng: np.random.Generator,
    replicates: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw collapsed type configurations of nested groups of ``group_sizes`` agents.

    A configuration is a group's agent-type counts ``m`` together with
    the object counts per (class, object type) ``n_g ~ Multinomial(d_g, v)``
    for a partition of the objects into classes of sizes ``class_sizes``.
    Given it, the group-connection indicators are independent.  The groups
    share their first agents (:func:`_prefix_agent_counts`) and the object
    counts, and each group's configuration has the law of a single group's.

    Returns:
        ``(connect, counts)``: :func:`connect_given_counts` of each group's
        agent-type counts, ``(replicates, J, L)`` (``(1, J, L)``, nothing
        drawn, when ``K == 1``), and integer object counts of shape
        ``(replicates, G, L)`` (``(1, G, 1)``, nothing drawn, when ``L == 1``),
        ``G = len(class_sizes)``; both broadcast to ``replicates`` rows.
    """
    sizes = np.asarray(class_sizes, dtype=np.int64)
    n = int(replicates)
    connect = connect_given_counts(model, _prefix_agent_counts(model, group_sizes, rng, n))
    if model.L > 1:
        return connect, rng.multinomial(sizes, model.v, size=(n, sizes.size))
    return connect, sizes[None, :, None]


def sample_prefix_counts(
    model: BlockModel,
    group_sizes,
    class_sizes: np.ndarray,
    rng: np.random.Generator,
    replicates: int,
) -> np.ndarray:
    """Counts of objects connected to each of nested groups, per class, for
    any blockmodel.

    Draws the groups' agent-type counts layer by layer
    (:func:`_prefix_agent_counts`).  Given group ``j``'s counts ``m``,
    object types are iid and edges independent, so each object connects to
    the group independently with probability ``pbar_j = sum_l v_l
    connect_l(m)``, and first connects to layer ``j`` with probability
    ``pbar_j - pbar_{j-1}``.  So the objects of class ``g`` are counted by
    their first layer in one ``Multinomial(d_g, .)`` with a last cell for
    "none", and cumulative sums over the layers give every group's
    connected count (one group's are its one layer's, copied out).  Each
    group's counts have the law of the full type + graph + indicator
    pipeline, no object type is drawn, and within a replicate the counts
    never decrease from one group to the next.  One
    group's two-cell multinomial draws the bits of the single binomial
    ``rng.binomial(class_sizes, pbar)``; on a one-type model ``pbar = 1 -
    (1-p)**size_q``.

    Returns:
        A fresh C-contiguous integer array of shape
        ``(replicates, len(group_sizes), len(class_sizes))``.
    """
    sizes = np.asarray(class_sizes, dtype=np.int64)
    n = int(replicates)
    connect = connect_given_counts(model, _prefix_agent_counts(model, group_sizes, rng, n))
    # v sums to 1 only within rounding, so pbar may exceed 1 by an ulp
    pbar = np.minimum(weighted_sum(connect, model.v), 1.0)
    # pow can round a larger group's pbar an ulp below a smaller one's
    np.maximum.accumulate(pbar, axis=1, out=pbar)
    J = pbar.shape[1]
    # the cells pbar_j - pbar_{j-1} and 1 - pbar_J: np.diff's bits, without
    # the concatenation its prepend and append make
    cells = np.empty((pbar.shape[0], J + 1))
    cells[:, :J] = pbar
    cells[:, J] = 1.0
    np.subtract(cells[:, 1:], cells[:, :-1], out=cells[:, 1:])
    first = rng.multinomial(sizes, cells[:, None, :], size=(n, sizes.size))
    counts = np.empty((n, J, sizes.size), dtype=np.int64)
    if J == 1:  # one layer's counts are its group's: no sum, which numpy runs row by row
        counts[:, 0] = first[..., 0]
    else:
        np.cumsum(first[..., :-1], axis=2, out=counts.transpose(0, 2, 1))
    return counts
