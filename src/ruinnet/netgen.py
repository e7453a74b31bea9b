"""Bipartite random networks from a stochastic blockmodel.

Agents and objects carry latent types; an edge between agent ``i`` and
object ``j`` appears independently with probability ``p[s(i), t(j)]``
given the types.  The one-type special case is a bipartite Bernoulli
graph.  Type labels are 0-based indices into the type-probability vectors.

:func:`sample_incidence` draws whole networks, and :func:`sample_graph_counts`
reads each group's connected counts off them: the full-graph reference.  The
estimator, the path oracle and the approximation draw only what they need of
a network (:func:`sample_prefix_counts`, :func:`sample_configurations`).
Both take the sizes of nested groups, such as a sweep's ``1..q``, and one
draw serves every group: the agents are drawn layer by layer and the objects
once.  A single group is the one-layer case.  Given integer per-class
weights, such as the estimator's lattice strides, both count samplers
return each group's weighted count in place of its per-class counts.

The count samplers draw in chunks under a memory cap, one after another from
the stream, and pass each chunk to an optional ``reduce``.  The cap decides
where a block splits, and so its draws: the estimator's caps live here, and
sampled mode keeps its own in ``approx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import prefix_sizes
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


def _in_chunks(fn, rng: np.random.Generator, n: int, cells_per_row: int, reduce=None):
    """``fn(rng, rows)`` over consecutive chunks of ``n`` rows, each passed
    through ``reduce`` when one is given, concatenated along the first axis;
    each chunk holds at most ``_CHUNK_CELLS`` cells.  A lone chunk comes
    back as it was returned, which may be a read-only view.

    Chunks draw one after another from ``rng``, so a draw that consumes
    the stream row by row is the same however it is split.
    """
    cap = max(1, _CHUNK_CELLS // max(1, int(cells_per_row)))

    def one(m: int):
        out = fn(rng, m)
        return out if reduce is None else reduce(out)

    if n <= cap:
        return one(n)
    return np.concatenate([one(min(cap, n - lo)) for lo in range(0, n, cap)])


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


def sample_graph_counts(
    model: BlockModel, params, group, group_sizes, rng, n: int, reduce=None, weights=None
):
    """Connected counts of the prefixes of ``group`` of ``group_sizes``, per
    class of :attr:`RiskParams.class_ratio`, through the full type + graph +
    indicator pipeline: the reference of :func:`sample_prefix_counts`, with
    its law and shape on other draws.  Every group's rows are read from one
    :func:`sample_incidence` draw, in chunks of ``q * d`` cells per replicate,
    each weighted by ``weights`` (``weighted_sum``) when given and then
    passed through ``reduce``, as there."""
    rows = [group.zero_based()[:k] for k in group_sizes]
    ratio = params.class_ratio
    cls = np.searchsorted(ratio, params.c / params.mu)  # each object's class
    G, J = ratio.size, len(rows)

    def chunk(rng: np.random.Generator, m: int) -> np.ndarray:
        edges = sample_incidence(model, params.q, params.d, rng, m)
        ind = np.stack([edges[:, r, :].any(axis=1) for r in rows], axis=1)  # (m, J, d)
        # (replicate, group, class) of each indicator
        cell = (np.arange(m * J)[:, None] * G + cls).reshape(ind.shape)
        counts = np.bincount(cell[ind], minlength=m * J * G).reshape(m, J, G)
        return counts if weights is None else weighted_sum(counts, weights)

    return _in_chunks(chunk, rng, int(n), params.q * params.d, reduce)


def connect_given_counts(model: BlockModel, agent_counts) -> np.ndarray:
    """Probability that an object of each type connects to a group whose
    agent-type counts are ``agent_counts``: ``1 - prod_k (1 - p_kl)^m_k``.

    ``agent_counts`` has shape ``(..., K)``; the result has shape ``(..., L)``.
    Many counts gather ``(1 - p_kl) ** c``, computed once for each ``c`` up to
    (at least) the largest, at each type's contiguous counts, into a view in
    the counts' memory order reversed; a few are raised to their own powers.
    The product runs over the types left to right; both give the bits of the
    inline power and of a reduce.

    Raises:
        ValueError: If a count is negative or not an integer.
    """
    m = np.asarray(agent_counts)
    if m.dtype.kind not in "iu":
        raise ValueError(f"agent counts must be integers, got dtype {m.dtype}")
    top = np.bitwise_or.reduce(m, axis=None)  # negative if a count is, else >= every count
    if top < 0:
        raise ValueError("agent counts must be nonnegative")
    if m.size <= model.K * (top + 1):  # no more counts than table entries
        powers = (1.0 - model.p) ** m[..., :, None]
        none = powers[..., 0, :]
        for k in range(1, model.K):
            none = none * powers[..., k, :]
        return 1.0 - none
    m = np.asarray(m.T, order="C")  # each type's counts contiguous
    table = (1.0 - model.p)[:, :, None] ** np.arange(top + 1.0)  # (K, L, top + 1)
    none, out = np.take(table[0], m[0], axis=1), np.empty((model.L, *m.shape[1:]))
    for k in range(1, model.K):  # "clip" gathers into out with no copy: every count is in range
        none *= np.take(table[k], m[k], axis=1, out=out, mode="clip")
    return np.subtract(1.0, none, out=none).T


def _nest(layers: np.ndarray) -> np.ndarray:
    """Nested groups' counts from their layers', in place along the first
    axis: each layer ``j`` adds group ``j - 1``'s counts, one whole-array add
    per layer.  Integer sums, so the bits of any order; returns ``layers``."""
    for j in range(1, layers.shape[0]):
        layers[j] += layers[j - 1]
    return layers


def _prefix_agent_counts(
    model: BlockModel, group_sizes, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Agent-type counts of nested groups of increasing ``group_sizes``.

    The agents are drawn layer by layer: the ``group_sizes[j] -
    group_sizes[j-1]`` agents that group ``j`` adds get ``Multinomial(layer
    size, w)`` type counts, and a group's counts sum its layers'
    (:func:`_nest`, on whole replicate rows).  Returns ``(n, J, K)``, a view
    of a ``(K, J, n)`` array, or ``(1, J, 1)`` (nothing drawn) if ``K == 1``.
    With one group it draws the bits of ``rng.multinomial(size, w, size=n)``.
    """
    sizes = np.array(prefix_sizes(group_sizes, np.inf))  # no agent count bounds them here
    if model.K == 1:
        return sizes[None, :, None]
    layers = np.diff(sizes, prepend=0)
    # (K, J, n) in memory: each type's counts contiguous for connect_given_counts
    counts = np.asarray(rng.multinomial(layers, model.w, size=(n, sizes.size)).T, order="C")
    _nest(counts.swapaxes(0, 1))
    return counts.T


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
        ``G = len(class_sizes)``; both broadcast to ``replicates`` rows.  Drawn
        counts, and the probabilities of many rows, keep the replicate axis
        innermost in memory.
    """
    sizes = np.asarray(class_sizes, dtype=np.int64)
    n = int(replicates)
    connect = connect_given_counts(model, _prefix_agent_counts(model, group_sizes, rng, n))
    if model.L > 1:
        counts = rng.multinomial(sizes, model.v, size=(n, sizes.size))
        return connect, np.asarray(counts.T, order="C").T
    return connect, sizes[None, :, None]


def sample_prefix_counts(
    model: BlockModel,
    group_sizes,
    class_sizes: np.ndarray,
    rng: np.random.Generator,
    replicates: int,
    reduce=None,
    weights=None,
) -> np.ndarray:
    """Counts of objects connected to each of nested groups, per class, for
    any blockmodel, or with an integer array of per-class ``weights`` each
    group's weighted count ``sum_g weights_g * n_g``.

    Draws the groups' agent-type counts layer by layer
    (:func:`_prefix_agent_counts`).  Given group ``j``'s counts ``m``,
    object types are iid and edges independent, so each object connects to
    the group independently with probability ``pbar_j = sum_l v_l
    connect_l(m)``, and first connects to layer ``j`` with probability
    ``pbar_j - pbar_{j-1}``.  So the objects of class ``g`` are counted by
    their first layer in one ``Multinomial(d_g, .)`` with a last cell for
    "none", and group ``j``'s count is group ``j-1``'s plus layer ``j``'s
    (:func:`_nest`): per class, or with ``weights`` the layers' weighted first
    connections, one ``(replicates,)`` row at a time, so there is no per-class
    counts array.  Each group's counts have the law of the full type + graph
    + indicator pipeline, no object type is drawn, and within a replicate the
    counts never decrease from one group to the next.  One
    group's two-cell multinomial draws the bits of the single binomial
    ``rng.binomial(class_sizes, pbar)``; on a one-type model ``pbar = 1 -
    (1-p)**size_q``.

    The rows are drawn in chunks of ``len(group_sizes) * max(G, K * L)``
    cells per row (:func:`_in_chunks`), so the cap fixes where a block splits
    and so its draws.

    Returns:
        A fresh C-contiguous integer array of shape
        ``(replicates, len(group_sizes), len(class_sizes))``; with
        ``weights``, a fresh ``(replicates, len(group_sizes))`` integer array
        with the replicate axis innermost in memory; with ``reduce``, the
        chunks' ``reduce`` of either concatenated.
    """
    sizes = np.asarray(class_sizes, dtype=np.int64)
    cells = len(group_sizes) * max(sizes.size, model.K * model.L)
    chunk = partial(_prefix_counts, model, group_sizes, sizes, weights=weights)
    return _in_chunks(chunk, rng, int(replicates), cells, reduce)


def _prefix_counts(model, group_sizes, sizes, rng, n, weights=None) -> np.ndarray:
    """One chunk of :func:`sample_prefix_counts`, unsplit."""
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
    if weights is not None:
        # each layer's weighted first connections, then nested: every temporary is one row
        out = np.empty((J, n), dtype=np.int64)
        for j, row in enumerate(out):
            weighted_sum(first[..., j], weights, out=row)
        return _nest(out).T
    layers = first[..., :-1].transpose(2, 0, 1)  # (J, n, G): each add runs over n * G cells
    return np.ascontiguousarray(_nest(layers).transpose(1, 0, 2))
