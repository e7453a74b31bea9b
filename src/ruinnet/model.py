"""Risk-model parameters, the premium-class partition of the objects, and
the proportional scaling constant ``r_q``.

Each object (insured risk) carries a premium rate ``c_j`` and a mean claim
size ``mu_j``; claims arrive at a common Poisson intensity ``lam``.  A group
of agents that insures an object splits the loss equally, scaled so that
every column of the weighted adjacency matrix sums to at most one.

:class:`RiskParams` holds the objects as runs of equal ``(c_j, mu_j)``,
scanned once from ``c`` and ``mu`` or given (:meth:`RiskParams.from_runs`).
It checks the run heads, partitions the objects into premium classes on
them alone and keeps ``min(mu)`` for ``r_q``: a blocked premium vector, such
as the two-value scheme, costs one pass over its objects, or none as runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: The smallest positive normal float.  Below it, a ratio ``c/mu`` lets
#: the PK ratio overflow, and a mean claim size lets the ruin summand's
#: scale ``r_q`` underflow.
NORMAL_MIN = sys.float_info.min


def _as_vector(x, name: str, length: Optional[int] = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if length is not None and arr.size != length:
        raise ValueError(f"{name} must have length {length}, got {arr.size}")
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")


def _vectors(c, mu) -> tuple[np.ndarray, np.ndarray]:
    """``c`` and ``mu`` as float vectors of one length."""
    c = _as_vector(c, "c")
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    if mu.shape != c.shape:  # no runs to scan; c's finiteness is checked first
        _require_finite(c, "c")
        _as_vector(mu, "mu", c.size)  # raises: mu is not a vector of c's length
    return c, mu


def _run_bounds(c: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Where each run of equal ``(c_j, mu_j)`` starts, then ``d``: run ``k``
    holds the objects ``bounds[k]:bounds[k+1]``.

    An elementwise check holds on a run exactly when it holds on the run's
    head, and a NaN differs from everything, itself included, so it heads
    its own run.  On a blocked premium vector, such as the two-value scheme,
    the runs are few and every per-object check costs nothing.
    """
    head = np.empty(c.size + 1, dtype=bool)
    head[0] = head[-1] = True
    np.not_equal(c[1:], c[:-1], out=head[1:-1])
    head[1:-1] |= mu[1:] != mu[:-1]
    return np.flatnonzero(head)


def _premium_classes(
    c_head: np.ndarray, mu_head: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(c / mu, return_counts=True)``, bit for bit, with ``int64``
    sizes, for objects given as runs of equal ``(c_j, mu_j)``: each run's
    ``c_head``, ``mu_head`` and length.

    A run has one ratio, so only the run heads are divided and sorted, and a
    class's size is the total length of its runs.
    """
    with np.errstate(over="ignore", under="ignore"):
        values = c_head / mu_head
    order = values.argsort()
    values, lengths = values[order], lengths[order]
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    firsts = np.flatnonzero(first)
    return values[firsts], np.add.reduceat(lengths, firsts)


@dataclass(frozen=True, init=False)
class RiskParams:
    """Parameters of the networked risk model, its objects held as runs.

    Attributes:
        lam: Claim arrival intensity, shared by all objects (> 0).
        u: Initial reserve per agent, length ``q`` (all >= 0).
        class_ratio: The distinct ``c_j/mu_j`` in ascending order, one per
            premium class; ``np.searchsorted(class_ratio, c/mu)`` gives each
            object's class.
        class_sizes: The number of objects in each class (``int64``).
        mu_min: The smallest mean claim size, which scales ``r_q``.
        c_head, mu_head, lengths: The runs of equal ``(c_j, mu_j)``, in
            object order; ``c`` and ``mu`` (length ``d``, all > 0) are
            expanded from them when read.

    An object enters the PK ratio (``ruin``) and its loading
    ``xi_j = (c_j/mu_j)/lam`` (``approx``) only through ``c_j/mu_j``.
    ``RiskParams(lam, c, mu, u)`` scans ``c`` and ``mu`` once for their
    runs; :meth:`from_runs` takes them as given.  Both check the run heads
    and build the partition from them, one division per run.  They reject
    parameters with which the estimator's arithmetic would leave the float
    range: a ``c/mu`` or ``mu`` below the smallest normal float, a ``c/mu``
    that overflows, and an overflowing ``lam/min(c/mu)``, ``lam*d``,
    ``d*max(c/mu)`` or ``sum(u)*q/min(mu)``.
    """

    lam: float
    u: np.ndarray
    c_head: np.ndarray
    mu_head: np.ndarray
    lengths: np.ndarray
    class_ratio: np.ndarray = field(repr=False, compare=False)
    class_sizes: np.ndarray = field(repr=False, compare=False)
    mu_min: float = field(repr=False, compare=False)

    def __init__(self, lam, c, mu, u):
        c, mu = _vectors(c, mu)
        bounds = _run_bounds(c, mu)
        self._set_runs(lam, c[bounds[:-1]], mu[bounds[:-1]], np.diff(bounds), u)

    @classmethod
    def from_runs(cls, lam, c, mu, lengths, u) -> "RiskParams":
        """The objects given in order as runs: ``lengths[k]`` objects of premium
        rate ``c[k]`` and mean claim size ``mu[k]``; neighbouring runs may be
        equal.  The heads pass the vector constructor's checks, in its order."""
        c, mu = _vectors(c, mu)
        lengths = np.asarray(lengths)
        if lengths.shape != c.shape or lengths.dtype.kind not in "iu" or not (lengths > 0).all():
            raise ValueError("run lengths must be positive integers, one per run")
        return cls.__new__(cls)._set_runs(lam, c, mu, lengths.astype(np.int64), u)

    def _set_runs(self, lam, c_head, mu_head, lengths, u) -> "RiskParams":
        lam = float(lam)
        _require_finite(c_head, "c")
        _require_finite(mu_head, "mu")
        u = _as_vector(u, "u")
        _require_finite(u, "u")
        if not 0 < lam < math.inf:
            raise ValueError("claim intensity lam must be positive and finite")
        if not (c_head > 0).all():
            raise ValueError("every premium rate must be positive")
        if not (mu_head > 0).all():
            raise ValueError("every mean claim size must be positive")
        if not (u >= 0).all():
            raise ValueError("reserves must be nonnegative")
        if u.size < 1 or c_head.size < 1:
            raise ValueError("need at least one agent and one object")
        ratio, sizes = _premium_classes(c_head, mu_head, lengths)
        low, high, d = float(ratio[0]), float(ratio[-1]), int(lengths.sum())
        if not high < math.inf:
            raise ValueError("every premium-to-claim ratio c/mu must be finite")
        if not low >= NORMAL_MIN:
            raise ValueError(
                f"every premium-to-claim ratio c/mu must be at least {NORMAL_MIN:.6g}, "
                f"got {low:.6g}"
            )
        # lam*n / (n ratios summed) for n <= d connected objects: none of the three may overflow
        if not max(lam / low, lam * d, d * high) < math.inf:
            raise ValueError(
                "lam/min(c/mu), lam*d and d*max(c/mu), which bound the PK ratio, "
                "its numerator and its denominator, must be finite"
            )
        # the ruin summand's scale r_q = min(mu)/(q - |group| + 1), and its decay reserve/r_q
        mu_min = float(mu_head.min())
        if not mu_min >= NORMAL_MIN:
            raise ValueError(
                f"every mean claim size must be at least {NORMAL_MIN:.6g}, got {mu_min:.6g}"
            )
        with np.errstate(over="ignore"):
            reserve = float(u.sum())
        if not reserve * u.size / mu_min < math.inf:
            raise ValueError(
                "sum(u) * q / min(mu), which bounds the ruin summand's decay, must be finite"
            )
        vars(self).update(lam=lam, u=u, c_head=c_head, mu_head=mu_head, lengths=lengths,
                          class_ratio=ratio, class_sizes=sizes, mu_min=mu_min)
        return self

    c = property(lambda self: np.repeat(self.c_head, self.lengths), doc="Premium rates.")
    mu = property(lambda self: np.repeat(self.mu_head, self.lengths), doc="Mean claim sizes.")

    @property
    def q(self) -> int:
        """Number of agents."""
        return self.u.size

    @property
    def d(self) -> int:
        """Number of objects."""
        return int(self.lengths.sum())


@dataclass(frozen=True, eq=False)
class AgentSubset:
    """Nonempty group of agents: a sorted, read-only array of distinct 1-based indices."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("agent subset must be nonempty")
        if not (idx[1:] > idx[:-1]).all():  # strictly increasing members are distinct
            idx = np.sort(idx)
            if (idx[1:] == idx[:-1]).any():
                raise ValueError("agent subset contains duplicate indices")
        elif idx is self.indices and (idx.flags.writeable or not idx.flags.owndata):
            idx = idx.copy()  # the caller's array, which it may still change
        if idx[0] < 1:
            raise ValueError("agent indices are 1-based and must be >= 1")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __eq__(self, other):
        return isinstance(other, AgentSubset) and np.array_equal(self.indices, other.indices)

    @classmethod
    def prefix(cls, k: int) -> "AgentSubset":
        """The subset {1, ..., k}; empty, and so rejected, for ``k < 1``.
        Its members are the one array it builds: no sort and no copy."""
        idx = np.arange(1, int(k) + 1)
        idx.flags.writeable = False
        return cls(idx)

    @property
    def size(self) -> int:
        return self.indices.size

    def zero_based(self) -> np.ndarray:
        """Member indices as a 0-based integer array (for numpy indexing)."""
        return self.indices - 1

    def validate_for(self, q: int) -> None:
        if self.indices[-1] > q:
            raise ValueError(f"agent index {self.indices[-1]} exceeds agent count {q}")


def prefix_sizes(sizes, limit: float) -> list[int]:
    """``sizes`` as a list, checked to be the sizes of a nested family, the
    prefixes of one group: nonempty, positive, strictly increasing integers of
    at most ``limit``: that group's size, ``q``, or ``np.inf`` in the samplers."""
    arr = np.asarray(sizes)
    out = arr.tolist() if arr.ndim == 1 and arr.dtype.kind == "i" else []
    if not out or out[0] < 1 or any(b <= a for a, b in zip(out, out[1:])):
        msg = "group sizes must be a nonempty list of positive, increasing integers"
        raise ValueError(f"{msg}, got {arr.tolist()}")
    if out[-1] > limit:
        raise ValueError(f"group size {out[-1]} exceeds agent count {limit}")
    return out


def proportional_r(params: RiskParams, size: int) -> float:
    """Scaling constant of a group of ``size`` agents: smallest mean claim
    size over all objects, divided by ``q - size + 1``.

    This choice keeps every column sum of the proportional weight matrix
    inside ``[0, 1]`` for every possible graph realisation.
    """
    if not 1 <= size <= params.q:
        raise ValueError(f"a group's size must lie in 1..{params.q}, got {size}")
    return params.mu_min / (params.q - size + 1)


def group_decay(params: RiskParams, group: AgentSubset, sizes) -> np.ndarray:
    """Each prefix's reserve in units of its scale: the first ``k`` members'
    total reserve over :func:`proportional_r` of ``k``, for each ``k`` of
    ``sizes``.  Members are sorted and distinct, so a group that ends at its
    size is ``1..size``, and its reserves are read through a view of ``u``."""
    prefix = group.indices[-1] == group.size
    reserves = params.u[: group.size] if prefix else params.u[group.zero_based()]
    return np.array([float(reserves[:k].sum()) / proportional_r(params, k) for k in sizes])
