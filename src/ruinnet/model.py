"""Risk-model parameters, the premium-class partition of the objects, and
proportional loss-sharing weights.

Each object (insured risk) carries a premium rate ``c_j`` and a mean claim
size ``mu_j``; claims arrive at a common Poisson intensity ``lam``.  A group
of agents that insures an object splits the loss equally, scaled so that
every column of the weighted adjacency matrix sums to at most one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Floating-point slack allowed on the column-sum condition of the
#: weighted adjacency matrix.
COLUMN_SUM_TOL = 1e-12

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
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _premium_classes(c: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(c / mu, return_counts=True)``, bit for bit, with ``int64``
    sizes, dividing once per run of equal ``(c_j, mu_j)``.

    A run has one ratio, so only the run heads are divided and sorted, and a
    class's size is the total length of its runs.  On a blocked premium
    vector, such as the two-value scheme, that is a few boolean passes and
    divisions instead of a sort of ``d`` ratios.
    """
    head = np.empty(c.size, dtype=bool)
    head[0] = True
    np.not_equal(c[1:], c[:-1], out=head[1:])
    head[1:] |= mu[1:] != mu[:-1]
    starts = np.flatnonzero(head)
    values = c[starts]
    with np.errstate(over="ignore", under="ignore"):
        values /= mu[starts]
    order = values.argsort()
    values, lengths = values[order], np.diff(starts, append=c.size)[order]
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    firsts = np.flatnonzero(first)
    return values[firsts], np.add.reduceat(lengths, firsts)


@dataclass(frozen=True)
class RiskParams:
    """Scalar and vector parameters of the networked risk model.

    Attributes:
        lam: Claim arrival intensity, shared by all objects (> 0).
        c: Premium rate per object, length ``d`` (all > 0).
        mu: Mean claim size per object, length ``d`` (all > 0).
        u: Initial reserve per agent, length ``q`` (all >= 0).
        class_ratio: The distinct ``c_j/mu_j`` in ascending order, one per
            premium class; ``np.searchsorted(class_ratio, c/mu)`` gives each
            object's class.
        class_sizes: The number of objects in each class (``int64``).

    An object enters the PK ratio (``ruin``) and its loading
    ``xi_j = (c_j/mu_j)/lam`` (``approx``) only through ``c_j/mu_j``.  The
    constructor builds the partition from the runs of equal ``(c_j, mu_j)``,
    dividing once per run, so a blocked premium vector costs no array of
    ``d`` ratios.  It rejects parameters with which the estimator's
    arithmetic would leave the float range: a ``c/mu`` or ``mu`` below the
    smallest normal float, a ``c/mu`` that overflows, and an overflowing
    ``lam/min(c/mu)``, ``lam*d``, ``d*max(c/mu)`` or ``sum(u)*q/min(mu)``.
    """

    lam: float
    c: np.ndarray
    mu: np.ndarray
    u: np.ndarray
    class_ratio: np.ndarray = field(init=False, repr=False, compare=False)
    class_sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "c", _as_vector(self.c, "c"))
        object.__setattr__(self, "mu", _as_vector(self.mu, "mu", self.c.size))
        object.__setattr__(self, "u", _as_vector(self.u, "u"))
        if not 0 < self.lam < math.inf:
            raise ValueError("claim intensity lam must be positive and finite")
        if not (self.c > 0).all():
            raise ValueError("every premium rate must be positive")
        if not (self.mu > 0).all():
            raise ValueError("every mean claim size must be positive")
        if not (self.u >= 0).all():
            raise ValueError("reserves must be nonnegative")
        if self.u.size < 1 or self.c.size < 1:
            raise ValueError("need at least one agent and one object")
        ratio, sizes = _premium_classes(self.c, self.mu)
        low, high = float(ratio[0]), float(ratio[-1])
        if not high < math.inf:
            raise ValueError("every premium-to-claim ratio c/mu must be finite")
        if not low >= NORMAL_MIN:
            raise ValueError(
                f"every premium-to-claim ratio c/mu must be at least {NORMAL_MIN:.6g}, "
                f"got {low:.6g}"
            )
        # lam*n / (n ratios summed) for n <= d connected objects: none of the three may overflow
        if not max(self.lam / low, self.lam * self.d, self.d * high) < math.inf:
            raise ValueError(
                "lam/min(c/mu), lam*d and d*max(c/mu), which bound the PK ratio, "
                "its numerator and its denominator, must be finite"
            )
        # the ruin summand's scale r_q = min(mu)/(q - |group| + 1), and its decay reserve/r_q
        mu_min = float(self.mu.min())
        if not mu_min >= NORMAL_MIN:
            raise ValueError(
                f"every mean claim size must be at least {NORMAL_MIN:.6g}, got {mu_min:.6g}"
            )
        with np.errstate(over="ignore"):
            reserve = float(self.u.sum())
        if not reserve * self.q / mu_min < math.inf:
            raise ValueError(
                "sum(u) * q / min(mu), which bounds the ruin summand's decay, must be finite"
            )
        object.__setattr__(self, "class_ratio", ratio)
        object.__setattr__(self, "class_sizes", sizes)

    @property
    def q(self) -> int:
        """Number of agents."""
        return self.u.size

    @property
    def d(self) -> int:
        """Number of objects."""
        return self.c.size


@dataclass(frozen=True)
class AgentSubset:
    """Nonempty group of agents, stored as sorted distinct 1-based indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("agent subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise ValueError("agent subset contains duplicate indices")
        if min(idx) < 1:
            raise ValueError("agent indices are 1-based and must be >= 1")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    @classmethod
    def prefix(cls, k: int) -> "AgentSubset":
        """The subset {1, ..., k}."""
        return cls(tuple(range(1, int(k) + 1)))

    @property
    def size(self) -> int:
        return len(self.indices)

    def zero_based(self) -> np.ndarray:
        """Member indices as a 0-based integer array (for numpy indexing)."""
        return np.asarray(self.indices, dtype=np.int64) - 1

    def validate_for(self, q: int) -> None:
        if self.indices[-1] > q:
            raise ValueError(f"agent index {self.indices[-1]} exceeds agent count {q}")


def proportional_r(params: RiskParams, group: AgentSubset) -> float:
    """Group scaling constant: smallest mean claim size over all objects,
    divided by ``q - |group| + 1``.

    This choice keeps every column sum of the proportional weight matrix
    inside ``[0, 1]`` for every possible graph realisation.
    """
    group.validate_for(params.q)
    return float(params.mu.min()) / (params.q - group.size + 1)


def proportional_weights(
    incidence: np.ndarray, group: AgentSubset, params: RiskParams, r_q: float
) -> np.ndarray:
    """Proportional loss-sharing weights of one incidence matrix or a stack of them.

    ``incidence`` has shape ``(..., q, d)``; every agent connected to object
    ``j`` carries the share ``r_q / (n_j * mu_j)``, where ``n_j`` counts the
    group members connected to ``j`` in the same matrix, and an object with
    no group connection gets an all-zero column (0/0 := 0).  The result has
    the shape of ``incidence``.

    Raises:
        ValueError: If a column sum exceeds ``1 + COLUMN_SUM_TOL``, which
            signals an invalid ``r_q``.
    """
    inc = np.asarray(incidence, dtype=bool)
    group_degree = inc[..., group.zero_based(), :].sum(axis=-2)
    connected = group_degree > 0
    share = np.zeros(group_degree.shape)
    share[connected] = r_q / (group_degree * params.mu)[connected]
    A = inc.astype(np.float64) * share[..., None, :]
    col = A.sum(axis=-2)
    if (col > 1.0 + COLUMN_SUM_TOL).any():
        worst = float(col.max())
        raise ValueError(
            f"column sum {worst:.6g} exceeds 1: scaling constant r_q={r_q:.6g} is too large"
        )
    return A
