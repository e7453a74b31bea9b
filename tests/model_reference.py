"""Reference per-object safety loadings, proportional weights, the
classical ruin formula, and the parameter checks object by object.

The package keys objects by their premium-to-claim ratio ``c_j/mu_j``
(:attr:`ruinnet.model.RiskParams.class_ratio`); these per-object loadings
are the reference that the per-object mixture statistics in
``approx_reference`` are written in.  :func:`proportional_weights` builds
the full weighted adjacency matrix whose group rows ``pathsim_reference``
sums; that sum is ``r_q / mu_j`` on every connected object, which is why
the oracle can simulate every claim as ``r_q * Exp(1)``.
:func:`classical_ruin` is the closed-form oracle of the degenerate
one-agent, one-object network.  :func:`checked_classes` runs the checks of
:class:`ruinnet.model.RiskParams` on every object, in the constructor's
order, and partitions the objects with ``np.unique``; the constructor reads
only the heads of the runs of equal ``(c_j, mu_j)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from ruinnet.model import NORMAL_MIN, AgentSubset, RiskParams

#: Floating-point slack allowed on the column-sum condition of the
#: weighted adjacency matrix.
COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class LoadingVector:
    """Per-object safety loadings: ``rho_j = lam*mu_j/c_j`` and ``xi_j = 1/rho_j``."""

    rho: np.ndarray
    xi: np.ndarray


def compute_loadings(params: RiskParams) -> LoadingVector:
    """Elementwise safety loadings ``rho_j = lam*mu_j/c_j`` and ``xi_j = c_j/(lam*mu_j)``."""
    rho = params.lam * params.mu / params.c
    xi = params.c / (params.lam * params.mu)
    return LoadingVector(rho=rho, xi=xi)


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


def classical_ruin(lam: float, mu_j: float, c_j: float, u: float) -> float:
    """Ruin probability of a single agent fully insuring a single object
    with exponential claims: ``rho * exp(-(c - lam*mu) * u / (c * mu))``,
    or 1 when ``rho = lam*mu/c >= 1``."""
    if not (lam > 0 and mu_j > 0 and c_j > 0):
        raise ValueError("lam, mu_j and c_j must be positive")
    if u < 0:
        raise ValueError("reserve u must be nonnegative")
    rho = lam * mu_j / c_j
    if rho >= 1.0:
        return 1.0
    return rho * math.exp(-(c_j - lam * mu_j) * u / (c_j * mu_j))


def _vector(x, name: str, length=None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if length is not None and arr.size != length:
        raise ValueError(f"{name} must have length {length}, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def checked_classes(lam, c, mu, u) -> tuple[np.ndarray, np.ndarray]:
    """``(class_ratio, class_sizes)`` of ``RiskParams(lam, c, mu, u)``, or the
    ``ValueError`` it raises, with every elementwise check run on every
    object, in the constructor's order."""
    lam = float(lam)
    c = _vector(c, "c")
    mu = _vector(mu, "mu", c.size)
    u = _vector(u, "u")
    if not 0 < lam < math.inf:
        raise ValueError("claim intensity lam must be positive and finite")
    if not (c > 0).all():
        raise ValueError("every premium rate must be positive")
    if not (mu > 0).all():
        raise ValueError("every mean claim size must be positive")
    if not (u >= 0).all():
        raise ValueError("reserves must be nonnegative")
    if u.size < 1 or c.size < 1:
        raise ValueError("need at least one agent and one object")
    with np.errstate(over="ignore", under="ignore"):
        ratio, sizes = np.unique(c / mu, return_counts=True)
    low, high = float(ratio[0]), float(ratio[-1])
    if not high < math.inf:
        raise ValueError("every premium-to-claim ratio c/mu must be finite")
    if not low >= NORMAL_MIN:
        raise ValueError(
            f"every premium-to-claim ratio c/mu must be at least {NORMAL_MIN:.6g}, "
            f"got {low:.6g}"
        )
    if not max(lam / low, lam * c.size, c.size * high) < math.inf:
        raise ValueError(
            "lam/min(c/mu), lam*d and d*max(c/mu), which bound the PK ratio, "
            "its numerator and its denominator, must be finite"
        )
    mu_min = float(mu.min())
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
    return ratio, sizes.astype(np.int64)
