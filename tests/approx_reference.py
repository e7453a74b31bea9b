"""Reference mixture statistics computed object by object from realised types.

The package summarises a configuration from its collapsed counts
(:func:`ruinnet.approx._stats_from_counts` on
:func:`ruinnet.netgen.connect_given_counts`); these functions take the
agent- and object-type labels themselves.
"""

from dataclasses import dataclass

import numpy as np

from model_reference import LoadingVector
from ruinnet.model import RiskParams
from ruinnet.netgen import BlockModel


@dataclass(frozen=True)
class MixtureStats:
    """Normal-component statistics of one type configuration.

    Attributes:
        mean: ``sum_j (xi_j - 1) p(c_j)``.
        variance: ``sum_j (xi_j - 1)^2 p(c_j)(1 - p(c_j))``.
        third_sum: ``sum_j E|Z_j(c)|^3`` (0 and ``degenerate=True`` when the
            variance vanishes).
        weight: Probability or sampling weight of the configuration.
        degenerate: The component is a point mass at ``mean``.
    """

    mean: float
    variance: float
    third_sum: float
    weight: float = 1.0
    degenerate: bool = False

    def __post_init__(self):
        if self.variance < 0 or self.third_sum < 0:
            raise ValueError("variance and third_sum must be nonnegative")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")


def p_of_config(model: BlockModel, agent_types, object_type: int) -> float:
    """Conditional group-connection probability given realised types:
    ``1 - prod_i (1 - p[s(i), t])``."""
    s = np.asarray(agent_types, dtype=np.int64)
    t = int(object_type)
    if s.min(initial=0) < 0 or s.max(initial=0) >= model.K or not 0 <= t < model.L:
        raise ValueError("type labels out of range")
    return float(1.0 - np.prod(1.0 - model.p[s, t]))


def mixture_stats(
    params: RiskParams,
    loadings: LoadingVector,
    model: BlockModel,
    agent_types,
    object_types,
) -> MixtureStats:
    """Normal-component statistics for one realised type configuration."""
    s = np.asarray(agent_types, dtype=np.int64)
    t = np.asarray(object_types, dtype=np.int64)
    if t.size != params.d:
        raise ValueError("object types must cover every object")
    pc = 1.0 - np.prod(1.0 - model.p[s[:, None], t[None, :]], axis=0)
    xm = loadings.xi - 1.0
    mean = float((xm * pc).sum())
    var = float((xm * xm * pc * (1.0 - pc)).sum())
    if var == 0.0:
        return MixtureStats(mean=mean, variance=0.0, third_sum=0.0, degenerate=True)
    raw3 = float((np.abs(xm) ** 3 * (pc * (1.0 - pc) ** 3 + (1.0 - pc) * pc**3)).sum())
    return MixtureStats(mean=mean, variance=var, third_sum=raw3 / var**1.5)
