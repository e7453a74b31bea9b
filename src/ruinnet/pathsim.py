"""Direct simulation of compound-Poisson surplus paths.

Serves as a brute-force oracle for the ruin estimators: claims for each
object arrive as a Poisson process of intensity ``lam`` and are
exponentially sized, the group deficit is the weighted sum of object
losses minus premium inflow, and ruin is the deficit reaching the group's
total reserve.  The claim processes of the group's exposed objects are
simulated as their superposition: one Poisson process of rate
``lam * (number of exposed objects)`` whose claims each hit a uniformly
drawn exposed object.  One path is one stream and one loop that stops at
the first ruin.

Between claim epochs the deficit strictly decreases whenever the group
carries any exposure, so checking ruin only at claim epochs is exact.
The finite horizon truncates late ruin events, making every frequency
reported here a lower bound on the infinite-horizon probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AgentSubset, RiskParams, WeightMatrix, build_weights
from .netgen import BipartiteGraph, BlockModel, sample_graph, sample_types
from .ruin import EstimateWithCI
from .streams import (
    ORACLE_NET_DOMAIN,
    ORACLE_PATH_DOMAIN,
    PATH_DOMAIN,
    StreamKey,
    map_indexed,
    pairwise_sum,
    stream,
)

#: Claims are drawn in fixed chunks so that extending the horizon replays
#: the same claim prefix (keeps ruin monotone in the horizon per seed).
_CLAIM_CHUNK = 256


@dataclass(frozen=True)
class PathConfig:
    """A fixed network instance to simulate paths on."""

    params: RiskParams
    graph: BipartiteGraph
    group: AgentSubset
    weights: WeightMatrix
    horizon: float = 1000.0
    replicates: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and positive")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.graph.q != self.params.q or self.graph.d != self.params.d:
            raise ValueError("graph dimensions do not match parameters")
        self.group.validate_for(self.params.q)


def simulate_ruin_path(cfg: PathConfig, key: StreamKey) -> bool:
    """Simulate one surplus path; True iff the group deficit ever reaches
    the total reserve within the horizon.

    The claims of the exposed objects form one Poisson process of rate
    ``lam * (number of exposed objects)``; each claim hits a uniformly
    drawn exposed object ``j`` and adds ``exposure_j * Exp(mean mu_j)`` to
    the deficit.  The path draws from ``key.child(j0)`` with ``j0`` its
    first exposed object, chunk by chunk: gap uniforms, object marks (only
    when more than one object is exposed), then size uniforms.  With a
    single exposed object this is that object's own claim process.
    """
    rows = cfg.group.zero_based()
    exposure = cfg.weights.A[rows].sum(axis=0)
    total_reserve = float(cfg.params.u[rows].sum())
    if total_reserve <= 0.0:
        return True  # deficit starts at zero: ruin at time zero
    active = np.flatnonzero(exposure > 0)
    if active.size == 0:
        return False
    weight = exposure[active]
    mean = cfg.params.mu[active]
    drift = float((weight * cfg.params.c[active]).sum())
    rate = cfg.params.lam * active.size
    rng = key.child(int(active[0])).generator()
    t = 0.0
    cum_jumps = 0.0
    while True:
        gaps = -np.log1p(-rng.random(_CLAIM_CHUNK)) / rate
        # integers(1) would draw no bits either; skipping it only saves time
        marks = rng.integers(active.size, size=_CLAIM_CHUNK) if active.size > 1 else 0
        jumps = weight[marks] * (-mean[marks] * np.log1p(-rng.random(_CLAIM_CHUNK)))
        epochs = t + np.cumsum(gaps)
        keep = int((epochs <= cfg.horizon).sum())
        deficit = cum_jumps + np.cumsum(jumps[:keep]) - drift * epochs[:keep]
        if (deficit >= total_reserve).any():
            return True
        if keep < _CLAIM_CHUNK:
            return False
        cum_jumps += float(jumps.sum())
        t = float(epochs[-1])


def ruin_frequency(cfg: PathConfig, base_seed: int, threads: int = 1) -> EstimateWithCI:
    """Fraction of ruined paths over ``cfg.replicates`` independent paths."""
    root = StreamKey(int(base_seed), (PATH_DOMAIN,))

    def one(r: int) -> float:
        return float(simulate_ruin_path(cfg, root.child(r)))

    flags = map_indexed(cfg.replicates, one, threads)
    n = cfg.replicates
    phat = pairwise_sum(flags) / n
    return EstimateWithCI(
        mean=phat, stderr=math.sqrt(max(0.0, phat * (1.0 - phat) / n)), replicates=n
    )


def oracle_psi(
    params: RiskParams,
    model: BlockModel,
    group: AgentSubset,
    horizon: float,
    outer_networks: int,
    inner_paths: int,
    base_seed: int,
    threads: int = 1,
) -> EstimateWithCI:
    """Nested Monte Carlo estimate of the group ruin probability.

    Samples ``outer_networks`` independent networks and, per network, the
    ruin frequency over ``inner_paths`` surplus paths.  The mean over
    networks estimates the ruin probability from below (horizon
    truncation); the standard error comes from the spread of the
    per-network fractions.
    """
    group.validate_for(params.q)
    if outer_networks < 2:
        raise ValueError("need at least two outer network samples")
    if inner_paths < 1:
        raise ValueError("need at least one inner path")
    total_reserve = float(params.u[group.zero_based()].sum())
    if not total_reserve > 0:
        raise ValueError("total reserve must be positive")

    def one_network(n: int) -> float:
        rng = stream(base_seed, ORACLE_NET_DOMAIN, n)
        types = sample_types(model, params.q, params.d, rng)
        graph = sample_graph(model, types, rng)
        weights = build_weights(graph, group, params)
        cfg = PathConfig(
            params=params,
            graph=graph,
            group=group,
            weights=weights,
            horizon=horizon,
            replicates=inner_paths,
        )
        root = StreamKey(int(base_seed), (ORACLE_PATH_DOMAIN, n))
        ruined = [float(simulate_ruin_path(cfg, root.child(r))) for r in range(inner_paths)]
        return pairwise_sum(ruined) / inner_paths

    fractions = np.asarray(map_indexed(outer_networks, one_network, threads))
    mean = pairwise_sum(fractions) / outer_networks
    var = float(((fractions - mean) ** 2).sum()) / (outer_networks - 1)
    return EstimateWithCI(
        mean=mean,
        stderr=math.sqrt(var / outer_networks),
        replicates=int(outer_networks),
    )
