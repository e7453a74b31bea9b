"""Direct simulation of compound-Poisson surplus paths.

Serves as a brute-force oracle for the ruin estimators: claims for each
object arrive as a Poisson process of intensity ``lam`` and are
exponentially sized, the group deficit is the weighted sum of object
losses minus premium inflow, and ruin is the deficit reaching the group's
total reserve.  The claim processes of the group's exposed objects are
simulated as their superposition: one Poisson process of rate
``lam * (number of exposed objects)`` whose claims each hit a uniformly
drawn exposed object.

One kernel, :func:`simulate_ruin_batch`, runs a batch of at most
:data:`PATH_BATCH` paths from one stream as ``(rows x _CLAIM_CHUNK)``
arrays, chunk by chunk, until every path has either crossed its reserve
or passed the horizon.  The nested oracle :func:`oracle_psi` draws its
networks in fixed blocks and runs each block's paths through the kernel
in batches, one stream per batch.

Between claim epochs the deficit strictly decreases whenever the group
carries any exposure, so checking ruin only at claim epochs is exact.
The finite horizon truncates late ruin events, making every frequency
reported here a lower bound on the infinite-horizon probability.
"""

from __future__ import annotations

import math

import numpy as np

from .model import AgentSubset, RiskParams, proportional_r, proportional_weights
from .netgen import BlockModel, sample_incidence
from .ruin import EstimateWithCI
from .streams import ORACLE_NET_DOMAIN, ORACLE_PATH_DOMAIN, map_blocks, pairwise_sum, stream

#: Claims are drawn in fixed chunks so that extending the horizon replays
#: the same claim prefix (keeps ruin monotone in the horizon per seed).
_CLAIM_CHUNK = 256

#: Most paths one kernel call runs.  It bounds the kernel's arrays (a few
#: ``PATH_BATCH x _CLAIM_CHUNK`` floats), and it fixes which stream each
#: oracle path draws from, so it is not configurable at runtime.
PATH_BATCH = 256

#: Networks drawn from one stream by :func:`oracle_psi`; one block is one task.
NETWORK_BLOCK = 256


def simulate_ruin_batch(
    params: RiskParams,
    exposure: np.ndarray,
    total_reserve: float,
    horizon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ruin flags of a batch of independent surplus paths drawn from ``rng``.

    Row ``i`` of ``exposure`` (shape ``(rows, d)``, ``rows <= PATH_BATCH``)
    is the group's share of each object's losses on path ``i``.  Its
    claims form one Poisson process of rate ``lam * n_i`` (``n_i`` exposed
    objects); each claim hits a uniformly drawn exposed object ``j`` and
    adds ``exposure_ij * Exp(mean mu_j)`` to the deficit.  Each chunk draws,
    for every row still in the batch, ``_CLAIM_CHUNK`` gap uniforms, then
    object marks (only for rows with more than one exposed object), then
    size uniforms.

    A row leaves the batch at its first crossing of ``total_reserve``, and
    its flag is whether that crossing's epoch is within the horizon; it
    never leaves for passing the horizon.  The batch stops once no row
    still in it is before the horizon, so the claims drawn do not depend on
    the horizon and a longer horizon replays them: flags are monotone in
    the horizon.  A row without exposure draws nothing and never ruins; a
    zero ``total_reserve`` is ruin at time zero.
    """
    exposure = np.asarray(exposure, dtype=np.float64)
    if exposure.ndim != 2 or exposure.shape[0] > PATH_BATCH:
        raise ValueError(f"exposure must have shape (rows, d) with at most {PATH_BATCH} rows")
    if total_reserve <= 0.0:
        return np.ones(exposure.shape[0], dtype=bool)  # deficit starts at zero
    flags = np.zeros(exposure.shape[0], dtype=bool)
    active = exposure > 0
    count = active.sum(axis=1)
    live = np.flatnonzero(count)
    if live.size == 0:
        return flags
    # each live row's exposed objects first, in index order
    order = np.argsort(~active[live], axis=1, kind="stable")[:, : count.max()]
    weight = np.take_along_axis(exposure[live], order, axis=1)
    mean = params.mu[order]
    drift = (weight * params.c[order]).sum(axis=1)
    count = count[live]
    rate = params.lam * count
    t = np.zeros(live.size)
    cum_jumps = np.zeros(live.size)
    while True:
        shape = (live.size, _CLAIM_CHUNK)
        gaps = -np.log1p(-rng.random(shape)) / rate[:, None]
        marks = np.zeros(shape, dtype=np.int64)
        several = count > 1
        # integers(1) would draw no bits either; skipping it only saves time
        if several.any():
            high = count[several]
            # a scalar bound draws the same bits as the broadcast one, several times faster
            bound = high[0] if (high == high[0]).all() else high[:, None]
            marks[several] = rng.integers(bound, size=(high.size, shape[1]))
        pick = marks + np.arange(0, weight.size, weight.shape[1])[:, None]  # flat index
        sizes = -mean.take(pick) * np.log1p(-rng.random(shape))
        jumps = weight.take(pick) * sizes
        epochs = t[:, None] + np.cumsum(gaps, axis=1)
        deficit = cum_jumps[:, None] + np.cumsum(jumps, axis=1) - drift[:, None] * epochs
        hit = deficit >= total_reserve
        crossed = hit.any(axis=1)
        first = hit[crossed].argmax(axis=1)
        flags[live[crossed]] = epochs[crossed, first] <= horizon
        stay = ~crossed
        if not (epochs[stay, -1] <= horizon).any():
            return flags
        cum_jumps = cum_jumps[stay] + jumps[stay].sum(axis=1)
        t = epochs[stay, -1]
        live, count, rate = live[stay], count[stay], rate[stay]
        weight, mean, drift = weight[stay], mean[stay], drift[stay]


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

    Networks come in blocks of :data:`NETWORK_BLOCK`; block ``k`` draws its
    incidence matrices from the stream ``(base_seed, ORACLE_NET_DOMAIN, k)``
    and one :func:`streams.map_blocks` task runs it.  The block's paths,
    network by network, are cut into batches of :data:`PATH_BATCH`, and
    batch ``b`` runs on the stream
    ``(base_seed, ORACLE_PATH_DOMAIN, k, b)``.  The result is bit-identical
    for any ``threads``, and a longer horizon replays every path's claims.
    """
    group.validate_for(params.q)
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and positive")
    if outer_networks < 2:
        raise ValueError("need at least two outer network samples")
    if inner_paths < 1:
        raise ValueError("need at least one inner path")
    rows = group.zero_based()
    total_reserve = float(params.u[rows].sum())
    if not total_reserve > 0:
        raise ValueError("total reserve must be positive")
    r_q = proportional_r(params, group)

    def block(k: int, lo: int, hi: int) -> np.ndarray:
        """Ruined-path counts of networks ``lo .. hi-1``."""
        rng = stream(base_seed, ORACLE_NET_DOMAIN, k)
        incidence = sample_incidence(model, params.q, params.d, rng, hi - lo)
        exposure = proportional_weights(incidence, group, params, r_q)[:, rows, :].sum(axis=1)
        ruined = np.zeros(hi - lo, dtype=np.int64)
        paths = (hi - lo) * inner_paths
        for b, start in enumerate(range(0, paths, PATH_BATCH)):
            network = np.arange(start, min(start + PATH_BATCH, paths)) // inner_paths
            rng = stream(base_seed, ORACLE_PATH_DOMAIN, k, b)
            flags = simulate_ruin_batch(params, exposure[network], total_reserve, horizon, rng)
            ruined += np.bincount(network[flags], minlength=hi - lo)
        return ruined

    blocks = map_blocks(outer_networks, block, threads, NETWORK_BLOCK)
    fractions = np.concatenate(blocks) / inner_paths
    mean = pairwise_sum(fractions) / outer_networks
    var = float(((fractions - mean) ** 2).sum()) / (outer_networks - 1)
    return EstimateWithCI(
        mean=mean,
        stderr=math.sqrt(var / outer_networks),
        replicates=int(outer_networks),
    )
