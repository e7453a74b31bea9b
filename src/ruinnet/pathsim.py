"""Direct simulation of compound-Poisson surplus paths.

Serves as a brute-force oracle for the ruin estimators.  Each object's
claims arrive at intensity ``lam`` with mean size ``mu_j``.  Under
proportional weights the group carries ``r_q / mu_j`` of every object a
member insures, so each claim that reaches it costs ``r_q * Exp(1)``,
whichever object it hits.  In units of ``r_q`` the group's surplus on a
fixed network is thus a Cramér–Lundberg process: claims at rate
``lam * n`` over its ``n`` connected objects, each ``Exp(1)``, premium
inflow ``sum_j c_j / mu_j`` over the same objects, and reserve ``U / r_q``.

One kernel, :func:`simulate_ruin_batch`, runs a batch of at most
:data:`PATH_BATCH` paths from one stream in ``(rows x _CLAIM_CHUNK)``
chunks until every path has either crossed its reserve or passed the
horizon.  Each call allocates its own buffers once and every chunk is
drawn into them and computed in place, so the kernel makes no array per
chunk and calls on different threads share nothing.  The nested oracle
:func:`oracle_psi` draws networks in blocks as the group's connected counts per
premium class, takes their rates and premiums from :func:`ruin.rate_and_premium`,
and runs their paths through the kernel in batches, one stream per batch.

Between claim epochs the deficit strictly decreases whenever the group
has a connected object, so checking ruin only at claim epochs is exact.
The finite horizon truncates late ruin events, making every frequency
reported here a lower bound on the infinite-horizon probability.
"""

from __future__ import annotations

import math

import numpy as np

from .model import AgentSubset, RiskParams, proportional_r
from .netgen import BlockModel, sample_prefix_counts
from .ruin import EstimateWithCI, rate_and_premium
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
    rate: np.ndarray,
    premium: np.ndarray,
    reserve: float,
    horizon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ruin flags of a batch of independent surplus paths drawn from ``rng``.

    Path ``i`` (at most :data:`PATH_BATCH` of them) is a Cramér–Lundberg
    process in units of the claim scale: claims arrive at rate ``rate[i]``
    and are ``Exp(1)``, premium flows in at ``premium[i]``, and the path
    starts ``reserve`` above ruin.  Each chunk draws, for every row still
    in the batch, ``_CLAIM_CHUNK`` gap uniforms, then ``_CLAIM_CHUNK`` size
    uniforms.

    A row leaves the batch at its first crossing of ``reserve``, and its
    flag is whether that crossing's epoch is within the horizon; it never
    leaves for passing the horizon.  The batch stops once no row still in
    it is before the horizon, so the claims drawn do not depend on the
    horizon and a longer horizon replays them: flags are monotone in the
    horizon.  A row of rate 0 draws nothing and never ruins; a zero
    ``reserve`` is ruin at time zero.

    Rows past the horizon still compute their deficits: a crossing after
    the horizon takes the row out of the batch, and that shifts the draws
    of every later row, so skipping their arithmetic would change other
    rows' flags.

    The call allocates its buffers once, sized for its rows, and each chunk
    draws into their first rows and works in place.  Claim sizes stay
    negated: rounding to nearest is symmetric in sign, so their cumulative
    and row sums carry the bits of the positive sizes'.

    Raises:
        ValueError: ``rate`` and ``premium`` are not equal-length vectors of
            at most :data:`PATH_BATCH` finite, nonnegative values, ``horizon``
            is not finite and positive, or ``reserve`` is NaN.
    """
    rate = np.asarray(rate, dtype=np.float64)
    premium = np.asarray(premium, dtype=np.float64)
    if rate.ndim != 1 or rate.shape != premium.shape or rate.size > PATH_BATCH:
        raise ValueError(f"rate and premium must be equal-length vectors, at most {PATH_BATCH} rows")
    for name, x in (("rate", rate), ("premium", premium)):
        if not ((x >= 0) & (x < math.inf)).all():
            raise ValueError(f"{name} must be finite and nonnegative")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and positive")
    if math.isnan(reserve):
        raise ValueError("reserve must not be NaN")
    if reserve <= 0.0:
        return np.ones(rate.size, dtype=bool)  # deficit starts at zero
    flags = np.zeros(rate.size, dtype=bool)
    live = np.flatnonzero(rate > 0)
    neg_rate, premium = -rate[live], premium[live]
    t, cum_jumps = np.zeros((2, live.size))
    uniforms = np.empty((2, live.size, _CLAIM_CHUNK))
    inflow = np.empty((live.size, _CLAIM_CHUNK))
    hit_rows = np.empty((live.size, _CLAIM_CHUNK), dtype=bool)
    # An epoch past the float range (a tiny rate) is infinite, so past every horizon;
    # an inflow past it never ruins, and a zero premium's 0 * inf is NaN and fails >=.
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            n = live.size
            both = uniforms[:, :n]
            epochs, deficit = both
            rng.random(out=epochs)
            rng.random(out=deficit)
            np.negative(both, out=both)
            np.log1p(both, out=both)  # minus Exp(1) gaps and sizes
            np.divide(epochs, neg_rate[:, None], out=epochs)  # the gaps: -x/r is x/(-r) exactly
            next_jumps = cum_jumps - deficit.sum(axis=1)  # before the sizes are summed in place
            np.cumsum(both, axis=2, out=both)
            epochs += t[:, None]
            np.subtract(cum_jumps[:, None], deficit, out=deficit)  # cum_jumps plus the summed sizes
            np.multiply(premium[:, None], epochs, out=inflow[:n])
            deficit -= inflow[:n]
            # a comparison, not a row maximum: a NaN inflow fails it, and a
            # maximum would spread the NaN over the row
            hit = np.greater_equal(deficit, reserve, out=hit_rows[:n])
            crossed = hit.any(axis=1)
            first = hit[crossed].argmax(axis=1)
            flags[live[crossed]] = epochs[crossed, first] <= horizon
            stay = ~crossed
            live, neg_rate, premium = live[stay], neg_rate[stay], premium[stay]
            t, cum_jumps = epochs[stay, -1], next_jumps[stay]
            if not (t <= horizon).any():
                break
    return flags


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

    A network is the group's connected counts per premium class, drawn by
    the estimator's :func:`netgen.sample_prefix_counts`: agents are
    exchangeable, so only the group's size shapes it (its members' reserves
    set ``U``).  Networks come in blocks of :data:`NETWORK_BLOCK`; block
    ``k`` draws from the stream ``(base_seed, ORACLE_NET_DOMAIN, k)`` and one
    :func:`streams.map_blocks` task runs it.  The block's paths, network by
    network, are cut into batches of :data:`PATH_BATCH`, and batch ``b`` runs
    on the stream ``(base_seed, ORACLE_PATH_DOMAIN, k, b)``.  The result is
    bit-identical for any ``threads``, and a longer horizon replays every
    path's claims.
    """
    group.validate_for(params.q)
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and positive")
    if outer_networks < 2:
        raise ValueError("need at least two outer network samples")
    if inner_paths < 1:
        raise ValueError("need at least one inner path")
    total_reserve = float(params.u[group.zero_based()].sum())
    if not total_reserve > 0:
        raise ValueError("total reserve must be positive")
    reserve = total_reserve / proportional_r(params, group)

    def block(k: int, lo: int, hi: int) -> np.ndarray:
        """Ruined-path counts of networks ``lo .. hi-1``."""
        rng = stream(base_seed, ORACLE_NET_DOMAIN, k)
        counts = sample_prefix_counts(model, [group.size], params.class_sizes, rng, hi - lo)[:, 0]
        rate, premium = rate_and_premium(params.lam, counts, params.class_ratio)
        ruined = np.zeros(hi - lo, dtype=np.int64)
        paths = (hi - lo) * inner_paths
        for b, start in enumerate(range(0, paths, PATH_BATCH)):
            network = np.arange(start, min(start + PATH_BATCH, paths)) // inner_paths
            rng = stream(base_seed, ORACLE_PATH_DOMAIN, k, b)
            flags = simulate_ruin_batch(rate[network], premium[network], reserve, horizon, rng)
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
