"""Surplus paths of one fixed network.

:func:`group_exposure` reads the group's share of each object's losses
(the summed proportional weights) and its pooled reserve off one incidence
matrix; :func:`group_claims` reads the kernel's parameters off the same
matrix: in units of ``r_q``, the claim rate ``lam * n`` over the ``n``
connected objects, the premium rate ``sum_j c_j / mu_j`` over them and the
reserve ``U / r_q``.  :func:`ruin_path` runs one path as a one-row
:func:`ruinnet.pathsim.simulate_ruin_batch` on a stream key;
:func:`ruin_flags` and :func:`ruin_frequency` run many in full batches.

:func:`simulate_ruin_path_per_object` is the reference simulator for any
exposure vector, with one claim stream per exposed object: object ``j``
draws its own claim epochs and sizes ``Exp(mean mu_j)`` up to the horizon
from the stream ``key.path + (j,)``, each claim costs ``exposure_j`` times
its size, the claims of all objects are merged by epoch and the deficit is
checked at every claim.  A path with a single exposed object takes a
chunked loop that stops at the first ruin.  Under proportional exposures
every claim costs ``r_q * Exp(1)``, which is the kernel's process: with
one exposed object ``j``, and ``r_q`` and ``mu_j`` powers of two, the
kernel on the stream ``key.path + (j,)`` gives the reference's flag for
``key``; with several they agree in distribution.

:func:`simulate_ruin_batch_reference` is the kernel as it was before it
worked in place: fresh ``(rows x _CLAIM_CHUNK)`` arrays per chunk, claim
epochs as summed gaps over the rate, and the deficit as summed sizes less
premium times epoch.  The package's kernel sums each claim's net cost and
counts the horizon in gaps.  Its arithmetic differs from this one's by
rounding only, so a flag can differ only where a deficit lies within
rounding of the reserve, or a crossing's epoch within rounding of the
horizon; the tests pin that the two give equal flags on their streams.
Only overflow differs beyond rounding: once a tiny rate (below about
1e-306) takes this one's epochs past the float range, its row crosses no
more, while the kernel's may still cross, after the horizon, and leave the
batch, which moves the draws of the rows after it.

:func:`oracle_reference` is :func:`ruinnet.pathsim.oracle_psi` built from
these references: its networks drawn by
:func:`netgen_reference.one_group_counts`, their rates and premiums added
in Python floats, and their paths run by :func:`simulate_ruin_batch_reference`,
on the oracle's streams.
"""

import math

import numpy as np

from model_reference import proportional_weights
from netgen_reference import one_group_counts
from ruinnet.model import AgentSubset, RiskParams, proportional_r
from ruinnet.netgen import BlockModel
from ruinnet.pathsim import _CLAIM_CHUNK, NETWORK_BLOCK, PATH_BATCH, simulate_ruin_batch
from ruinnet.ruin import EstimateWithCI
from ruinnet.streams import (
    ORACLE_NET_DOMAIN,
    ORACLE_PATH_DOMAIN,
    StreamKey,
    pairwise_sum,
    stream,
)

#: Domain tag of this reference's path streams.  It must stay disjoint from
#: the package's domains 1-4 (``ruinnet.streams``), so that its paths never
#: share a stream with the estimator, the approximation or the oracle.
PATH_DOMAIN = 5


def group_exposure(params: RiskParams, incidence, group: AgentSubset) -> tuple[np.ndarray, float]:
    """The group's share of each object's losses under proportional weights
    on one ``q x d`` incidence matrix, and the group's pooled reserve."""
    rows = group.zero_based()
    r_q = proportional_r(params, group.size)
    A = proportional_weights(np.asarray(incidence, dtype=bool), group, params, r_q)
    return A[rows].sum(axis=0), float(params.u[rows].sum())


def group_claims(params: RiskParams, incidence, group: AgentSubset) -> tuple[float, float, float]:
    """``(rate, premium, reserve)`` of the group's surplus on one ``q x d``
    incidence matrix, in units of ``r_q``."""
    rows = group.zero_based()
    connected = np.asarray(incidence, dtype=bool)[rows].any(axis=0)
    premium = float((params.c / params.mu)[connected].sum())
    reserve = float(params.u[rows].sum()) / proportional_r(params, group.size)
    return params.lam * int(connected.sum()), premium, reserve


def ruin_path(rate, premium, reserve, horizon, key: StreamKey) -> bool:
    """One path on the stream ``key``."""
    return bool(simulate_ruin_batch([rate], [premium], reserve, horizon, key.generator())[0])


def ruin_flags(rate, premium, reserve, horizon, paths: int, base_seed: int) -> np.ndarray:
    """Ruin flags of ``paths`` independent paths, ``rate`` and ``premium`` one
    value or one per path: batch ``k`` of :data:`PATH_BATCH` paths runs on the
    stream ``(base_seed, PATH_DOMAIN, k)``."""
    rate, premium = np.broadcast_to(rate, paths), np.broadcast_to(premium, paths)
    flags = [
        simulate_ruin_batch(
            rate[lo : lo + PATH_BATCH],
            premium[lo : lo + PATH_BATCH],
            reserve,
            horizon,
            stream(base_seed, PATH_DOMAIN, k),
        )
        for k, lo in enumerate(range(0, paths, PATH_BATCH))
    ]
    return np.concatenate(flags)


def ruin_frequency(rate, premium, reserve, horizon, paths, base_seed) -> EstimateWithCI:
    """Fraction of ruined paths among :func:`ruin_flags`, with its binomial error."""
    flags = ruin_flags(rate, premium, reserve, horizon, paths, base_seed)
    phat = int(flags.sum()) / paths
    return EstimateWithCI(
        mean=phat, stderr=math.sqrt(phat * (1.0 - phat) / paths), replicates=paths
    )


def simulate_ruin_batch_reference(rate, premium, reserve, horizon, rng) -> np.ndarray:
    """Ruin flags of a batch of paths drawn from ``rng``, computed with fresh
    arrays per chunk: the reference for :func:`ruinnet.pathsim.simulate_ruin_batch`
    on valid input."""
    rate = np.asarray(rate, dtype=np.float64)
    premium = np.asarray(premium, dtype=np.float64)
    if reserve <= 0.0:
        return np.ones(rate.size, dtype=bool)
    flags = np.zeros(rate.size, dtype=bool)
    live = np.flatnonzero(rate > 0)
    rate, premium = rate[live], premium[live]
    t = np.zeros(live.size)
    cum_jumps = np.zeros(live.size)
    while live.size:
        shape = (live.size, _CLAIM_CHUNK)
        gaps = -np.log1p(-rng.random(shape)) / rate[:, None]
        jumps = -np.log1p(-rng.random(shape))
        epochs = t[:, None] + np.cumsum(gaps, axis=1)
        with np.errstate(over="ignore"):
            deficit = cum_jumps[:, None] + np.cumsum(jumps, axis=1) - premium[:, None] * epochs
        hit = deficit >= reserve
        crossed = hit.any(axis=1)
        first = hit[crossed].argmax(axis=1)
        flags[live[crossed]] = epochs[crossed, first] <= horizon
        stay = ~crossed
        if not (epochs[stay, -1] <= horizon).any():
            break
        cum_jumps = cum_jumps[stay] + jumps[stay].sum(axis=1)
        t = epochs[stay, -1]
        live, rate, premium = live[stay], rate[stay], premium[stay]
    return flags


def oracle_reference(
    params: RiskParams,
    model: BlockModel,
    size_q: int,
    horizon: float,
    outer_networks: int,
    inner_paths: int,
    base_seed: int,
) -> EstimateWithCI:
    """The nested oracle for the prefix group of ``size_q`` agents.  Network
    block ``k`` draws its counts on the stream ``(base_seed, ORACLE_NET_DOMAIN, k)``;
    each network's claim rate is ``lam * n`` and its premium ``sum_g n_g * ratio_g``,
    added class by class; the block's paths, network by network, run in
    batches of :data:`PATH_BATCH`, batch ``b`` on the stream
    ``(base_seed, ORACLE_PATH_DOMAIN, k, b)``."""
    reserve = float(params.u[:size_q].sum()) / proportional_r(params, size_q)
    ratio = params.class_ratio.tolist()
    fractions = []
    for k, lo in enumerate(range(0, outer_networks, NETWORK_BLOCK)):
        n = min(NETWORK_BLOCK, outer_networks - lo)
        rng = stream(base_seed, ORACLE_NET_DOMAIN, k)
        counts = one_group_counts(model, size_q, params.class_sizes, rng, n).tolist()
        rate = np.array([params.lam * sum(row) for row in counts])
        premium = np.array([sum(c * r for c, r in zip(row, ratio)) for row in counts])
        ruined = [0] * n
        paths = n * inner_paths
        for b, start in enumerate(range(0, paths, PATH_BATCH)):
            network = np.arange(start, min(start + PATH_BATCH, paths)) // inner_paths
            rng = stream(base_seed, ORACLE_PATH_DOMAIN, k, b)
            flags = simulate_ruin_batch_reference(
                rate[network], premium[network], reserve, horizon, rng
            )
            for i in network[flags].tolist():
                ruined[i] += 1
        fractions += [r / inner_paths for r in ruined]
    fractions = np.array(fractions)
    mean = pairwise_sum(fractions) / outer_networks
    var = float(((fractions - mean) ** 2).sum()) / (outer_networks - 1)
    return EstimateWithCI(
        mean=mean, stderr=math.sqrt(var / outer_networks), replicates=outer_networks
    )


def _claims_upto(rng, lam, mu_j, horizon):
    """Claim epochs and sizes on [0, horizon], inverse-CDF sampled in chunks."""
    times = []
    sizes = []
    t = 0.0
    while True:
        gaps = -np.log1p(-rng.random(_CLAIM_CHUNK)) / lam
        amounts = -mu_j * np.log1p(-rng.random(_CLAIM_CHUNK))
        epochs = t + np.cumsum(gaps)
        inside = epochs <= horizon
        if inside.all():
            times.append(epochs)
            sizes.append(amounts)
            t = float(epochs[-1])
        else:
            keep = int(inside.sum())
            times.append(epochs[:keep])
            sizes.append(amounts[:keep])
            break
    return np.concatenate(times), np.concatenate(sizes)


def simulate_ruin_path_per_object(params, exposure, total_reserve, horizon, key) -> bool:
    """True iff the group deficit reaches the total reserve within the horizon."""
    if total_reserve <= 0.0:
        return True
    active = np.flatnonzero(exposure > 0)
    if active.size == 0:
        return False
    drift = float((exposure[active] * params.c[active]).sum())

    if active.size == 1:
        j = int(active[0])
        rng = StreamKey(key.base_seed, key.path + (j,)).generator()
        a = float(exposure[j])
        t = 0.0
        cum_jumps = 0.0
        while True:
            gaps = -np.log1p(-rng.random(_CLAIM_CHUNK)) / params.lam
            amounts = -params.mu[j] * np.log1p(-rng.random(_CLAIM_CHUNK))
            epochs = t + np.cumsum(gaps)
            keep = int((epochs <= horizon).sum())
            deficit = cum_jumps + np.cumsum(a * amounts[:keep]) - drift * epochs[:keep]
            if (deficit >= total_reserve).any():
                return True
            if keep < _CLAIM_CHUNK:
                return False
            cum_jumps += float((a * amounts).sum())
            t = float(epochs[-1])

    all_times = []
    all_jumps = []
    for j in active:
        rng = StreamKey(key.base_seed, key.path + (int(j),)).generator()
        epochs, amounts = _claims_upto(rng, params.lam, float(params.mu[j]), horizon)
        all_times.append(epochs)
        all_jumps.append(exposure[j] * amounts)
    times = np.concatenate(all_times)
    jumps = np.concatenate(all_jumps)
    if times.size == 0:
        return False
    order = np.argsort(times, kind="stable")
    deficit = np.cumsum(jumps[order]) - drift * times[order]
    return bool((deficit >= total_reserve).any())
