"""Surplus paths of one fixed network, from the group's exposure vector.

A path is given by the risk parameters, the group's share of each
object's losses (``exposure``, length ``d``), its pooled reserve and the
horizon.  :func:`group_exposure` reads the first three off an incidence
matrix.  :func:`ruin_path` runs one path as a one-row
:func:`ruinnet.pathsim.simulate_ruin_batch`; :func:`ruin_flags` and
:func:`ruin_frequency` run many in full batches.

:func:`simulate_ruin_path_per_object` is the reference simulator with one
claim stream per exposed object: object ``j`` draws its own claim epochs
and sizes up to the horizon from the stream ``key.path + (j,)``; the
claims of all objects are merged by epoch and the deficit is checked at
every claim.  A path with a single exposed object takes a chunked loop
that stops at the first ruin.  The kernel simulates the superposed claim process instead;
with one exposed object both give the same flag for the same key, and with
several they agree in distribution.
"""

import math

import numpy as np

from model_reference import proportional_weights
from ruinnet.model import AgentSubset, RiskParams, proportional_r
from ruinnet.pathsim import _CLAIM_CHUNK, PATH_BATCH, simulate_ruin_batch
from ruinnet.ruin import EstimateWithCI
from ruinnet.streams import PATH_DOMAIN, StreamKey, stream


def group_exposure(params: RiskParams, incidence, group: AgentSubset) -> tuple[np.ndarray, float]:
    """The group's share of each object's losses under proportional weights
    on one ``q x d`` incidence matrix, and the group's pooled reserve."""
    rows = group.zero_based()
    r_q = proportional_r(params, group)
    A = proportional_weights(np.asarray(incidence, dtype=bool), group, params, r_q)
    return A[rows].sum(axis=0), float(params.u[rows].sum())


def ruin_path(params, exposure, total_reserve, horizon, key: StreamKey) -> bool:
    """One path on the stream ``key.path + (j0,)``, ``j0`` the first exposed
    object.  With a single exposed object this is that object's own claim
    process."""
    active = np.flatnonzero(exposure > 0)
    if active.size == 0:
        return total_reserve <= 0.0
    rng = StreamKey(key.base_seed, key.path + (int(active[0]),)).generator()
    return bool(simulate_ruin_batch(params, exposure[None], total_reserve, horizon, rng)[0])


def ruin_flags(params, exposure, total_reserve, horizon, paths: int, base_seed: int) -> np.ndarray:
    """Ruin flags of ``paths`` independent paths: batch ``k`` of
    :data:`PATH_BATCH` paths runs on the stream ``(base_seed, PATH_DOMAIN, k)``."""
    flags = [
        simulate_ruin_batch(
            params,
            np.broadcast_to(exposure, (min(PATH_BATCH, paths - lo), exposure.size)),
            total_reserve,
            horizon,
            stream(base_seed, PATH_DOMAIN, k),
        )
        for k, lo in enumerate(range(0, paths, PATH_BATCH))
    ]
    return np.concatenate(flags)


def ruin_frequency(params, exposure, total_reserve, horizon, paths, base_seed) -> EstimateWithCI:
    """Fraction of ruined paths among :func:`ruin_flags`, with its binomial error."""
    flags = ruin_flags(params, exposure, total_reserve, horizon, paths, base_seed)
    phat = int(flags.sum()) / paths
    return EstimateWithCI(
        mean=phat, stderr=math.sqrt(phat * (1.0 - phat) / paths), replicates=paths
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
