"""Reference path simulator with one claim stream per exposed object,
and the ruin frequency of one fixed network.

Object ``j`` draws its own claim epochs and sizes up to the horizon from
``key.child(j)``; the claims of all objects are merged by epoch and the
deficit is checked at every claim.  A path with a single exposed object
takes a chunked loop that stops at the first ruin.  The package's
:func:`ruinnet.pathsim.simulate_ruin_path` simulates the superposed claim
process instead; with one exposed object both give the same flag for the
same key, and with several they agree in distribution.
"""

import math

import numpy as np

from ruinnet.pathsim import _CLAIM_CHUNK, PATH_BATCH, PathConfig, simulate_ruin_batch
from ruinnet.ruin import EstimateWithCI
from ruinnet.streams import PATH_DOMAIN, StreamKey, stream


def ruin_flags(cfg: PathConfig, paths: int, base_seed: int) -> np.ndarray:
    """Ruin flags of ``paths`` independent paths on ``cfg``: batch ``k`` of
    :data:`PATH_BATCH` paths runs on the stream ``(base_seed, PATH_DOMAIN, k)``."""
    exposure = cfg.exposure()
    flags = [
        simulate_ruin_batch(
            cfg.params,
            np.broadcast_to(exposure, (min(PATH_BATCH, paths - lo), exposure.size)),
            cfg.total_reserve(),
            cfg.horizon,
            stream(base_seed, PATH_DOMAIN, k),
        )
        for k, lo in enumerate(range(0, paths, PATH_BATCH))
    ]
    return np.concatenate(flags)


def ruin_frequency(cfg: PathConfig, paths: int, base_seed: int) -> EstimateWithCI:
    """Fraction of ruined paths among :func:`ruin_flags`, with its binomial error."""
    phat = int(ruin_flags(cfg, paths, base_seed).sum()) / paths
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


def simulate_ruin_path_per_object(cfg: PathConfig, key: StreamKey) -> bool:
    """True iff the group deficit reaches the total reserve within the horizon."""
    rows = cfg.group.zero_based()
    exposure = cfg.weights.A[rows].sum(axis=0)
    total_reserve = float(cfg.params.u[rows].sum())
    if total_reserve <= 0.0:
        return True
    active = np.flatnonzero(exposure > 0)
    if active.size == 0:
        return False
    drift = float((exposure[active] * cfg.params.c[active]).sum())

    if active.size == 1:
        j = int(active[0])
        rng = key.child(j).generator()
        a = float(exposure[j])
        t = 0.0
        cum_jumps = 0.0
        while True:
            gaps = -np.log1p(-rng.random(_CLAIM_CHUNK)) / cfg.params.lam
            amounts = -cfg.params.mu[j] * np.log1p(-rng.random(_CLAIM_CHUNK))
            epochs = t + np.cumsum(gaps)
            keep = int((epochs <= cfg.horizon).sum())
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
        rng = key.child(int(j)).generator()
        epochs, amounts = _claims_upto(rng, cfg.params.lam, float(cfg.params.mu[j]), cfg.horizon)
        all_times.append(epochs)
        all_jumps.append(exposure[j] * amounts)
    times = np.concatenate(all_times)
    jumps = np.concatenate(all_jumps)
    if times.size == 0:
        return False
    order = np.argsort(times, kind="stable")
    deficit = np.cumsum(jumps[order]) - drift * times[order]
    return bool((deficit >= total_reserve).any())
