"""Reference path simulator with one claim stream per exposed object.

Object ``j`` draws its own claim epochs and sizes up to the horizon from
``key.child(j)``; the claims of all objects are merged by epoch and the
deficit is checked at every claim.  A path with a single exposed object
takes a chunked loop that stops at the first ruin.  The package's
:func:`ruinnet.pathsim.simulate_ruin_path` simulates the superposed claim
process instead; with one exposed object both give the same flag for the
same key, and with several they agree in distribution.
"""

import numpy as np

from ruinnet.pathsim import _CLAIM_CHUNK, PathConfig
from ruinnet.streams import StreamKey


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
