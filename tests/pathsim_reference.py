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
sizes positive, and the crossing read off a boolean ``hit`` array.  The
package's kernel must give its flags on the same stream.
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


def group_claims(params: RiskParams, incidence, group: AgentSubset) -> tuple[float, float, float]:
    """``(rate, premium, reserve)`` of the group's surplus on one ``q x d``
    incidence matrix, in units of ``r_q``."""
    rows = group.zero_based()
    connected = np.asarray(incidence, dtype=bool)[rows].any(axis=0)
    premium = float((params.c / params.mu)[connected].sum())
    reserve = float(params.u[rows].sum()) / proportional_r(params, group)
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
