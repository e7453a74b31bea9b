"""Reproducible random streams for parallel Monte Carlo.

Every stream is a PCG64DXSM generator seeded by
``SeedSequence(base_seed, spawn_key=path)``, so it is addressed by
``(base_seed, *path)``: numpy's recommended way to derive independent
parallel streams.  A given address always produces the same stream, so
any piece of work that derives its own address is bit-reproducible no
matter how it is scheduled across workers.

Replicated sampling is organised in fixed blocks of :data:`BLOCK_SIZE`
replicates; block ``k`` draws from the stream ``(base_seed, domain, k)``
and is vectorised internally.  Because the block boundaries are constants,
results are identical for any worker count.  Two runners share these
blocks: :func:`block_totals` sums float arrays with a fixed pairwise tree
(the sampled mixture approximation, and the ruin estimator on large count
lattices), and :func:`block_counts` adds integer histograms (the ruin
estimator on small lattices).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Width of one vectorised replicate block.  Not configurable at runtime:
#: changing it changes which stream a replicate draws from.
BLOCK_SIZE = 4096

# Domain tags keep streams of different subsystems disjoint even when they
# share a base seed.
RUIN_DOMAIN = 1
APPROX_DOMAIN = 2
ORACLE_NET_DOMAIN = 3
ORACLE_PATH_DOMAIN = 4


@dataclass(frozen=True)
class StreamKey:
    """Address of one reproducible random stream."""

    base_seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.base_seed), spawn_key=self.path)
        return np.random.Generator(np.random.PCG64DXSM(ss))


def stream(base_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``(base_seed, *path)``."""
    return StreamKey(int(base_seed), tuple(int(p) for p in path)).generator()


def _tree(x: np.ndarray) -> np.ndarray:
    """The fixed pairwise tree over the first axis of a nonempty float array:
    one sum per column of a 2-D array, each with the bits of that column's
    1-D tree (the tree adds whole rows, element by element)."""
    n = 1 << int(x.shape[0] - 1).bit_length()
    if n != x.shape[0]:
        x = np.concatenate([x, np.zeros((n - x.shape[0], *x.shape[1:]))])
    while x.shape[0] > 1:
        x = x[0::2] + x[1::2]
    return x[0]


def pairwise_sum(values) -> float:
    """Sum ``values`` with a fixed binary tree over index order.

    The tree shape depends only on the length of the input, so the result
    is independent of how the values were produced or scheduled.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    return float(_tree(x)) if x.size else 0.0


def weighted_sum(x: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """``sum_i x[..., i] * w[..., i]`` over the last axis, leading axes
    broadcast: the first product, then each later one added left to right,
    elementwise, into ``out`` when one is given.  Each row has the bits of
    that loop in Python floats, on any CPU."""
    total = np.multiply(x[..., 0], w[..., 0], out=out)
    for i in range(1, x.shape[-1]):
        total += x[..., i] * w[..., i]
    return total


def map_blocks(
    n: int, fn: Callable[[int, int, int], object], threads: int = 1, width: int = BLOCK_SIZE
) -> list:
    """Apply ``fn(block_index, start, stop)`` over the blocks of ``width``
    items of ``[0, n)``: the replicate blocks unless another width is given.

    The blocks run on at most ``min(threads, block count, os.cpu_count())``
    worker threads, and the results come back in block order whatever
    ``threads`` is.
    """
    tasks = [(k, s, min(s + width, int(n))) for k, s in enumerate(range(0, int(n), width))]
    workers = min(int(threads), len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]


def block_totals(
    n: int,
    domain: int,
    base_seed: int,
    draw: Callable[[np.random.Generator, int], tuple],
    threads: int = 1,
) -> list:
    """Total over ``n`` replicates of each array that ``draw(rng, rows)``
    returns: a float (``np.float64``) for a ``(rows,)`` array, and an array
    of column totals for a ``(rows, m)`` array.

    Block ``k`` makes one ``draw`` call on the stream
    ``(base_seed, domain, k)`` for its rows.  Each array is summed over its
    rows by one pairwise tree, within the block and then across blocks, so
    every column total has the bits of its own :func:`pairwise_sum` and is
    independent of ``threads``.
    """

    def work(k: int, lo: int, hi: int) -> list[np.ndarray]:
        rng = stream(base_seed, domain, k)
        return [_tree(np.asarray(a, dtype=np.float64)) for a in draw(rng, hi - lo)]

    return [_tree(np.array(column)) for column in zip(*map_blocks(n, work, threads))]


def block_counts(
    n: int,
    domain: int,
    base_seed: int,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    length: int,
    threads: int = 1,
) -> np.ndarray:
    """Histogram over ``n`` replicates of the integers in ``[0, length)``
    that ``draw(rng, rows)`` returns: ``int64`` counts of length ``length``.

    Block ``k`` makes one ``draw`` call on the stream
    ``(base_seed, domain, k)``, as in :func:`block_totals`.  Each block's
    values are raveled in memory order, so a transposed view is not copied,
    and their ``np.bincount`` is added into one accumulator as the block finishes.
    Integer addition is exact, so the counts are independent of ``threads``
    and of the order in which blocks finish, and no block's histogram is
    kept once it is added.
    """
    total = np.zeros(int(length), dtype=np.int64)
    lock = threading.Lock()

    def work(k: int, lo: int, hi: int) -> None:
        values = draw(stream(base_seed, domain, k), hi - lo)
        counts = np.bincount(np.ravel(values, order="K"), minlength=length)
        with lock:
            np.add(total, counts, out=total)

    map_blocks(n, work, threads)
    return total


def mean_stderr(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Sample mean and its standard error from the totals of ``n`` values
    and of their squares (the variance clipped at 0)."""
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return mean, math.sqrt(var / n)
