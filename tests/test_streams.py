"""Tests for block scheduling, its worker-pool size, and the block sums."""

import numpy as np
import pytest

from ruinnet import streams
from ruinnet.streams import BLOCK_SIZE, block_totals, map_blocks, pairwise_sum, stream


class InlinePool:
    """Stands in for ThreadPoolExecutor: records ``max_workers`` and runs
    every task at submission, so no thread is started."""

    created: list[int] = []

    def __init__(self, max_workers):
        InlinePool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        value = fn(*args)

        class Done:
            def result(self):
                return value

        return Done()


@pytest.fixture
def pool(monkeypatch):
    InlinePool.created = []
    monkeypatch.setattr(streams, "ThreadPoolExecutor", InlinePool)
    # A CPU count above every request, so the tests below see the clamp to
    # the task count whatever machine runs them.
    monkeypatch.setattr(streams.os, "cpu_count", lambda: 1_000_000)
    return InlinePool


class TestPoolSize:
    def test_clamped_to_block_count(self, pool):
        out = map_blocks(3 * BLOCK_SIZE, lambda k, lo, hi: (k, lo, hi), threads=10_000)
        assert pool.created == [3]
        assert out == [(k, k * BLOCK_SIZE, (k + 1) * BLOCK_SIZE) for k in range(3)]

    def test_clamped_to_task_count(self, pool):
        assert map_blocks(4, lambda k, lo, hi: k * k, threads=10_000, width=1) == [0, 1, 4, 9]
        assert pool.created == [4]

    def test_no_pool_for_one_task_or_thread(self, pool):
        assert map_blocks(BLOCK_SIZE, lambda k, lo, hi: hi, threads=8) == [BLOCK_SIZE]
        assert map_blocks(5, lambda k, lo, hi: k, threads=1, width=1) == [0, 1, 2, 3, 4]
        assert map_blocks(0, lambda k, lo, hi: k, threads=4, width=1) == []
        assert map_blocks(0, lambda k, lo, hi: k, threads=4) == []
        assert pool.created == []

    def test_thread_count_kept_below_task_count(self, pool):
        assert map_blocks(6, lambda k, lo, hi: k, threads=2, width=1) == list(range(6))
        assert pool.created == [2]

    def test_clamped_to_cpu_count(self, pool, monkeypatch):
        monkeypatch.setattr(streams.os, "cpu_count", lambda: 3)
        assert map_blocks(8 * BLOCK_SIZE, lambda k, lo, hi: k, threads=10_000) == list(range(8))
        assert pool.created == [3]

    def test_block_width(self, pool):
        # the oracle's network blocks: a width other than BLOCK_SIZE, ragged last block
        out = map_blocks(600, lambda k, lo, hi: (k, lo, hi), threads=2, width=256)
        assert out == [(0, 0, 256), (1, 256, 512), (2, 512, 600)]
        assert pool.created == [2]

    def test_unknown_cpu_count_runs_inline(self, pool, monkeypatch):
        monkeypatch.setattr(streams.os, "cpu_count", lambda: None)
        assert map_blocks(2 * BLOCK_SIZE, lambda k, lo, hi: k, threads=4) == [0, 1]
        assert pool.created == []


def tree_sum(values) -> float:
    """Reference: the pairwise tree over one 1-D array, one level at a time."""
    level = [float(v) for v in values] or [0.0]
    while len(level) & (len(level) - 1):
        level.append(0.0)
    while len(level) > 1:
        level = [a + b for a, b in zip(level[0::2], level[1::2])]
    return level[0]


class TestBlockSums:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 100, 4096, 5000])
    def test_pairwise_sum_is_the_fixed_tree(self, n):
        values = np.random.default_rng(n).lognormal(0.0, 3.0, n)
        assert pairwise_sum(values) == tree_sum(values)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_block_totals_match_per_array_trees(self, threads):
        # three arrays per block, a bool among them, and a ragged last block
        def draw(rng, rows):
            x = rng.lognormal(0.0, 2.0, rows)
            return x, x * x, x < 1.0

        n = 2 * BLOCK_SIZE + 123
        parts = [
            [tree_sum(a) for a in draw(stream(9, 77, k), min(BLOCK_SIZE, n - lo))]
            for k, lo in enumerate(range(0, n, BLOCK_SIZE))
        ]
        expected = [tree_sum(column) for column in zip(*parts)]
        assert block_totals(n, 77, 9, draw, threads) == expected
