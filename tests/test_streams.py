"""Tests for the stream rule (a PCG64DXSM generator on
``SeedSequence(base_seed, spawn_key=path)`` per address), block scheduling,
its worker-pool size, and the block sums."""

import sys
import tracemalloc

import numpy as np
import pytest

from ruinnet import streams
from ruinnet.streams import (
    BLOCK_SIZE,
    ORACLE_PATH_DOMAIN,
    RUIN_DOMAIN,
    block_counts,
    block_totals,
    map_blocks,
    pairwise_sum,
    stream,
)


class TestStreamRule:
    """Every output bit of the package rests on this rule, so a change of
    generator fails here first, by name."""

    def test_an_address_is_a_pcg64dxsm_on_its_seed_sequence(self):
        for seed, path in [(0, ()), (7, (RUIN_DOMAIN, 5)), (11, (ORACLE_PATH_DOMAIN, 3, 2))]:
            rng = stream(seed, *path)
            assert type(rng.bit_generator) is np.random.PCG64DXSM
            ss = np.random.SeedSequence(seed, spawn_key=path)
            assert rng.bit_generator.state == np.random.PCG64DXSM(ss).state

    @pytest.mark.parametrize(
        "address, words",
        [
            ((0,), [0xD97E4A147F788A70, 0x8DFA7BCE56E3A253, 0x13556ED9F53D3C10]),
            ((1, RUIN_DOMAIN, 0), [0x49DB0D86D693B589, 0x20D005E2A0209E5A, 0x0742B9D6F17D5755]),
            (
                (11, ORACLE_PATH_DOMAIN, 3, 2),
                [0x5A55860DC3B61CF4, 0xE3D07D56FD66BD60, 0x7503C8EDC0E0F482],
            ),
        ],
        ids=["seed", "ruin-block", "oracle-batch"],
    )
    def test_first_raw_words_are_pinned(self, address, words):
        assert stream(*address).bit_generator.random_raw(3).tolist() == words

    def test_addresses_of_the_workloads_do_not_share_a_first_output(self):
        # every (domain, block) and every oracle (path domain, block, batch)
        # that the benchmark's workloads reach, at five base seeds
        addresses = [(s, d, k) for s in range(1, 6) for d in range(1, 5) for k in range(64)]
        addresses += [
            (s, ORACLE_PATH_DOMAIN, k, b) for s in range(1, 6) for k in range(8) for b in range(8)
        ]
        first = {int(stream(*a).bit_generator.random_raw()) for a in addresses}
        assert len(first) == len(addresses)


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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_block_totals_stack_2d_columns(self, threads):
        # a (rows, 4) array, a bool (rows, 2) array and a 1-D array per
        # block, and a ragged last block: each column has the bits of its
        # own per-block and across-block trees
        def draw(rng, rows):
            x = rng.lognormal(0.0, 2.0, (rows, 4))
            return x, x[:, :2] < 1.0, x[:, 3] * x[:, 3]

        n = 3 * BLOCK_SIZE + 321
        parts = []
        for k, lo in enumerate(range(0, n, BLOCK_SIZE)):
            x, below, sq = draw(stream(4, 78, k), min(BLOCK_SIZE, n - lo))
            columns = [*x.T, *below.T, sq]
            parts.append([tree_sum(c) for c in columns])
        expected = [tree_sum(column) for column in zip(*parts)]
        x, below, sq = block_totals(n, 78, 4, draw, threads)
        assert x.shape == (4,) and below.shape == (2,) and isinstance(sq, float)
        assert [*x.tolist(), *below.tolist(), sq] == expected


class TestBlockCounts:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_counts_every_block_once(self, threads):
        # a (rows, 3) array of indices per block, and a ragged last block
        def draw(rng, rows):
            return rng.integers(0, 40, (rows, 3))

        n = 2 * BLOCK_SIZE + 77
        expected = np.zeros(50, dtype=np.int64)
        for k, lo in enumerate(range(0, n, BLOCK_SIZE)):
            np.add.at(expected, draw(stream(2, 79, k), min(BLOCK_SIZE, n - lo)).ravel(), 1)
        got = block_counts(n, 79, 2, draw, 50, threads)
        assert got.dtype == np.int64 and got.tolist() == expected.tolist()

    def test_a_transposed_block_is_counted_without_a_copy(self):
        # the estimator's lattice index is the (rows, groups) view of a
        # (groups, rows) array: it is raveled in memory order, not copied
        values = np.arange(64 * BLOCK_SIZE).reshape(64, BLOCK_SIZE) % 50

        def draw(rng, rows):
            return values.T

        block_counts(BLOCK_SIZE, 81, 1, draw, 50)  # warm caches outside the trace
        tracemalloc.start()
        try:
            got = block_counts(BLOCK_SIZE, 81, 1, draw, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == np.bincount(values.ravel(), minlength=50).tolist()
        assert peak < values.nbytes // 4, f"peak {peak} of a {values.nbytes}-byte block"

    def test_no_update_is_lost_to_more_threads_than_cores(self, monkeypatch):
        # eight workers on any machine, a thread switch every microsecond,
        # and histograms long enough that numpy adds them without the GIL
        # (without the lock, two of three runs lost counts on a 2-core
        # host): every replicate is counted once, as on one thread
        monkeypatch.setattr(streams.os, "cpu_count", lambda: 8)

        def draw(rng, rows):
            return rng.integers(0, 400_000, rows)

        n = 48 * BLOCK_SIZE
        for seed in (3, 4, 5):
            serial = block_counts(n, 80, seed, draw, 400_000, threads=1)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = block_counts(n, 80, seed, draw, 400_000, threads=8)
            finally:
                sys.setswitchinterval(interval)
            assert int(threaded.sum()) == n
            assert threaded.tolist() == serial.tolist()
