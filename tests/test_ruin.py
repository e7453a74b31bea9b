"""Tests for the Pollaczek-Khintchine ratio and the Monte-Carlo estimators."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from model_reference import classical_ruin
from ruin_reference import (
    estimate_by_replicate,
    estimate_one_group,
    exhaustive_graph_psi,
    pk_value,
    psi_summand,
)
from ruinnet import ruin
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel
from ruinnet.streams import BLOCK_SIZE
from ruinnet.ruin import EstimateWithCI, _pk_from_counts, _summand, estimate, estimate_psi


SBM = BlockModel(
    w=[0.5, 0.3, 0.2],
    v=[0.6, 0.4],
    p=[[0.6, 0.1], [0.0, 0.9], [1.0, 0.3]],
)

#: The 3x3 blockmodel of the mixed-mode golden sweep.
SBM_3X3 = BlockModel(
    w=[0.5, 0.3, 0.2],
    v=[0.5, 0.3, 0.2],
    p=[[0.3, 0.05, 0.05], [0.05, 0.3, 0.05], [0.05, 0.05, 0.3]],
)


def two_class_params(ns, d, q=10, low=0.95, high=1.05, u=1.0):
    c = np.full(d, high)
    c[:ns] = low
    return RiskParams(lam=1.0, c=c, mu=np.ones(d), u=np.full(q, u))


class TestPKValue:
    def test_disconnected_is_zero(self):
        p = two_class_params(1, 3)
        assert pk_value([False, False, False], p) == 0.0

    def test_symmetric_premiums_exactly_one(self):
        p = RiskParams(lam=1.0, c=[0.95, 1.05], mu=[1.0, 1.0], u=[1.0])
        assert pk_value([True, True], p) == 1.0

    def test_single_ruinous_object(self):
        p = RiskParams(lam=1.0, c=[0.95], mu=[1.0], u=[1.0])
        assert pk_value([True], p) == pytest.approx(1.0526315789, abs=1e-9)

    def test_matches_class_counts(self):
        # the per-object reference against the per-class count form both
        # samplers use
        rng = np.random.default_rng(53)
        for _ in range(40):
            d = int(rng.integers(1, 10))
            c, mu = rng.choice([0.9, 1.0, 1.2], d), rng.choice([0.5, 1.0, 2.0], d)
            params = RiskParams(lam=float(rng.uniform(0.5, 2.0)), c=c, mu=mu, u=[1.0])
            ratio = params.class_ratio
            cls = np.searchsorted(ratio, params.c / params.mu)
            ind = rng.random((20, d)) < 0.5
            counts = np.stack([np.bincount(cls[row], minlength=ratio.size) for row in ind])
            got = _pk_from_counts(params.lam, counts, ratio)
            np.testing.assert_allclose(got, [pk_value(row, params) for row in ind], rtol=1e-12)


class TestPsiSummand:
    """Values of the package's summand ``_summand(pk, reserve / r_q)``; the
    argument checks of the reference ``psi_summand`` in ``tests/``."""

    def test_no_connection_contributes_nothing(self):
        assert _summand(0.0, 5.0 / 1.0) == 0.0

    def test_certain_ruin_branch(self):
        assert _summand(1.0526, 2.0 / 0.3) == 1.0

    def test_matches_classical_formula(self):
        val = _summand(1 / 1.05, 1.0 / 1.0)
        assert val == pytest.approx(0.90810, abs=1e-5)

    def test_continuous_at_one(self):
        below = _summand(1.0 - 1e-12, 3.0 / 0.5)
        assert below == pytest.approx(1.0, abs=1e-10)
        assert _summand(1.0, 3.0 / 0.5) == 1.0

    @given(
        pk=st.floats(0.0, 3.0),
        decay=st.one_of(st.floats(0.0, 1000.0), st.floats(0.0, sys.float_info.max)),
    )
    def test_bounded_in_unit_interval(self, pk, decay):
        # any decay RiskParams admits, up to the largest finite double: from
        # pk = 1 up the summand is 1 * exp(-0 * decay), exactly 1
        val = _summand(pk, decay)
        assert 0.0 <= val <= 1.0
        if pk >= 1.0:
            assert val == 1.0

    @pytest.mark.parametrize(
        "pk, message",
        [
            (math.nan, "pk must not be NaN"),
            (np.array([0.2, math.nan, 1.5]), "pk must not be NaN"),
            (np.array([[0.2], [math.nan]]), "pk must not be NaN"),
            (-0.5, "pk must be nonnegative"),
            (np.array([0.2, -1e-300, 1.5]), "pk must be nonnegative"),
            (-math.inf, "pk must be nonnegative"),
        ],
    )
    def test_rejects_nan_or_negative_pk(self, pk, message):
        with pytest.raises(ValueError, match=message):
            psi_summand(pk, 1.0, 1.0)

    def test_rejects_nan_total_reserve(self):
        with pytest.raises(ValueError, match="total_reserve must not be NaN"):
            psi_summand(0.5, 1.0, math.nan)
        with pytest.raises(ValueError, match="total reserve must be nonnegative"):
            psi_summand(0.5, 1.0, -1.0)

    def test_array_pk_gives_each_scalar_value(self):
        pk = np.array([0.0, 0.3, 1.0 / 1.05, 1.0, 2.0])
        got = _summand(pk, 3.0 / 0.5)
        assert got.tolist() == [_summand(float(x), 3.0 / 0.5) for x in pk]


class TestEstimatePsi:
    def test_degenerate_network_closed_form(self):
        p = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[1.0])
        est = estimate_psi(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), 500, 3)
        assert est.mean == pytest.approx(0.90810, abs=1e-5)
        assert est.stderr <= 1e-12
        assert est.halfwidth == 2 * est.stderr

    def test_degenerate_certain_ruin(self):
        p = RiskParams(lam=1.0, c=[0.95], mu=[1.0], u=[1.0])
        est = estimate_psi(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), 500, 3)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_rejects_tiny_replicate_count(self):
        p = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[1.0])
        with pytest.raises(ValueError, match="replicate"):
            estimate_psi(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), 1, 0)

    def test_figure_setting_full_group(self):
        p = two_class_params(5, 10)
        est = estimate_psi(p, BlockModel.bernoulli(0.5), AgentSubset.prefix(10), 100_000, 42)
        assert 0.9 < est.mean < 1.0

    def test_thread_count_never_changes_result(self):
        p = two_class_params(4, 10)
        m = BlockModel.bernoulli(0.5)
        g = AgentSubset.prefix(3)
        ref = estimate_psi(p, m, g, 20_000, 5, threads=1)
        for threads in (2, 4, 7):
            assert estimate_psi(p, m, g, 20_000, 5, threads=threads) == ref

    def test_monotone_in_reserves_same_seed(self):
        m = BlockModel.bernoulli(0.5)
        g = AgentSubset.prefix(4)
        lo = estimate_psi(two_class_params(4, 10, u=0.5), m, g, 20_000, 5)
        hi = estimate_psi(two_class_params(4, 10, u=2.0), m, g, 20_000, 5)
        assert hi.mean <= lo.mean + 1e-12

    def test_dominates_certain_ruin_frequency(self):
        # psi >= P(ratio >= 1) replicate by replicate on a shared seed
        p = two_class_params(6, 10)
        m = BlockModel.bernoulli(0.5)
        g = AgentSubset.prefix(5)
        psi = estimate_psi(p, m, g, 30_000, 11)
        tail = estimate(p, m, g, [g.size], 30_000, 11).estimates[0].tail
        assert psi.mean >= (1.0 - tail.mean) - 1e-12

    def test_methods_agree_in_distribution(self):
        small = two_class_params(5, 8)
        cases = (
            (small, BlockModel.bernoulli(0.5), 4),
            (small, SBM, 4),
            (small, SBM, small.q),
            # many configurations with PK exactly 1: both samplers must break the tie alike
            (two_class_params(50, 100), BlockModel.bernoulli(0.1), 6),
        )
        for p, m, k in cases:
            g = AgentSubset.prefix(k)
            collapsed = estimate(p, m, g, [k], 40_000, 13, method="collapsed").estimates[0]
            graph = estimate(p, m, g, [k], 40_000, 13, method="graph").estimates[0]
            for a, b in ((collapsed.psi, graph.psi), (collapsed.tail, graph.tail)):
                assert abs(a.mean - b.mean) < 4 * math.hypot(a.stderr, b.stderr)

    def test_sbm_thread_count_never_changes_result(self):
        p = two_class_params(4, 10)
        g = AgentSubset.prefix(3)
        assert estimate_psi(p, SBM, g, 20_000, 5, threads=1) == estimate_psi(
            p, SBM, g, 20_000, 5, threads=2
        )

    def test_matches_exhaustive_graph_enumeration(self):
        # exact E[summand] over all 2^(q*d) graphs vs the estimator
        rng = np.random.default_rng(99)
        for _ in range(3):
            q = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            edge_p = float(rng.uniform(0.2, 0.8))
            c = rng.uniform(0.8, 1.3, d)
            mu = rng.uniform(0.5, 1.5, d)
            params = RiskParams(lam=1.0, c=c, mu=mu, u=rng.uniform(0.2, 1.5, q))
            k = int(rng.integers(1, q + 1))
            group = AgentSubset.prefix(k)
            exact = exhaustive_graph_psi(params, edge_p, group)
            est = estimate_psi(params, BlockModel.bernoulli(edge_p), group, 100_000, 7)
            assert abs(est.mean - exact) < 5 * max(est.stderr, 1e-9)

    def test_group_exchangeability(self):
        # prefix vs scattered subsets of equal size: same law of the estimate
        p = two_class_params(5, 10)
        m = BlockModel.bernoulli(0.5)
        a = estimate_psi(p, m, AgentSubset.prefix(4), 10_000, 21, method="graph")
        b = estimate_psi(p, m, AgentSubset((2, 5, 7, 10)), 10_000, 21, method="graph")
        assert abs(a.mean - b.mean) < 4 * math.hypot(a.stderr, b.stderr)


class TestEstimate:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model", [BlockModel.bernoulli(0.5), SBM], ids=["bernoulli", "sbm"])
    @pytest.mark.parametrize("method", ["collapsed", "graph"])
    def test_one_pass_matches_separate_passes(self, method, model, threads):
        # three full blocks and a ragged one; the separate passes run on one thread
        B = 3 * BLOCK_SIZE + 17
        params, group = two_class_params(4, 10), AgentSubset.prefix(3)
        args = (params, model, group, [group.size], B, 5)
        est = estimate(*args, threads=threads, method=method).estimates[0]
        # estimate_psi is the psi of the one-group call, bit for bit
        assert est.psi == estimate_psi(params, model, group, B, 5, method=method)
        one_thread = estimate(*args, method=method).estimates[0]
        assert est.tail == one_thread.tail
        assert est.replicates == B
        assert 0.0 < est.tail.mean < 1.0

    def test_zero_reserve_gives_the_classical_formula(self):
        # one agent certainly insuring one object: psi(0) = lam*mu/c; the
        # tolerance only absorbs the rounding of the mean of 100 equal summands
        p = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[0.0])
        est = estimate(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), [1], 100, 0)
        est = est.estimates[0]
        assert est.psi.mean == pytest.approx(classical_ruin(1.0, 1.0, 1.05, 0.0), rel=1e-15)
        assert est.psi.stderr <= 1e-12


class TestEstimatePrefixes:
    """:func:`estimate` over the prefixes of one group, from one pass of
    nested draws."""

    @pytest.mark.parametrize("model", [BlockModel.bernoulli(0.5), SBM], ids=["bernoulli", "sbm"])
    def test_one_group_is_one_binomial_per_class(self, model):
        # one group gives the bits of the single-binomial draw; uneven
        # reserves, and a ragged last block
        params = RiskParams(lam=1.0, c=[0.9, 1.1, 0.95, 1.2], mu=np.ones(4), u=[0.2, 1.0, 3.0])
        B = 2 * BLOCK_SIZE + 9
        for size in (1, 2, 3):
            (est,) = estimate(params, model, AgentSubset.prefix(3), [size], B, 4).estimates
            assert (est.psi.mean, est.psi.stderr, est.tail.mean) == estimate_one_group(
                params, model, size, B, 4
            )

    @pytest.mark.parametrize("model", [BlockModel.bernoulli(0.5), SBM], ids=["bernoulli", "sbm"])
    def test_thread_count_never_changes_result(self, model):
        args = (two_class_params(4, 10), model, AgentSubset.prefix(7), [1, 2, 4, 7])
        args += (3 * BLOCK_SIZE + 17, 5)
        results = [estimate(*args, threads=threads) for threads in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert results[0].replicates == 4 * (3 * BLOCK_SIZE + 17)
        assert [e.replicates for e in results[0].estimates] == [3 * BLOCK_SIZE + 17] * 4

    def test_rejects_bad_groups_and_replicates(self):
        params, everyone = two_class_params(4, 10, q=3), AgentSubset.prefix(3)
        with pytest.raises(ValueError, match="exceeds agent count"):
            estimate(params, SBM, AgentSubset.prefix(4), [1, 4], 100, 0)
        with pytest.raises(ValueError, match="two replicates"):
            estimate(params, SBM, everyone, [1, 2], 1, 0)
        with pytest.raises(ValueError, match="increasing"):
            estimate(params, SBM, everyone, [2, 1], 100, 0)
        with pytest.raises(ValueError, match="sampling method"):
            estimate(params, SBM, everyone, [1, 2], 100, 0, method="exact")

    @pytest.mark.parametrize(
        "sizes, match",
        [
            ([2, 1], "increasing"),
            ([1, 1], "increasing"),
            ([], "nonempty"),
            ([0, 1], "positive"),
            ([1, 4], "exceeds agent count 3"),
        ],
        ids=["not-nested", "equal-sizes", "empty", "size-zero", "beyond-group"],
    )
    @pytest.mark.parametrize("method", ["collapsed", "graph"])
    def test_rejects_groups_that_are_not_nested(self, method, sizes, match):
        # sizes of no nested family: the prefixes of a group grow, and stay
        # within it (here 3 of the 5 agents)
        params, group = two_class_params(4, 10, q=5), AgentSubset((1, 3, 5))
        with pytest.raises(ValueError, match=match):
            estimate(params, SBM, group, sizes, 100, 0, method=method)

    @pytest.mark.parametrize(
        "model",
        [BlockModel.bernoulli(0.4), BlockModel([0.4, 0.6], [0.7, 0.3], [[0.5, 0.1], [0.2, 0.8]])],
        ids=["bernoulli", "sbm-2x2"],
    )
    def test_graph_agrees_with_collapsed_for_every_group(self, model):
        # the prefixes of a scattered group: the graph sampler takes each
        # group's own rows, the collapsed one only its size
        params = two_class_params(3, 8, q=6)
        args = (params, model, AgentSubset((2, 4, 5, 6)), [1, 2, 4], 30_000)
        collapsed = estimate(*args, 17).estimates
        graph = estimate(*args, 19, method="graph").estimates
        for c, g in zip(collapsed, graph):
            for a, b in ((c.psi, g.psi), (c.tail, g.tail)):
                assert abs(a.mean - b.mean) < 4 * math.hypot(a.stderr, b.stderr)

    def test_graph_groups_read_one_incidence_draw(self):
        # each group of a nested graph call has the bits of its own one-group
        # call: the same incidence draws, a group's rows read from each
        params, members = two_class_params(3, 8, q=5), (2, 3, 5)
        B = BLOCK_SIZE + 33
        nested = estimate(
            params, SBM, AgentSubset(members), [1, 2, 3], B, 8, threads=2, method="graph"
        ).estimates
        for k, est in zip((1, 2, 3), nested):
            group = AgentSubset(members[:k])
            assert estimate(params, SBM, group, [k], B, 8, method="graph").estimates == (est,)


    def test_every_agent_costs_no_copy_of_the_members(self):
        # the group of all q = 2**20 agents: prefix(q) holds one int64 array
        # (and compares it once), and estimate sums its reserves from a view
        q = 2**20
        params = RiskParams(lam=1.0, c=[1.05, 0.95], mu=[1.0, 1.0], u=np.ones(q))
        tracemalloc.start()
        try:
            everyone = AgentSubset.prefix(q)
            _, prefix_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            estimate(params, BlockModel.bernoulli(0.5), everyone, [1, q], 100, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prefix_peak < 8 * q + q + (64 << 10)  # the members and one bool compare
        assert peak - before < 1 << 20


def spy_runners(monkeypatch) -> list[str]:
    """The block runners :func:`estimate` calls, by name, in call order."""
    calls = []
    for name in ("block_counts", "block_totals"):
        real = getattr(ruin, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(ruin, name, spy)
    return calls


def lattice_params(class_sizes, q=7, u=None) -> RiskParams:
    """Two premium classes of the given sizes: a lattice of
    ``prod_g (d_g + 1)`` count vectors."""
    low, high = class_sizes
    c = np.r_[np.full(low, 0.95), np.full(high, 1.05)]
    reserves = np.linspace(0.2, 2.0, q) if u is None else u
    return RiskParams(lam=1.0, c=c, mu=np.ones(low + high), u=reserves)


class TestHistogram:
    """On a lattice of at most ``min(B, BLOCK_SIZE)`` count vectors the
    estimator adds integer histograms and evaluates each visited vector
    once; on a larger one it evaluates every replicate."""

    @pytest.mark.parametrize(
        "model", [BlockModel.bernoulli(0.4), SBM_3X3], ids=["bernoulli", "sbm-3x3"]
    )
    def test_matches_the_per_replicate_loop(self, monkeypatch, model):
        # nested sizes, uneven reserves and a ragged last block: the tail
        # is the same integer count, psi and its error the same numbers
        runners = spy_runners(monkeypatch)
        params, sizes, B = lattice_params((4, 6)), [1, 2, 4, 7], 2 * BLOCK_SIZE + 9
        got = estimate(params, model, AgentSubset.prefix(7), sizes, B, 6).estimates
        want = estimate_by_replicate(params, model, sizes, B, 6)
        assert runners == ["block_counts"]
        for est, (psi, stderr, tail) in zip(got, want):
            assert est.tail.mean == tail
            assert est.psi.mean == pytest.approx(psi, rel=1e-12, abs=0)
            assert est.psi.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
            assert 0.0 < stderr

    @pytest.mark.parametrize(
        "class_sizes, B, runner",
        [
            ((63, 63), 2 * BLOCK_SIZE + 5, "block_counts"),  # 64 * 64 = BLOCK_SIZE points
            ((16, 240), 2 * BLOCK_SIZE + 5, "block_totals"),  # 17 * 241 = BLOCK_SIZE + 1
            ((3, 3), 16, "block_counts"),  # 16 points, as many as replicates
            ((3, 3), 15, "block_totals"),  # one point more than replicates
        ],
        ids=["block-size", "block-size-plus-one", "replicates", "replicates-plus-one"],
    )
    def test_selection_by_lattice_size(self, monkeypatch, class_sizes, B, runner):
        runners = spy_runners(monkeypatch)
        params, sizes = lattice_params(class_sizes), [2, 5]
        got = estimate(params, BlockModel.bernoulli(0.3), AgentSubset.prefix(7), sizes, B, 9)
        want = estimate_by_replicate(params, BlockModel.bernoulli(0.3), sizes, B, 9)
        assert runners == [runner]
        for est, (psi, stderr, tail) in zip(got.estimates, want):
            if runner == "block_totals":  # the per-replicate path keeps its bits
                assert (est.psi.mean, est.psi.stderr, est.tail.mean) == (psi, stderr, tail)
            else:
                assert est.tail.mean == tail
                assert est.psi.mean == pytest.approx(psi, rel=1e-12, abs=0)
                assert est.psi.stderr == pytest.approx(stderr, rel=1e-12, abs=0)

    @pytest.mark.parametrize("edge_p", [0.0, 1.0])
    def test_one_visited_point_has_zero_error(self, monkeypatch, edge_p):
        # every replicate draws the same count vector: no spread, exactly
        runners = spy_runners(monkeypatch)
        params = lattice_params((2, 3), u=np.full(7, 0.7))
        args = (params, BlockModel.bernoulli(edge_p), AgentSubset.prefix(7), [1, 3, 7])
        estimates = estimate(*args, 3 * BLOCK_SIZE + 1, 2).estimates
        assert runners == ["block_counts"]
        for est in estimates:
            assert est.psi.stderr == 0.0 and est.tail.stderr == 0.0
            assert est.tail.mean == 1.0  # ratio 0 disconnected, 5 / 5.05 connected
            assert (est.psi.mean == 0.0) == (edge_p == 0.0)

    def test_accumulator_memory_does_not_grow_with_blocks(self):
        # one 4096-point histogram per group (128 KiB for 4 groups) per
        # block: 64 blocks must peak where 8 do, so no block's histogram
        # is kept once it is added
        params, model = lattice_params((63, 63)), BlockModel.bernoulli(0.5)
        args = (params, model, AgentSubset.prefix(7), [1, 2, 4, 7])
        peaks = []
        for blocks in (8, 64):
            estimate(*args, blocks * BLOCK_SIZE, 3)  # warm caches outside the trace
            tracemalloc.start()
            try:
                estimate(*args, blocks * BLOCK_SIZE, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 16 << 10, peaks

    @pytest.mark.parametrize("ns", [3, 6])
    def test_sweep_block_peaks_near_its_multinomial(self, ns):
        # one block of the figure sweep's setting over sizes 1..10: the
        # multinomial's (4096, 2, 11) first-connection counts are 0.69 MiB,
        # and the lattice index beside them is one (10, 4096) array built a
        # layer at a time, with no (4096, 10, 2) counts and no index copy
        args = (two_class_params(ns, 10), BlockModel.bernoulli(0.5), AgentSubset.prefix(10))
        args += (range(1, 11), BLOCK_SIZE, 5)
        estimate(*args)  # warm caches outside the trace
        tracemalloc.start()
        try:
            estimate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.10 * 2**20, f"peak {peak / 2**20:.3f} MiB"

    @pytest.mark.parametrize(
        "model", [BlockModel.bernoulli(0.5), SBM_3X3], ids=["bernoulli", "sbm-3x3"]
    )
    def test_thread_count_never_changes_result(self, model):
        # a lattice of BLOCK_SIZE points, several groups, a ragged block
        args = (lattice_params((63, 63)), model, AgentSubset.prefix(7), [1, 3, 7])
        args += (5 * BLOCK_SIZE + 17, 12)
        results = [estimate(*args, threads=threads) for threads in (1, 2, 3)]
        assert results[0] == results[1] == results[2]


class TestEstimateTail:
    def test_all_ruinous_premiums_never_below_one(self):
        # with every object ruinous and edges certain, the ratio is always > 1
        p = RiskParams(lam=1.0, c=[0.95, 0.95], mu=[1.0, 1.0], u=[1.0])
        est = estimate(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), [1], 2000, 0)
        est = est.estimates[0].tail
        assert est.mean == 0.0

    def test_disconnection_counts_toward_event(self):
        # ratio 0 on disconnection, which lies below 1
        p = RiskParams(lam=1.0, c=[0.95, 0.95], mu=[1.0, 1.0], u=[1.0])
        est = estimate(p, BlockModel.bernoulli(0.5), AgentSubset.prefix(1), [1], 100_000, 1)
        est = est.estimates[0].tail
        assert est.mean == pytest.approx(0.25, abs=4 * est.stderr + 1e-12)

    def test_binomial_stderr(self):
        p = two_class_params(5, 10)
        est = estimate(p, BlockModel.bernoulli(0.5), AgentSubset.prefix(3), [3], 10_000, 2)
        est = est.estimates[0].tail
        assert est.stderr == pytest.approx(
            math.sqrt(est.mean * (1 - est.mean) / est.replicates)
        )

    def test_zero_reserve_allowed(self):
        p = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[0.0])
        est = estimate(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), [1], 100, 0)
        est = est.estimates[0].tail
        assert est.mean == 1.0


class TestEstimateWithCI:
    def test_rejects_negative_stderr(self):
        with pytest.raises(ValueError):
            EstimateWithCI(mean=0.5, stderr=-0.1, replicates=10)
