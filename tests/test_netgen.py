"""Tests for blockmodel sampling, group indicators, and connection probabilities."""

import itertools

import numpy as np
import pytest

from netgen_reference import (
    connect_given_counts_reduced,
    connect_prob,
    connect_prob_enumerated,
    group_indicators,
    one_group_counts,
    sample_group_indicators,
)
from ruinnet.model import AgentSubset
from ruinnet.netgen import (
    BlockModel,
    connect_given_counts,
    sample_configurations,
    sample_incidence,
    sample_prefix_counts,
)
from ruinnet.streams import stream


def group_counts(model, size_q, class_sizes, rng, replicates):
    """One group's connected counts per class: the one-group case of
    :func:`sample_prefix_counts`, shape ``(replicates, len(class_sizes))``."""
    return sample_prefix_counts(model, [size_q], class_sizes, rng, replicates)[:, 0]


def random_model(rng, K=None, L=None):
    K = K or int(rng.integers(1, 4))
    L = L or int(rng.integers(1, 4))
    return BlockModel(
        w=rng.dirichlet(np.ones(K)),
        v=rng.dirichlet(np.ones(L)),
        p=rng.uniform(0.0, 1.0, size=(K, L)),
    )


class TestBlockModel:
    def test_bernoulli_factory(self):
        m = BlockModel.bernoulli(0.3)
        assert m.is_bernoulli and m.K == 1 and m.L == 1
        assert m.p[0, 0] == 0.3

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            BlockModel(w=[0.5, 0.4], v=[1.0], p=[[0.5], [0.5]])
        with pytest.raises(ValueError):
            BlockModel(w=[1.0], v=[1.0], p=[[1.5]])
        with pytest.raises(ValueError):
            BlockModel(w=[0.5, 0.5], v=[1.0], p=[[0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="w must be finite"):
            BlockModel(w=[bad, 1.0], v=[1.0], p=[[0.5], [0.5]])
        with pytest.raises(ValueError, match="v must be finite"):
            BlockModel(w=[1.0], v=[1.0, bad], p=[[0.5, 0.5]])
        with pytest.raises(ValueError, match="edge probabilities"):
            BlockModel(w=[0.5, 0.5], v=[1.0], p=[[0.5], [bad]])
        with pytest.raises(ValueError, match="edge probabilities"):
            BlockModel.bernoulli(bad)


class TestSampleTypes:
    # types show through edges that are certain for one type and impossible for the other
    def test_degenerate_single_type(self):
        # one agent and one object type: the stream holds the edge uniforms only
        m = BlockModel.bernoulli(0.5)
        stack = sample_incidence(m, 5, 7, stream(0, 1), 3)
        np.testing.assert_array_equal(stack, stream(0, 1).random((3, 5, 7)) < 0.5)

    def test_point_mass(self):
        m = BlockModel(w=[1.0, 0.0], v=[1.0], p=[[1.0], [0.0]])
        assert sample_incidence(m, 50, 3, stream(0, 2), 1).all()

    def test_binomial_concentration(self):
        m = BlockModel(w=[0.5, 0.5], v=[1.0], p=[[1.0], [0.0]])
        frac = sample_incidence(m, 100_000, 1, stream(7, 3), 1).mean()
        assert abs(frac - 0.5) < 0.01


class TestSampleGraph:
    def test_empty_and_complete(self):
        empty = sample_incidence(BlockModel.bernoulli(0.0), 4, 5, stream(1, 1), 1)
        full = sample_incidence(BlockModel.bernoulli(1.0), 4, 5, stream(1, 2), 1)
        assert not empty.any()
        assert full.all()

    def test_edge_count_concentration(self):
        m = BlockModel.bernoulli(0.5)
        graph = sample_incidence(m, 100, 100, stream(2, 1), 1)
        assert abs(int(graph.sum()) - 5000) < 300  # 6 sigma

    def test_bit_identical_for_same_stream(self):
        m = random_model(np.random.default_rng(5))
        g1 = sample_incidence(m, 30, 40, stream(3, 1), 1)
        g2 = sample_incidence(m, 30, 40, stream(3, 1), 1)
        np.testing.assert_array_equal(g1, g2)
        g3 = sample_incidence(m, 30, 40, stream(3, 2), 1)
        assert (g1 != g3).any()


class TestSampleIncidence:
    def test_reads_agent_types_then_object_types_then_edges(self):
        rng = np.random.default_rng(8)
        for case in range(20):
            m = random_model(rng)
            q, d, n = (int(x) for x in rng.integers(1, 6, size=3))
            a = stream(case, 4)
            s = a.choice(m.K, size=(n, q), p=m.w) if m.K > 1 else np.zeros((n, q), int)
            t = a.choice(m.L, size=(n, d), p=m.v) if m.L > 1 else np.zeros((n, d), int)
            want = a.random((n, q, d)) < m.p[s[:, :, None], t[:, None, :]]
            np.testing.assert_array_equal(sample_incidence(m, q, d, stream(case, 4), n), want)

    def test_networks_are_independent_draws(self):
        # every network's edges at rate p, and the networks differ
        stack = sample_incidence(BlockModel.bernoulli(0.3), 4, 5, stream(6, 0), 2000)
        assert stack.shape == (2000, 4, 5)
        assert abs(stack.mean() - 0.3) < 6 * (0.3 * 0.7 / stack.size) ** 0.5
        assert (stack[0] != stack[1:]).any(axis=(1, 2)).mean() > 0.9


class TestGroupIndicators:
    def test_empty_graph(self):
        g = np.zeros((3, 4), dtype=bool)
        assert not group_indicators(g, AgentSubset.prefix(2)).any()

    def test_single_agent_row(self):
        g = np.array([[1, 0, 1], [1, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(
            group_indicators(g, AgentSubset((1,))), [True, False, True]
        )

    def test_max_over_group(self):
        g = np.array([[1, 0], [0, 1]], dtype=bool)
        np.testing.assert_array_equal(
            group_indicators(g, AgentSubset.prefix(2)), [True, True]
        )


class TestConnectProb:
    def test_bernoulli_pair(self):
        assert connect_prob(BlockModel.bernoulli(0.5), 2) == pytest.approx(0.75)

    def test_single_agent_marginal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_model(rng)
            expected = float((m.p * m.w[:, None] * m.v[None, :]).sum())
            assert connect_prob(m, 1) == pytest.approx(expected, abs=1e-12)

    def test_table_scale_value(self):
        d = 100_000
        m = BlockModel.bernoulli(d**-0.5)
        assert connect_prob(m, 100) == pytest.approx(0.27148, abs=1e-5)

    def test_matches_enumerated_display(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = random_model(rng, K=int(rng.integers(1, 4)), L=int(rng.integers(1, 4)))
            size_q = int(rng.integers(1, 6))
            assert connect_prob(m, size_q) == pytest.approx(
                connect_prob_enumerated(m, size_q), abs=1e-12
            )

    def test_monotone_in_group_size_and_p(self):
        rng = np.random.default_rng(23)
        m = random_model(rng)
        probs = [connect_prob(m, k) for k in range(1, 8)]
        assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))
        base = BlockModel.bernoulli(0.3)
        bigger = BlockModel.bernoulli(0.4)
        assert connect_prob(base, 3) <= connect_prob(bigger, 3)

    def test_empirical_frequency(self):
        # indicator frequency over replicate graphs matches the closed form
        rng_master = np.random.default_rng(29)
        m = random_model(rng_master, K=2, L=2)
        group = AgentSubset.prefix(2)
        R = 10_000
        hits = 0
        for r in range(R):
            graph = sample_incidence(m, 3, 1, stream(77, 4, r), 1)[0]
            hits += int(group_indicators(graph, group)[0])
        p = connect_prob(m, 2)
        assert abs(hits / R - p) < 4 * np.sqrt(p * (1 - p) / R)


class TestConnectGivenCounts:
    def test_matches_the_reduce_bit_for_bit(self):
        # K from 1 to 6 and L from 1 to 4, edge probabilities of exactly 0
        # and 1 among the others, and zero counts in every shape
        rng = np.random.default_rng(41)
        for K, L in itertools.product(range(1, 7), range(1, 5)):
            for _ in range(4):
                p = rng.uniform(0.0, 1.0, (K, L))
                p[rng.random((K, L)) < 0.2] = 0.0
                p[rng.random((K, L)) < 0.2] = 1.0
                model = BlockModel(w=rng.dirichlet(np.ones(K)), v=rng.dirichlet(np.ones(L)), p=p)
                n, J = int(rng.integers(1, 50)), int(rng.integers(1, 5))
                for shape in ((K,), (n, K), (n, J, K)):
                    m = rng.integers(0, 12, shape)
                    m[rng.random(shape) < 0.3] = 0
                    got = connect_given_counts(model, m)
                    want = connect_given_counts_reduced(model, m)
                    assert got.shape == want.shape == shape[:-1] + (L,)
                    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
                    zeros = np.zeros(shape, dtype=np.int64)
                    np.testing.assert_array_equal(connect_given_counts(model, zeros), 0.0)


def exact_count_pmf(model, size_q, class_sizes):
    """Joint pmf of the per-class connected counts, by brute force over
    agent types, object types and indicator outcomes."""
    cls = np.repeat(np.arange(len(class_sizes)), class_sizes)
    d = cls.size
    pmf = {}
    for s in itertools.product(range(model.K), repeat=size_q):
        w_s = float(np.prod(model.w[list(s)]))
        for t in itertools.product(range(model.L), repeat=d):
            w_t = float(np.prod(model.v[list(t)]))
            if w_s * w_t == 0.0:
                continue
            pc = [1.0 - float(np.prod(1.0 - model.p[list(s), l])) for l in t]
            for bits in itertools.product((0, 1), repeat=d):
                w_b = float(np.prod([pc[j] if b else 1.0 - pc[j] for j, b in enumerate(bits)]))
                key = tuple(np.bincount(cls, weights=bits, minlength=len(class_sizes)).astype(int))
                pmf[key] = pmf.get(key, 0.0) + w_s * w_t * w_b
    return pmf


def assert_matches_pmf(counts, pmf):
    """Every cell's empirical frequency lies within 5 sigma of the pmf."""
    R = counts.shape[0]
    seen = {tuple(row) for row in counts.tolist()}
    assert seen <= {k for k, v in pmf.items() if v > 0.0}
    for key, prob in pmf.items():
        freq = float((counts == np.asarray(key)).all(axis=1).mean())
        assert abs(freq - prob) < 5 * np.sqrt(prob * (1 - prob) / R) + 1e-9, (key, freq, prob)


KERNEL_CASES = {
    "sbm": BlockModel(w=[0.6, 0.4], v=[0.3, 0.7], p=[[0.2, 0.7], [0.5, 0.1]]),
    "p_zero_and_one": BlockModel(w=[0.5, 0.5], v=[0.5, 0.5], p=[[1.0, 0.0], [0.0, 1.0]]),
    "zero_w_entry": BlockModel(w=[0.0, 1.0], v=[0.4, 0.6], p=[[1.0, 1.0], [0.3, 0.6]]),
    "zero_v_entry": BlockModel(w=[0.3, 0.7], v=[0.0, 1.0], p=[[0.9, 0.2], [0.9, 0.5]]),
    "agent_types_only": BlockModel(w=[0.3, 0.7], v=[1.0], p=[[0.8], [0.1]]),
    "object_types_only": BlockModel(w=[1.0], v=[0.3, 0.7], p=[[0.8, 0.1]]),
}


class TestCollapsedKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    @pytest.mark.parametrize("size_q", [1, 3])
    def test_counts_match_exact_pmf(self, name, size_q):
        # groups of one agent and of all q = 3 agents, four objects in two classes
        model = KERNEL_CASES[name]
        sizes = np.array([1, 3])
        counts = group_counts(model, size_q, sizes, stream(41, size_q), 20_000)
        assert counts.shape == (20_000, 2)
        assert_matches_pmf(counts, exact_count_pmf(model, size_q, sizes))

    def test_bernoulli_is_one_binomial_draw(self):
        rng = np.random.default_rng(3)
        for i in range(50):
            p = float(rng.choice([0.0, 1.0, rng.uniform(), rng.uniform() ** 8]))
            m = BlockModel.bernoulli(p)
            size_q = int(rng.integers(1, 200))
            sizes = rng.integers(0, 10_000, int(rng.integers(1, 5)))
            n = int(rng.integers(1, 3000))
            got = group_counts(m, size_q, sizes, stream(i, 8), n)
            want = stream(i, 8).binomial(sizes, connect_prob(m, size_q), size=(n, sizes.size))
            np.testing.assert_array_equal(got, want)

    def test_draws_only_the_needed_types(self):
        sizes = np.array([2, 5])
        connect, counts = sample_configurations(
            BlockModel.bernoulli(0.3), [4], sizes, stream(0, 9), 100
        )
        assert connect.shape == (1, 1, 1) and counts.shape == (1, 2, 1)
        connect, counts = sample_configurations(
            KERNEL_CASES["sbm"], [4], sizes, stream(0, 9), 100
        )
        assert connect.shape == (100, 1, 2) and counts.shape == (100, 2, 2)
        np.testing.assert_array_equal(counts.sum(axis=2), np.broadcast_to(sizes, (100, 2)))

    def test_certain_and_impossible_edges(self):
        sizes = np.array([4, 6])
        full = BlockModel(w=[0.5, 0.5], v=[0.2, 0.8], p=np.ones((2, 2)))
        empty = BlockModel(w=[0.5, 0.5], v=[0.2, 0.8], p=np.zeros((2, 2)))
        np.testing.assert_array_equal(
            group_counts(full, 3, sizes, stream(2, 0), 500), np.tile(sizes, (500, 1))
        )
        assert not group_counts(empty, 3, sizes, stream(2, 1), 500).any()

    def test_type_probabilities_summing_above_one_by_rounding(self):
        # v passes validation within 1e-12 of 1, so sum_l v_l * 1 exceeds 1
        model = BlockModel(w=[0.5, 0.5], v=[0.5, 0.5 + 1e-13], p=np.ones((2, 2)))
        sizes = np.array([3, 4])
        counts = group_counts(model, 2, sizes, stream(2, 2), 100)
        np.testing.assert_array_equal(counts, np.tile(sizes, (100, 1)))

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_draws_agent_counts_then_one_binomial(self, name):
        # the stream holds the agent-type counts (when K > 1) and one
        # binomial per class, and no object type
        model = KERNEL_CASES[name]
        sizes = np.array([5, 0, 7])
        got = group_counts(model, 3, sizes, stream(4, 1), 300)
        np.testing.assert_array_equal(got, one_group_counts(model, 3, sizes, stream(4, 1), 300))


class TestFastPaths:
    def test_requires_one_type_model(self):
        m = BlockModel(w=[0.5, 0.5], v=[1.0], p=[[0.2], [0.8]])
        with pytest.raises(ValueError):
            sample_group_indicators(m, 2, 5, stream(0, 0))

    def test_indicator_probability(self):
        m = BlockModel.bernoulli(0.5)
        ind = sample_group_indicators(m, 3, 200_000, stream(5, 0))
        pc = 1 - 0.5**3
        assert abs(ind.mean() - pc) < 4 * np.sqrt(pc * (1 - pc) / ind.size)

    def test_counts_match_graph_distribution(self):
        # collapsed binomial counts agree with the full graph pipeline
        m = BlockModel.bernoulli(0.4)
        group = AgentSubset.prefix(2)
        d, R = 6, 4000
        pc = connect_prob(m, 2)
        counts_fast = group_counts(m, 2, np.array([d]), stream(9, 0), R)[:, 0]
        counts_graph = np.empty(R, dtype=int)
        for r in range(R):
            graph = sample_incidence(m, 2, d, stream(9, 1, r), 1)[0]
            counts_graph[r] = group_indicators(graph, group).sum()
        # both empirical pmfs must match Binomial(d, pc) bin by bin
        from math import comb

        for k in range(d + 1):
            pmf = comb(d, k) * pc**k * (1 - pc) ** (d - k)
            tol = 5 * np.sqrt(pmf * (1 - pmf) / R) + 1e-9
            assert abs((counts_fast == k).mean() - pmf) < tol
            assert abs((counts_graph == k).mean() - pmf) < tol

    def test_sbm_counts_match_graph_distribution(self):
        # on a blockmodel the collapsed counts and the full graph pipeline
        # both follow the exact per-class count law
        m = BlockModel(w=[0.6, 0.4], v=[0.3, 0.7], p=[[0.2, 0.7], [0.5, 0.1]])
        group = AgentSubset((2, 3))
        sizes = np.array([1, 3])
        R = 4000
        counts_fast = group_counts(m, 2, sizes, stream(10, 0), R)
        counts_graph = np.empty((R, 2), dtype=int)
        for r in range(R):
            ind = group_indicators(sample_incidence(m, 3, 4, stream(10, 1, r), 1)[0], group)
            counts_graph[r] = ind[:1].sum(), ind[1:].sum()
        pmf = exact_count_pmf(m, 2, sizes)
        assert_matches_pmf(counts_fast, pmf)
        assert_matches_pmf(counts_graph, pmf)


class TestPrefixCounts:
    """The nested draw of every prefix group's connected counts."""

    def test_counts_rise_with_the_group_and_stay_within_the_class(self):
        rng = np.random.default_rng(12)
        sizes = np.array([0, 3, 7])
        for i in range(30):
            model = random_model(rng)
            got = sample_prefix_counts(model, [1, 2, 5, 6], sizes, stream(i, 3), 500)
            assert got.shape == (500, 4, 3) and got.dtype == np.int64
            assert got.flags.c_contiguous
            assert (got[:, 0] >= 0).all() and (np.diff(got, axis=1) >= 0).all()
            assert (got <= sizes).all()

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_each_group_matches_exact_pmf(self, name):
        model = KERNEL_CASES[name]
        sizes = np.array([1, 3])
        counts = sample_prefix_counts(model, [1, 3], sizes, stream(43, 1), 20_000)
        for j, size_q in enumerate([1, 3]):
            assert_matches_pmf(counts[:, j], exact_count_pmf(model, size_q, sizes))

    def test_one_group_is_one_binomial_draw(self):
        rng = np.random.default_rng(5)
        for i in range(50):
            model = random_model(rng)
            size_q = int(rng.integers(1, 30))
            sizes = rng.integers(0, 2_000, int(rng.integers(1, 4)))
            n = int(rng.integers(1, 3000))
            got = sample_prefix_counts(model, [size_q], sizes, stream(i, 6), n)
            want = one_group_counts(model, size_q, sizes, stream(i, 6), n)
            np.testing.assert_array_equal(got[:, 0], want)

    def test_certain_impossible_and_rounded_edges(self):
        sizes = np.array([4, 6])
        full = BlockModel(w=[0.5, 0.5], v=[0.2, 0.8], p=np.ones((2, 2)))
        empty = BlockModel(w=[0.5, 0.5], v=[0.2, 0.8], p=np.zeros((2, 2)))
        # v passes validation within 1e-12 of 1, so sum_l v_l * 1 exceeds 1
        rounded = BlockModel(w=[0.5, 0.5], v=[0.5, 0.5 + 1e-13], p=np.ones((2, 2)))
        for model in (full, rounded):
            got = sample_prefix_counts(model, [1, 3], sizes, stream(2, 0), 500)
            np.testing.assert_array_equal(got, np.broadcast_to(sizes, (500, 2, 2)))
        assert not sample_prefix_counts(empty, [1, 3], sizes, stream(2, 1), 500).any()

    @pytest.mark.parametrize("group_sizes", [[], [0], [2, 2], [3, 1]])
    def test_rejects_sizes_that_do_not_increase(self, group_sizes):
        with pytest.raises(ValueError, match="increasing"):
            sample_prefix_counts(KERNEL_CASES["sbm"], group_sizes, [3], stream(0, 0), 10)


class TestPrefixConfigurations:
    def test_groups_share_their_first_agents_and_the_objects(self):
        # layer type counts drawn in order, then one object draw per class
        model = KERNEL_CASES["sbm"]
        sizes = np.array([2, 5])
        connect, counts = sample_configurations(model, [1, 3, 4], sizes, stream(3, 3), 200)
        rng = stream(3, 3)
        layers = rng.multinomial([1, 2, 1], model.w, size=(200, 3))
        want = connect_given_counts(model, np.cumsum(layers, axis=1))
        np.testing.assert_array_equal(connect, want)
        np.testing.assert_array_equal(counts, rng.multinomial(sizes, model.v, size=(200, 2)))

    def test_one_group_draws_the_bits_of_one_multinomial(self):
        model = KERNEL_CASES["sbm"]
        connect, _ = sample_configurations(model, [4], np.array([3]), stream(3, 4), 300)
        m = stream(3, 4).multinomial(4, model.w, size=300)
        np.testing.assert_array_equal(connect[:, 0], connect_given_counts(model, m))
