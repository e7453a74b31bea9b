"""Tests for the mixture-normal approximation, its error bound, and the
phase classifier."""

import itertools
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from approx_reference import (
    MixtureStats,
    exact_by_loop,
    mixture_stats,
    p_of_config,
    sampled_one_group,
)
from exact_reference import exact_law
from model_reference import compute_loadings
from ruin_reference import pk_value
from ruinnet import approx
from ruinnet.approx import (
    INDETERMINATE,
    TAIL_TO_ONE,
    TAIL_TO_ZERO,
    _stats_from_counts,
    mixture_prefixes,
    mixture_probability,
    normal_positive_prob,
    phase_classify,
)
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel, connect_given_counts
from ruinnet.streams import BLOCK_SIZE


def random_sbm(rng):
    """Random small blockmodel; about a fifth of the edge probabilities are 0 or 1."""
    K, L = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    p = rng.uniform(0.0, 1.0, size=(K, L))
    p = np.where(rng.random((K, L)) < 0.2, rng.integers(0, 2, size=(K, L)), p)
    return BlockModel(w=rng.dirichlet(np.ones(K)), v=rng.dirichlet(np.ones(L)), p=p)


def table_params(ns, d=100_000, size_q=100):
    c = np.full(d, 1.05)
    c[:ns] = 0.95
    params = RiskParams(lam=1.0, c=c, mu=np.ones(d), u=np.ones(size_q))
    model = BlockModel.bernoulli(d**-0.5)
    return params, model, AgentSubset.prefix(size_q)


class TestPOfConfig:
    def test_zero_edge_probability(self):
        m = BlockModel(w=[0.5, 0.5], v=[1.0], p=[[0.0], [0.0]])
        assert p_of_config(m, [0, 1, 0], 0) == 0.0

    def test_table_scale(self):
        m = BlockModel.bernoulli(100_000**-0.5)
        assert p_of_config(m, [0] * 100, 0) == pytest.approx(0.27148, abs=1e-5)

    def test_single_agent(self):
        m = BlockModel(w=[0.5, 0.5], v=[0.5, 0.5], p=[[0.2, 0.3], [0.4, 0.5]])
        assert p_of_config(m, [1], 1) == pytest.approx(0.5)

    def test_matches_connect_given_counts(self):
        # the per-agent reference against the count form that the sampler,
        # exact mode and sampled mode use, one batched call per model
        rng = np.random.default_rng(43)
        for _ in range(40):
            model = random_sbm(rng)
            groups = [rng.integers(0, model.K, int(rng.integers(1, 7))) for _ in range(5)]
            counts = np.stack([np.bincount(s, minlength=model.K) for s in groups])
            got = connect_given_counts(model, counts)
            for s, row in zip(groups, got):
                want = [p_of_config(model, s, t) for t in range(model.L)]
                np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-15)


class TestMixtureStats:
    def test_balanced_table_row(self):
        params, model, group = table_params(50_000)
        stats = mixture_stats(
            params, compute_loadings(params), model, [0] * 100, np.zeros(100_000, dtype=int)
        )
        # per-object summation leaves ~1e-13 of rounding; the collapsed
        # closed form cancels exactly (see TestMixtureProbability)
        assert stats.mean == pytest.approx(0.0, abs=1e-9)
        assert stats.variance == pytest.approx(49.447, abs=0.01)
        assert 9.4 * stats.third_sum == pytest.approx(0.0404, abs=5e-4)

    def test_tilted_table_row(self):
        params, model, group = table_params(49_500)
        stats = mixture_stats(
            params, compute_loadings(params), model, [0] * 100, np.zeros(100_000, dtype=int)
        )
        assert stats.mean == pytest.approx(13.574, abs=0.01)

    def test_degenerate_flag(self):
        params = RiskParams(lam=1.0, c=[1.0], mu=[1.0], u=[1.0])
        model = BlockModel.bernoulli(0.5)
        stats = mixture_stats(params, compute_loadings(params), model, [0], [0])
        assert stats.degenerate and stats.variance == 0.0 and stats.third_sum == 0.0

    def test_third_sum_identity(self):
        # third_sum * sigma^3 equals the raw absolute third-moment sum
        params = RiskParams(lam=1.0, c=[0.9, 1.2, 1.1], mu=[1.0, 0.8, 1.3], u=[1.0])
        model = BlockModel(w=[0.5, 0.5], v=[1.0], p=[[0.3], [0.7]])
        loadings = compute_loadings(params)
        stats = mixture_stats(params, loadings, model, [0, 1], [0, 0, 0])
        pc = 1 - (1 - 0.3) * (1 - 0.7)
        xm = loadings.xi - 1
        raw = float(
            (np.abs(xm) ** 3 * (pc * (1 - pc) ** 3 + (1 - pc) * pc**3)).sum()
        )
        assert stats.third_sum * stats.variance**1.5 == pytest.approx(raw, rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MixtureStats(mean=0.0, variance=1.0, third_sum=0.1, weight=1.5)

    def test_matches_collapsed_counts(self):
        # the per-object reference against the per-(class, object type)
        # statistics that exact and sampled mode compute
        rng = np.random.default_rng(37)
        for _ in range(40):
            model = random_sbm(rng)
            d = int(rng.integers(1, 9))
            c, mu = rng.choice([0.9, 1.1, 1.3], d), rng.choice([0.5, 1.0], d)
            params = RiskParams(lam=float(rng.uniform(0.5, 2.0)), c=c, mu=mu, u=[1.0])
            s = rng.integers(0, model.K, int(rng.integers(1, 5)))
            t = rng.integers(0, model.L, d)
            ref = mixture_stats(params, compute_loadings(params), model, s, t)
            ratio = params.class_ratio
            cls = np.searchsorted(ratio, params.c / params.mu)
            counts = np.zeros((ratio.size, model.L))
            np.add.at(counts, (cls, t), 1)
            connect = connect_given_counts(model, np.bincount(s, minlength=model.K))
            mean, var, raw3, connected = _stats_from_counts(ratio / params.lam, counts, connect)
            assert mean == pytest.approx(ref.mean, rel=1e-9, abs=1e-12)
            assert var == pytest.approx(ref.variance, rel=1e-9, abs=1e-15)
            assert ref.degenerate == (var == 0.0)
            pc = [p_of_config(model, s, tj) for tj in t]
            assert connected == pytest.approx(sum(pc), rel=1e-9)
            assert (connected == 0.0) == (max(pc) == 0.0)
            if not ref.degenerate:
                assert raw3 / var**1.5 == pytest.approx(ref.third_sum, rel=1e-9)


class TestNormalPositiveProb:
    def test_symmetry_at_zero(self):
        assert normal_positive_prob(0.0, 1.0) == 0.5

    def test_table_values(self):
        assert normal_positive_prob(13.574, 49.447) == pytest.approx(0.9732, abs=5e-4)
        assert normal_positive_prob(-13.574, 49.447) == pytest.approx(0.0268, abs=5e-4)

    def test_point_mass(self):
        assert normal_positive_prob(0.5, 0.0) == 1.0
        assert normal_positive_prob(-0.5, 0.0) == 0.0
        assert normal_positive_prob(0.0, 0.0) == 0.0

    @given(m=st.floats(-20, 20), v=st.floats(1e-6, 100.0))
    def test_complement_identity(self, m, v):
        total = normal_positive_prob(m, v) + normal_positive_prob(-m, v)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_elementwise_bits_match_scalar_formula(self):
        # numpy's division and square root are correctly rounded, so each
        # element has the bits of the scalar formula
        rng = np.random.default_rng(11)
        mean = rng.normal(0.0, 1.0, 2000) * 10.0 ** rng.uniform(-3, 3, 2000)
        var = 10.0 ** rng.uniform(-6, 6, 2000)
        # |z| above 30: erfc is 0 or 2 in double precision
        far = rng.uniform(1.0, 100.0, 200)
        mean = np.r_[mean, 31.0 * np.sqrt(2.0 * far), -31.0 * np.sqrt(2.0 * far)]
        var = np.r_[var, far, far]
        got = normal_positive_prob(mean, var)
        want = [0.5 * math.erfc(-m / math.sqrt(2.0 * v)) for m, v in zip(mean, var)]
        assert got.tolist() == want
        assert set(got[-400:].tolist()) == {0.0, 1.0}

    def test_elementwise_point_masses_and_shapes(self):
        mean, var = np.array([[0.5, -0.5], [0.0, 2.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])
        got = normal_positive_prob(mean, var)
        assert got.shape == (2, 2)
        assert got.tolist() == [[1.0, 0.0], [0.0, 0.5 * math.erfc(-2.0 / math.sqrt(2.0))]]
        scalar = normal_positive_prob(0.3, 2.0)
        assert type(scalar) is float
        assert scalar == 0.5 * math.erfc(-0.3 / math.sqrt(4.0))
        with pytest.raises(ValueError, match="nonnegative"):
            normal_positive_prob(np.zeros(3), np.array([1.0, -1.0, 1.0]))

    def test_high_accuracy_reference(self):
        # spot values from the complementary error function at full precision
        assert normal_positive_prob(1.0, 1.0) == pytest.approx(
            0.8413447460685429, abs=1e-13
        )
        assert normal_positive_prob(-3.0, 1.0) == pytest.approx(
            0.0013498980316300933, abs=1e-13
        )


class TestMixtureProbability:
    def test_table_row_49900(self):
        params, model, group = table_params(49_900)
        res = mixture_probability(params, model, group, mode="exact")
        assert res.probability == pytest.approx(0.650, abs=1e-3)
        assert res.stein_bound == pytest.approx(0.040, abs=1e-3)

    def test_table_row_50000_exact_half(self):
        params, model, group = table_params(50_000)
        res = mixture_probability(params, model, group, mode="exact")
        assert res.probability == 0.5

    def test_exact_agrees_with_closed_form(self):
        # a one-type model has one configuration: the paper's closed form,
        # summed here over the two premium classes
        for ns in (49_000, 49_900, 50_500):
            params, model, group = table_params(ns)
            ex = mixture_probability(params, model, group, mode="exact")
            assert ex.mode == "exact" and ex.config_count == 1
            pc = p_of_config(model, [0] * group.size, 0)
            xm = np.array([0.95, 1.05]) - 1.0
            n = np.array([ns, params.d - ns])
            var = (xm * xm * n * pc * (1 - pc)).sum()
            raw3 = (np.abs(xm) ** 3 * n * (pc * (1 - pc) ** 3 + (1 - pc) * pc**3)).sum()
            cf = normal_positive_prob((xm * n * pc).sum(), var)
            assert abs(cf - ex.probability) <= 1e-12
            assert abs(9.4 * raw3 / var**1.5 - ex.stein_bound) <= 1e-12

    def test_auto_is_exact_under_the_term_cap_and_sampled_above(self):
        # a one-type model always has a single term
        table = table_params(49_900)
        assert mixture_probability(*table, mode="auto") == mixture_probability(*table, mode="exact")
        group = AgentSubset.prefix(2)
        small = RiskParams(lam=1.0, c=[0.95, 1.05, 1.05, 0.95, 1.05], mu=np.ones(5), u=np.ones(3))
        model = BlockModel(w=[0.6, 0.4], v=[0.3, 0.7], p=[[0.3, 0.5], [0.8, 0.2]])
        auto = mixture_probability(small, model, group, mode="auto")
        assert auto.mode == "exact"
        assert auto == mixture_probability(small, model, group, mode="exact")
        # 40 distinct loadings with L = 2: 3 * 2^40 collapsed terms
        c = np.random.default_rng(0).uniform(0.8, 1.2, 40)
        large = RiskParams(lam=1.0, c=c, mu=np.ones(40), u=np.ones(2))
        kwargs = dict(m_configs=500, base_seed=3)
        auto = mixture_probability(large, model, group, mode="auto", **kwargs)
        assert auto.mode == "sampled"
        assert auto == mixture_probability(large, model, group, mode="sampled", **kwargs)

    def test_sampled_agrees_with_exact(self):
        params = RiskParams(
            lam=1.0, c=[0.95, 1.05, 1.05, 0.95, 1.05], mu=np.ones(5), u=np.ones(3)
        )
        group = AgentSubset.prefix(2)
        for model in (
            BlockModel(w=[0.6, 0.4], v=[1.0], p=[[0.3], [0.8]]),
            BlockModel(w=[0.6, 0.4], v=[0.3, 0.7], p=[[0.3, 0.5], [0.8, 0.2]]),
        ):
            ex = mixture_probability(params, model, group, mode="exact")
            sa = mixture_probability(
                params, model, group, mode="sampled", m_configs=100_000, base_seed=4
            )
            assert abs(sa.probability - ex.probability) < 3 * sa.sampling_stderr
            assert sa.stein_bound == pytest.approx(ex.stein_bound, rel=0.05)

    def test_sampled_thread_count_never_changes_result(self):
        params = RiskParams(
            lam=1.0, c=[0.95, 1.05, 1.05, 0.95, 1.05], mu=np.ones(5), u=np.ones(3)
        )
        model = BlockModel(w=[0.6, 0.4], v=[0.3, 0.7], p=[[0.3, 0.5], [0.8, 0.2]])
        # two full blocks and a ragged one
        results = [
            mixture_probability(
                params, model, AgentSubset.prefix(2), mode="sampled",
                m_configs=2 * BLOCK_SIZE + 100, base_seed=6, threads=threads,
            )
            for threads in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].config_count == 2 * BLOCK_SIZE + 100

    def test_sampled_requires_enough_configs(self):
        params, model, group = table_params(50_000, d=100, size_q=3)
        with pytest.raises(ValueError, match="100"):
            mixture_probability(params, model, group, mode="sampled", m_configs=50)

    def test_exact_rejects_unenumerable(self):
        # many distinct loadings with L = 2 explode the collapsed term count
        rng = np.random.default_rng(0)
        d = 40
        params = RiskParams(lam=1.0, c=rng.uniform(0.8, 1.2, d), mu=np.ones(d), u=[1.0])
        model = BlockModel(w=[1.0], v=[0.5, 0.5], p=[[0.3, 0.6]])
        with pytest.raises(ValueError, match="sampled"):
            mixture_probability(params, model, AgentSubset.prefix(1), mode="exact")

    def test_object_relabelling_invariance(self):
        rng = np.random.default_rng(31)
        c = np.r_[np.full(3, 0.9), np.full(4, 1.1), np.full(2, 1.3)]
        model = BlockModel(w=[0.7, 0.3], v=[0.5, 0.5], p=[[0.2, 0.5], [0.6, 0.1]])
        group = AgentSubset.prefix(2)
        perm = rng.permutation(c.size)
        a = mixture_probability(
            RiskParams(lam=1.0, c=c, mu=np.ones(c.size), u=np.ones(2)),
            model, group, mode="exact",
        )
        b = mixture_probability(
            RiskParams(lam=1.0, c=c[perm], mu=np.ones(c.size), u=np.ones(2)),
            model, group, mode="exact",
        )
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert a.stein_bound == pytest.approx(b.stein_bound, abs=1e-12)

    def test_agent_relabelling_invariance(self):
        model = BlockModel(w=[0.7, 0.3], v=[1.0], p=[[0.2], [0.6]])
        params = RiskParams(lam=1.0, c=[0.9, 1.1, 1.2], mu=np.ones(3), u=np.ones(5))
        a = mixture_probability(params, model, AgentSubset((1, 2)), mode="exact")
        b = mixture_probability(params, model, AgentSubset((3, 5)), mode="exact")
        assert a == b

    def test_bound_rate_under_doubling(self):
        # Table-1 regime: doubling d shrinks the bound by 2^(-(1-beta)/2) +- 10%
        beta = 0.5
        bounds = []
        for d in (100_000, 200_000, 400_000):
            c = np.full(d, 1.05)
            c[: d // 2] = 0.95
            params = RiskParams(lam=1.0, c=c, mu=np.ones(d), u=np.ones(100))
            model = BlockModel.bernoulli(d**-beta)
            res = mixture_probability(params, model, AgentSubset.prefix(100), mode="exact")
            bounds.append(res.stein_bound)
        target = 2 ** (-(1 - beta) / 2)
        for a, b in zip(bounds, bounds[1:]):
            assert b / a == pytest.approx(target, rel=0.10)

    def test_bound_never_violated_small_instances(self):
        # exact tail by enumeration stays within the bound of the approximation
        rng = np.random.default_rng(7)
        for _ in range(15):
            q = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            K = int(rng.integers(1, 3))
            L = int(rng.integers(1, 3))
            model = BlockModel(
                w=rng.dirichlet(np.ones(K)),
                v=rng.dirichlet(np.ones(L)),
                p=rng.uniform(0.05, 0.95, size=(K, L)),
            )
            xi = rng.uniform(0.7, 1.4, d)
            xi[np.abs(xi - 1) < 0.02] = 1.1
            mu = rng.uniform(0.5, 2.0, d)
            params = RiskParams(lam=1.0, c=xi * mu, mu=mu, u=np.ones(q))
            group = AgentSubset.prefix(int(rng.integers(1, q + 1)))
            exact = exact_tail_by_enumeration(params, model, group)
            res = mixture_probability(params, model, group, mode="exact")
            assert abs(exact - res.probability) <= res.stein_bound + 1e-12


def exact_tail_by_enumeration(params, model, group):
    """Exact P(PK ratio < 1): sum over type tuples and indicator vectors.

    Given the types, the group-connection indicators are independent
    Bernoulli variables, so the graph marginalises exactly to the
    indicator level (verified against raw edge enumeration below).
    """
    n = group.size
    d = params.d
    total = 0.0
    for s in itertools.product(range(model.K), repeat=n):
        w_s = float(np.prod([model.w[k] for k in s]))
        if w_s == 0.0:
            continue
        for t in itertools.product(range(model.L), repeat=d):
            v_t = float(np.prod([model.v[l] for l in t]))
            if v_t == 0.0:
                continue
            pj = []
            for j in range(d):
                no_edge = 1.0
                for k in s:
                    no_edge *= 1.0 - model.p[k, t[j]]
                pj.append(1.0 - no_edge)
            for bits in itertools.product((0, 1), repeat=d):
                pr = w_s * v_t
                for j, b in enumerate(bits):
                    pr *= pj[j] if b else 1.0 - pj[j]
                if pr > 0.0 and pk_value(np.array(bits, dtype=bool), params) < 1.0:
                    total += pr
    return total


def exact_tail_by_edge_enumeration(params, model, group, q):
    """Exact tail by enumerating every edge pattern of the group rows."""
    n = group.size
    d = params.d
    total = 0.0
    for s in itertools.product(range(model.K), repeat=n):
        w_s = float(np.prod([model.w[k] for k in s]))
        for t in itertools.product(range(model.L), repeat=d):
            v_t = float(np.prod([model.v[l] for l in t]))
            for bits in itertools.product((0, 1), repeat=n * d):
                edges = np.array(bits).reshape(n, d)
                pr = w_s * v_t
                for i in range(n):
                    for j in range(d):
                        pe = model.p[s[i], t[j]]
                        pr *= pe if edges[i, j] else 1.0 - pe
                if pr > 0.0 and pk_value(edges.any(axis=0), params) < 1.0:
                    total += pr
    return total


def random_exact_instance(rng):
    """A random small blockmodel (``random_sbm``, with a zero type
    probability one time in four), a group of 1-4 agents and 1-4 loading
    classes over at most 8 objects."""
    model = random_sbm(rng)
    if rng.random() < 0.25 and model.K + model.L > 2:
        w, v = model.w.copy(), model.v.copy()
        probs = w if w.size > 1 else v
        probs[rng.integers(probs.size)] = 0.0
        probs /= probs.sum()
        model = BlockModel(w=w, v=v, p=model.p)
    q = int(rng.integers(1, 5))
    n_classes = int(rng.integers(1, 5))
    ratios = rng.choice([0.8, 0.9, 1.1, 1.25], n_classes, replace=False)
    d = int(rng.integers(n_classes, 9))
    labels = np.r_[np.arange(n_classes), rng.integers(0, n_classes, d - n_classes)]
    mu = rng.choice([0.5, 1.0, 2.0], d)
    lam = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 2.0))
    params = RiskParams(lam=lam, c=ratios[labels] * mu, mu=mu, u=np.ones(q))
    return params, model, AgentSubset.prefix(int(rng.integers(1, q + 1)))


class TestSampledPrefixes:
    """:func:`mixture_prefixes` in sampled mode: nested groups from one pass
    of configurations."""

    PARAMS = RiskParams(
        lam=1.0, c=[0.95, 1.05, 1.05, 0.95, 1.05, 0.95], mu=np.ones(6), u=np.ones(4)
    )
    MODEL = BlockModel(
        w=[0.5, 0.3, 0.2],
        v=[0.5, 0.3, 0.2],
        p=[[0.3, 0.05, 0.05], [0.05, 0.3, 0.05], [0.05, 0.05, 0.3]],
    )

    def test_agrees_with_exact_mode(self):
        # an enumerable 3x3 blockmodel: each group within 4 sampling errors
        coupled = mixture_prefixes(self.PARAMS, self.MODEL, [1, 2, 3, 4], "sampled", 50_000, 8)
        assert coupled.mode == "sampled" and coupled.config_count == 4 * 50_000
        for size, sa in zip([1, 2, 3, 4], coupled.results):
            ex = mixture_probability(self.PARAMS, self.MODEL, AgentSubset.prefix(size), "exact")
            assert abs(sa.probability - ex.probability) <= 4 * sa.sampling_stderr, size
            assert sa.stein_bound == pytest.approx(ex.stein_bound, rel=0.05)

    @pytest.mark.parametrize(
        "model",
        [
            MODEL,
            BlockModel(w=[0.6, 0.4], v=[1.0], p=[[0.3], [0.8]]),
            BlockModel(w=[1.0], v=[0.3, 0.7], p=[[0.3, 0.8]]),
            BlockModel.bernoulli(0.4),
        ],
        ids=["sbm", "agent_types_only", "object_types_only", "bernoulli"],
    )
    def test_one_group_keeps_the_single_group_bits(self, model):
        # two full blocks and a ragged one
        m_configs = 2 * BLOCK_SIZE + 77
        for size in (1, 3):
            want = sampled_one_group(self.PARAMS, model, size, m_configs, 5)
            for threads in (1, 2):
                got = mixture_probability(
                    self.PARAMS, model, AgentSubset.prefix(size), "sampled", m_configs, 5, threads
                )
                assert (
                    got.probability, got.stein_bound, got.sampling_stderr, got.degenerate_weight
                ) == want
                nested = mixture_prefixes(
                    self.PARAMS, model, [size], "sampled", m_configs, 5, threads
                )
                assert nested.results == (got,)

    def test_thread_count_never_changes_result(self):
        results = [
            mixture_prefixes(
                self.PARAMS, self.MODEL, [2, 3, 4], "sampled", 2 * BLOCK_SIZE + 5, 6, threads
            )
            for threads in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]


class TestMixturePrefixes:
    """One :func:`mixture_prefixes` call per sweep ns: each size in its own
    mode, exact sizes enumerated one by one, sampled sizes from one pass."""

    PARAMS = TestSampledPrefixes.PARAMS
    MODEL = TestSampledPrefixes.MODEL

    @pytest.mark.parametrize("mode", ["exact", "sampled", "auto"])
    @pytest.mark.parametrize(
        "model",
        [MODEL, BlockModel(w=[0.6, 0.4], v=[1.0], p=[[0.3], [0.8]]), BlockModel.bernoulli(0.4)],
        ids=["sbm", "agent_types_only", "bernoulli"],
    )
    def test_one_size_gives_mixture_probability_bits(self, model, mode):
        for size in (1, 4):
            for threads in (1, 2):
                one = mixture_probability(
                    self.PARAMS, model, AgentSubset.prefix(size), mode, 300, 9, threads
                )
                nested = mixture_prefixes(self.PARAMS, model, [size], mode, 300, 9, threads)
                assert nested.results == (one,)
                assert (nested.mode, nested.config_count) == (one.mode, one.config_count)

    def test_mixed_sizes(self, monkeypatch):
        # two classes of 3 objects on 3 object types: 100 object configurations
        # times 3, 6, 10, 15 agent compositions; a cap of 700 terms makes auto
        # pick exact mode for groups of 1 and 2 and sampled mode for 3 and 4
        monkeypatch.setattr(approx, "MAX_EXACT_TERMS", 700)
        m_configs = BLOCK_SIZE + 33
        runs = [
            mixture_prefixes(self.PARAMS, self.MODEL, [1, 2, 3, 4], "auto", m_configs, 4, threads)
            for threads in (1, 2)
        ]
        assert runs[0] == runs[1]
        mixed = runs[0]
        assert [r.mode for r in mixed.results] == ["exact", "exact", "sampled", "sampled"]
        for size, got in zip([1, 2], mixed.results):
            want = mixture_probability(self.PARAMS, self.MODEL, AgentSubset.prefix(size), "exact")
            assert got == want
        coupled = mixture_prefixes(self.PARAMS, self.MODEL, [3, 4], "sampled", m_configs, 4)
        assert mixed.results[2:] == coupled.results
        assert mixed.mode == "mixed"
        assert mixed.config_count == 300 + 600 + 2 * m_configs

    @pytest.mark.parametrize(
        "sizes, mode, match",
        [
            ([5], "exact", "exceeds agent count"),
            ([2, 5], "sampled", "exceeds agent count"),
            ([1, 2], "closed_form", "unknown mode"),
            ([3, 2], "sampled", "increas"),
            ([3, 2], "exact", "increas"),
            ([2, 2], "exact", "increas"),
            ([0, 1], "exact", "positive"),
            ([], "exact", "positive"),
            ([2, 2], "auto", "increas"),
            ([0, 1], "auto", "positive"),
            ([], "auto", "positive"),
        ],
    )
    def test_rejects_bad_sizes_and_modes(self, sizes, mode, match):
        with pytest.raises(ValueError, match=match):
            mixture_prefixes(self.PARAMS, self.MODEL, sizes, mode, 200)


class TestExactAgainstReferenceLoop:
    """Exact mode's array enumeration against the per-configuration loop of
    ``approx_reference``."""

    def test_matches_loop_on_random_blockmodels(self):
        rng = np.random.default_rng(2024)
        degenerate = zero_types = 0
        classes = set()
        for _ in range(30):
            params, model, group = random_exact_instance(rng)
            classes.add(params.class_ratio.size)
            ref = exact_by_loop(params, model, group)
            got = mixture_probability(params, model, group, mode="exact")
            assert got.config_count == ref.config_count
            assert got.probability == pytest.approx(ref.probability, rel=1e-12)
            assert got.stein_bound == pytest.approx(ref.stein_bound, rel=1e-12)
            assert got.degenerate_weight == pytest.approx(ref.degenerate_weight, rel=1e-12)
            degenerate += got.degenerate_weight > 0.0
            zero_types += bool((model.w == 0.0).any() or (model.v == 0.0).any())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                verdict = phase_classify(params, model, group, 0.5)
            assert verdict.limit_mean_sign == ref.mean_sign
        # the instances cover every class count, point masses and zero-weight
        # compositions
        assert classes == {1, 2, 3, 4}
        assert degenerate >= 3
        assert zero_types >= 3

    def test_one_object_type_keeps_the_loops_bits(self):
        # with one object type every count product is exact, so a
        # configuration has the loop's bits for any number of classes, and
        # the totals too: summed term by term in the loop's order
        rng = np.random.default_rng(5)
        model = BlockModel(w=[0.5, 0.3, 0.2], v=[1.0], p=[[0.3], [0.7], [0.05]])
        for d in (2, 9, 20):
            c = rng.uniform(0.8, 1.2, d)
            params = RiskParams(lam=1.0, c=c, mu=np.ones(d), u=np.ones(6))
            ref = exact_by_loop(params, model, AgentSubset.prefix(6))
            got = mixture_probability(params, model, AgentSubset.prefix(6), mode="exact")
            assert (got.probability, got.stein_bound, got.degenerate_weight) == (
                ref.probability,
                ref.stein_bound,
                ref.degenerate_weight,
            )

    def test_memory_stays_bounded_at_scale(self):
        # 6 agents and 30 objects in two classes of 15 on the 3x3 blockmodel
        # of the benchmark's sbm workload: 517 888 configurations
        script = """
import resource
import numpy as np
from ruinnet.approx import mixture_probability
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel
off = 0.05
model = BlockModel(w=[0.5, 0.3, 0.2], v=[0.5, 0.3, 0.2],
                   p=[[0.3, off, off], [off, 0.3, off], [off, off, 0.3]])
params = RiskParams(lam=1.0, c=np.r_[np.full(15, 0.95), np.full(15, 1.05)],
                    mu=np.ones(30), u=np.ones(6))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
res = mixture_probability(params, model, AgentSubset.prefix(6), mode="exact")
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(res.config_count, grown)
"""
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout.split()
        count, grown_kb = int(out[0]), int(out[1])  # ru_maxrss is in KiB on Linux
        assert count == 517_888
        assert grown_kb <= 32 * 1024


class TestPointMasses:
    """A configuration of zero variance is a point mass, and its tail is
    exact: in the tail at a positive mean, or when the group connects to
    no object (PK = 0/0 := 0 < 1); a tie at mean 0 stays out."""

    PARAMS = RiskParams(lam=1.0, c=[0.95, 1.05, 1.05, 0.95], mu=np.ones(4), u=np.ones(2))

    @pytest.mark.parametrize(
        "model",
        [
            BlockModel.bernoulli(0.0),
            BlockModel(w=[0.5, 0.5], v=[0.3, 0.7], p=np.zeros((2, 2))),
        ],
        ids=["bernoulli", "sbm"],
    )
    def test_disconnected_group_is_all_tail(self, model):
        group = AgentSubset.prefix(2)
        exact = exact_tail_by_enumeration(self.PARAMS, model, group)
        assert exact == pytest.approx(1.0, abs=1e-12)
        assert exact_law(self.PARAMS, model, group).tail == pytest.approx(exact, abs=1e-12)
        got = mixture_probability(self.PARAMS, model, group, mode="exact")
        assert abs(got.probability - exact) <= got.stein_bound + 1e-12
        assert got.degenerate_weight == pytest.approx(1.0, abs=1e-12)
        sampled = mixture_probability(self.PARAMS, model, group, "sampled", 200, base_seed=3)
        assert (sampled.probability, sampled.stein_bound) == (1.0, 0.0)

    def test_every_point_mass_is_exact(self):
        # each agent connects to every object of its own type and to no
        # other: every configuration is a point mass, a sixteenth of them
        # disconnected, and the ones with as many objects of each class are ties
        model = BlockModel(w=[0.5, 0.5], v=[0.5, 0.5], p=[[1.0, 0.0], [0.0, 1.0]])
        group = AgentSubset.prefix(1)
        got = mixture_probability(self.PARAMS, model, group, mode="exact")
        exact = exact_tail_by_enumeration(self.PARAMS, model, group)
        assert (got.stein_bound, got.degenerate_weight) == (0.0, pytest.approx(1.0))
        assert got.probability == pytest.approx(exact, abs=1e-12)

    def test_zero_off_diagonal_blockmodel(self):
        model = BlockModel(w=[0.5, 0.5], v=[0.5, 0.5], p=[[0.5, 0.0], [0.0, 0.5]])
        group = AgentSubset.prefix(1)
        exact = exact_tail_by_enumeration(self.PARAMS, model, group)
        assert exact == pytest.approx(0.5859375, abs=1e-12)
        assert exact_law(self.PARAMS, model, group).tail == pytest.approx(exact, abs=1e-12)
        got = mixture_probability(self.PARAMS, model, group, mode="exact")
        assert abs(got.probability - exact) <= got.stein_bound
        assert got.degenerate_weight == pytest.approx(1 / 16, rel=1e-12)
        # the disconnected sixteenth is in the tail, on top of the normal parts
        assert got.probability == pytest.approx(exact_by_loop(self.PARAMS, model, group).probability)

    def test_tie_at_one_stays_out(self):
        # both objects connected, premiums 0.95 + 1.05 == 2.0 == lam * 2
        params = RiskParams(lam=1.0, c=[0.95, 1.05], mu=np.ones(2), u=np.ones(1))
        model, group = BlockModel.bernoulli(1.0), AgentSubset.prefix(1)
        assert exact_law(params, model, group).tail == 0.0
        got = mixture_probability(params, model, group, mode="exact")
        assert (got.probability, got.stein_bound, got.degenerate_weight) == (0.0, 0.0, 1.0)


class TestEnumerationOracle:
    def test_indicator_level_matches_edge_level(self):
        # the conditional-independence marginalisation is itself verified
        rng = np.random.default_rng(13)
        for _ in range(3):
            model = BlockModel(
                w=rng.dirichlet(np.ones(2)),
                v=rng.dirichlet(np.ones(2)),
                p=rng.uniform(0.1, 0.9, size=(2, 2)),
            )
            params = RiskParams(
                lam=1.0, c=rng.uniform(0.8, 1.3, 2), mu=rng.uniform(0.5, 1.5, 2), u=np.ones(2)
            )
            group = AgentSubset.prefix(2)
            a = exact_tail_by_enumeration(params, model, group)
            b = exact_tail_by_edge_enumeration(params, model, group, q=2)
            assert a == pytest.approx(b, abs=1e-12)


class TestPhaseClassify:
    def classify(self, ns, d=100_000):
        c = np.full(d, 1.05)
        c[:ns] = 0.95
        params = RiskParams(lam=1.0, c=c, mu=np.ones(d), u=np.ones(100))
        return phase_classify(params, BlockModel.bernoulli(d**-0.5), AgentSubset.prefix(100), 0.5)

    def test_positive_excess(self):
        v = self.classify(49_000)
        assert v.verdict == TAIL_TO_ONE and v.limit_mean_sign == 1

    def test_balanced(self):
        assert self.classify(50_000).verdict == INDETERMINATE

    def test_negative_excess(self):
        v = self.classify(51_000)
        assert v.verdict == TAIL_TO_ZERO and v.limit_mean_sign == -1

    def test_rejects_beta_out_of_range(self):
        params = RiskParams(lam=1.0, c=[0.95], mu=[1.0], u=[1.0])
        for beta in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError, match="beta"):
                phase_classify(params, BlockModel.bernoulli(0.5), AgentSubset.prefix(1), beta)

    def test_warns_on_zero_loading_excess(self):
        params = RiskParams(lam=1.0, c=[1.0, 1.05], mu=[1.0, 1.0], u=[1.0])
        with pytest.warns(UserWarning, match="loading"):
            phase_classify(params, BlockModel.bernoulli(0.5), AgentSubset.prefix(1), 0.5)

    def test_mixed_signs_indeterminate(self):
        # object types tilt the scaled mean either way depending on whether
        # the well-connected type lands on the ruinous or the safe object
        model = BlockModel(w=[1.0], v=[0.5, 0.5], p=[[0.9, 0.1]])
        params = RiskParams(lam=1.0, c=[0.9, 1.1], mu=[1.0, 1.0], u=[1.0])
        v = phase_classify(params, model, AgentSubset.prefix(1), 0.5)
        assert v.verdict == INDETERMINATE and v.limit_mean_sign == 0

    def test_no_connection_is_indeterminate(self):
        # with p = 0 no object can connect, so the mean loading excess is 0
        params = RiskParams(lam=1.0, c=[0.95, 0.95, 1.05], mu=np.ones(3), u=[1.0])
        v = phase_classify(params, BlockModel.bernoulli(0.0), AgentSubset.prefix(1), 0.5)
        assert v.verdict == INDETERMINATE and v.limit_mean_sign == 0

    def test_rejects_unenumerable(self):
        # the model and loadings of TestMixtureProbability.test_exact_rejects_unenumerable
        rng = np.random.default_rng(0)
        d = 40
        params = RiskParams(lam=1.0, c=rng.uniform(0.8, 1.2, d), mu=np.ones(d), u=[1.0])
        model = BlockModel(w=[1.0], v=[0.5, 0.5], p=[[0.3, 0.6]])
        with pytest.raises(ValueError, match="configurations"):
            phase_classify(params, model, AgentSubset.prefix(1), 0.5)

    def test_general_model_common_sign(self):
        model = BlockModel(w=[0.5, 0.5], v=[1.0], p=[[0.3], [0.6]])
        params = RiskParams(lam=1.0, c=[1.05, 1.05, 0.95], mu=np.ones(3), u=np.ones(2))
        v = phase_classify(params, model, AgentSubset.prefix(2), 0.5)
        assert v.verdict == TAIL_TO_ONE  # mean loading excess positive in every config
