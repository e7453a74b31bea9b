"""Tests for the Pollaczek-Khintchine ratio and the Monte-Carlo estimators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from model_reference import classical_ruin
from ruin_reference import exhaustive_graph_psi, pk_value
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel
from ruinnet.streams import BLOCK_SIZE
from ruinnet.ruin import (
    EstimateWithCI,
    _pk_from_counts,
    estimate,
    estimate_psi,
    psi_summand,
)


SBM = BlockModel(
    w=[0.5, 0.3, 0.2],
    v=[0.6, 0.4],
    p=[[0.6, 0.1], [0.0, 0.9], [1.0, 0.3]],
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
    def test_no_connection_contributes_nothing(self):
        assert psi_summand(0.0, 1.0, 5.0) == 0.0

    def test_certain_ruin_branch(self):
        assert psi_summand(1.0526, 0.3, 2.0) == 1.0

    def test_matches_classical_formula(self):
        val = psi_summand(1 / 1.05, 1.0, 1.0)
        assert val == pytest.approx(0.90810, abs=1e-5)

    def test_continuous_at_one(self):
        below = psi_summand(1.0 - 1e-12, 0.5, 3.0)
        assert below == pytest.approx(1.0, abs=1e-10)
        assert psi_summand(1.0, 0.5, 3.0) == 1.0

    @given(
        pk=st.floats(0.0, 3.0),
        r=st.floats(0.01, 10.0),
        reserve=st.floats(0.0, 100.0),
    )
    def test_bounded_in_unit_interval(self, pk, r, reserve):
        val = psi_summand(pk, r, reserve)
        assert 0.0 <= val <= 1.0
        if pk >= 1.0:
            assert val == 1.0


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
        tail = estimate(p, m, g, 30_000, 11).tail
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
            collapsed = estimate(p, m, g, 40_000, 13, method="collapsed")
            graph = estimate(p, m, g, 40_000, 13, method="graph")
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
        args = (two_class_params(4, 10), model, AgentSubset.prefix(3), B, 5)
        est = estimate(*args, threads=threads, method=method)
        assert est.psi == estimate_psi(*args, method=method)
        assert est.tail == estimate(*args, method=method).tail
        assert est.replicates == B
        assert 0.0 < est.tail.mean < 1.0

    def test_zero_reserve_gives_the_classical_formula(self):
        # one agent certainly insuring one object: psi(0) = lam*mu/c; the
        # tolerance only absorbs the rounding of the mean of 100 equal summands
        p = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[0.0])
        est = estimate(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), 100, 0)
        assert est.psi.mean == pytest.approx(classical_ruin(1.0, 1.0, 1.05, 0.0), rel=1e-15)
        assert est.psi.stderr <= 1e-12


class TestEstimateTail:
    def test_all_ruinous_premiums_never_below_one(self):
        # with every object ruinous and edges certain, the ratio is always > 1
        p = RiskParams(lam=1.0, c=[0.95, 0.95], mu=[1.0, 1.0], u=[1.0])
        est = estimate(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), 2000, 0).tail
        assert est.mean == 0.0

    def test_disconnection_counts_toward_event(self):
        # ratio 0 on disconnection, which lies below 1
        p = RiskParams(lam=1.0, c=[0.95, 0.95], mu=[1.0, 1.0], u=[1.0])
        est = estimate(p, BlockModel.bernoulli(0.5), AgentSubset.prefix(1), 100_000, 1).tail
        assert est.mean == pytest.approx(0.25, abs=4 * est.stderr + 1e-12)

    def test_binomial_stderr(self):
        p = two_class_params(5, 10)
        est = estimate(p, BlockModel.bernoulli(0.5), AgentSubset.prefix(3), 10_000, 2).tail
        assert est.stderr == pytest.approx(
            math.sqrt(est.mean * (1 - est.mean) / est.replicates)
        )

    def test_zero_reserve_allowed(self):
        p = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[0.0])
        est = estimate(p, BlockModel.bernoulli(1.0), AgentSubset.prefix(1), 100, 0).tail
        assert est.mean == 1.0


class TestEstimateWithCI:
    def test_rejects_negative_stderr(self):
        with pytest.raises(ValueError):
            EstimateWithCI(mean=0.5, stderr=-0.1, replicates=10)
