"""Tests for risk parameters, the premium-class partition, loadings,
proportional weights, and the classical ruin formula."""

import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_reference import classical_ruin, compute_loadings
from ruinnet.model import AgentSubset, RiskParams, proportional_r, proportional_weights
from ruinnet.netgen import BlockModel
from ruinnet.ruin import estimate

#: Any positive finite float, subnormals included.
POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)


def make_params(c, mu, q=1, lam=1.0, u=None):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), c.shape)
    u = np.ones(q) if u is None else np.asarray(u, dtype=float)
    return RiskParams(lam=lam, c=c, mu=mu, u=u)


class TestRiskParams:
    def test_dimensions(self):
        p = make_params([1.0, 1.1, 0.9], 1.0, q=2)
        assert p.d == 3 and p.q == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0, c=[1.0], mu=[1.0], u=[1.0]),
            dict(lam=1.0, c=[0.0], mu=[1.0], u=[1.0]),
            dict(lam=1.0, c=[1.0], mu=[-1.0], u=[1.0]),
            dict(lam=1.0, c=[1.0], mu=[1.0], u=[-0.5]),
            dict(lam=1.0, c=[1.0, 1.0], mu=[1.0], u=[1.0]),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RiskParams(**kwargs)

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param({name: bad if name == "lam" else [1.0, bad]}, "finite", id=f"{name}-{bad}")
            for name in ("lam", "c", "mu", "u")
            for bad in (math.nan, math.inf)
        ]
        + [
            # finite, positive premiums and claim sizes whose ratio overflows;
            # the division itself must not warn (pytest turns that into an error)
            pytest.param(dict(c=c, mu=mu), "c/mu must be finite", id=name)
            for name, c, mu in (
                ("ratio-overflow", [1e300, 1.0], [1e-300, 1.0]),
                ("ratio-subnormal-mu", [1.0, 2.0], [1.0, 1e-308]),
                ("ratio-large-c", [1e308, 1e308], [0.5, 1.0]),
            )
        ]
        + [
            # a ratio that underflows to 0 or is subnormal, and the PK ratio's
            # value, numerator, denominator or the summand's decay overflowing
            pytest.param(fields, message, id=name)
            for name, fields, message in (
                ("ratio-zero", dict(c=[1e-300, 1.0], mu=[1e300, 1.0]), "c/mu must be at least"),
                ("ratio-subnormal", dict(c=[1e-300, 1.0], mu=[1e10, 1.0]), "c/mu must be at least"),
                ("pk-overflow", dict(lam=1e10, c=[1e-300, 1.0]), "bound the PK ratio"),
                ("pk-numerator", dict(lam=1e308), "bound the PK ratio"),
                ("pk-denominator", dict(c=[1e308, 1e308]), "bound the PK ratio"),
                ("mu-subnormal", dict(c=[1e-310, 1e-310], mu=[1e-310, 1e-310]), "claim size"),
                ("reserve-decay", dict(u=[1e308, 1e308]), "summand's decay"),
            )
        ],
    )
    def test_rejects_non_finite(self, fields, message):
        kwargs = {**dict(lam=1.0, c=[1.0, 1.1], mu=[1.0, 1.0], u=[1.0, 2.0]), **fields}
        with pytest.raises(ValueError, match=message):
            RiskParams(**kwargs)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        lam=POSITIVE,
        objects=st.lists(st.tuples(POSITIVE, POSITIVE), min_size=1, max_size=4),
        u=st.floats(0.0, sys.float_info.max),
        size=st.integers(1, 2),
        p=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_accepted_extremes_estimate_without_warning(self, lam, objects, u, size, p):
        # parameters the constructor accepts never make numpy warn in the
        # estimator (pytest turns a RuntimeWarning into an error)
        c, mu = zip(*objects)
        try:
            params = RiskParams(lam=lam, c=c, mu=mu, u=[u, u])
        except ValueError:
            return
        est = estimate(params, BlockModel.bernoulli(p), AgentSubset.prefix(size), 64, 1)
        assert 0.0 <= est.psi.mean <= 1.0 and 0.0 <= est.tail.mean <= 1.0


class TestAgentSubset:
    def test_sorts_and_validates(self):
        s = AgentSubset((3, 1, 2))
        assert s.indices == (1, 2, 3)
        assert s.size == 3
        np.testing.assert_array_equal(s.zero_based(), [0, 1, 2])

    def test_rejects_bad_subsets(self):
        with pytest.raises(ValueError):
            AgentSubset(())
        with pytest.raises(ValueError):
            AgentSubset((1, 1))
        with pytest.raises(ValueError):
            AgentSubset((0, 1))
        with pytest.raises(ValueError):
            AgentSubset.prefix(2).validate_for(1)


class TestObjectClasses:
    ONE_ULP = [1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)), 1.0]

    @staticmethod
    def check(c, mu):
        params = make_params(c, mu)
        ratio, sizes = params.class_ratio, params.class_sizes
        # independent reference: each object's own c_j / mu_j, counted in a dict
        ref = Counter(float(cj) / float(mj) for cj, mj in zip(params.c, params.mu))
        assert sizes.dtype == np.int64
        assert (np.diff(ratio) > 0).all()
        assert dict(zip(ratio.tolist(), sizes.tolist())) == ref
        # the graph sampler's class index: every object lands on its own ratio, bit for bit
        values = params.c / params.mu
        cls = np.searchsorted(ratio, values)
        assert (ratio[cls].view(np.int64) == values.view(np.int64)).all()
        return ratio, sizes

    def test_random_vectors(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            d = int(rng.integers(1, 60))
            if rng.random() < 0.5:  # few distinct ratios, many ties
                c, mu = rng.choice([0.9, 1.0, 1.1, 2.2], d), rng.choice([0.5, 1.0, 2.0], d)
            else:
                c, mu = rng.uniform(0.1, 3.0, d), rng.uniform(0.1, 3.0, d)
            self.check(c, mu)

    def test_blocked_shuffled_and_paired_vectors(self):
        # runs of equal (c, mu): the two-value scheme's blocks, the same
        # objects shuffled into many short runs, and runs of exactly two
        rng = np.random.default_rng(72)
        for _ in range(100):
            d = int(rng.integers(1, 60))
            ns = int(rng.integers(0, d + 1))
            blocked = np.where(np.arange(d) < ns, 0.95, 1.05)
            self.check(blocked, 1.0)
            self.check(rng.permutation(blocked), 1.0)
            self.check(blocked, np.where(np.arange(d) < d // 2, 0.5, 2.0))
            pairs = np.repeat(rng.choice([0.9, 1.0, 1.1, 2.2], d), 2)
            self.check(pairs, np.repeat(rng.choice([0.5, 1.0, 2.0], d), 2))
            self.check(np.repeat(rng.uniform(0.1, 3.0, d), 2), 1.0)

    def test_paper_scale_blocked_vector_matches_unique(self):
        d = 100_000
        params = make_params(np.where(np.arange(d) < d // 2 + 17, 0.95, 1.05), 1.0)
        ratio, sizes = np.unique(params.c / params.mu, return_counts=True)
        assert params.class_ratio.tobytes() == ratio.tobytes()
        assert params.class_sizes.dtype == np.int64
        assert params.class_sizes.tolist() == sizes.tolist() == [d // 2 + 17, d // 2 - 17]

    def test_blocked_vector_needs_no_array_of_d_floats(self):
        # the partition of a blocked vector allocates less than one float per object
        d = 100_000
        c, mu, u = np.where(np.arange(d) < d // 2, 0.95, 1.05), np.ones(d), np.ones(100)
        tracemalloc.start()
        try:
            RiskParams(lam=1.0, c=c, mu=mu, u=u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d

    def test_one_object(self):
        ratio, sizes = self.check([1.05], [0.5])
        assert ratio.tolist() == [2.1] and sizes.tolist() == [1]

    def test_all_equal(self):
        # the same ratio reached from different premiums and claim sizes
        ratio, sizes = self.check([0.5, 1.0, 2.0, 1.0], [0.5, 1.0, 2.0, 1.0])
        assert ratio.tolist() == [1.0] and sizes.tolist() == [4]

    def test_all_distinct(self):
        ratio, sizes = self.check(np.linspace(0.5, 1.5, 37)[::-1], 1.0)
        assert ratio.size == 37 and (sizes == 1).all()

    def test_ratios_one_ulp_apart_stay_separate(self):
        ratio, sizes = self.check(self.ONE_ULP, 1.0)
        assert ratio.tolist() == sorted(set(self.ONE_ULP))
        assert sizes.tolist() == [1, 2, 1]


class TestLoadings:
    def test_ruinous_premium(self):
        lv = compute_loadings(make_params([0.95], [1.0]))
        assert lv.rho[0] == pytest.approx(1.0526315789, abs=1e-9)
        assert lv.xi[0] == pytest.approx(0.95, abs=1e-12)

    def test_balanced_premium(self):
        lv = compute_loadings(make_params([1.0], [1.0]))
        assert lv.rho[0] == 1.0 and lv.xi[0] == 1.0

    def test_hand_evaluated(self):
        lv = compute_loadings(make_params([1.05], [0.5], lam=2.0))
        assert lv.rho[0] == pytest.approx(0.9523809523, abs=1e-9)
        assert lv.xi[0] == pytest.approx(1.05, abs=1e-12)

    @given(
        c=st.floats(0.1, 10.0),
        mu=st.floats(0.1, 10.0),
        lam=st.floats(0.1, 10.0),
    )
    def test_loading_sign_matches_net_profit(self, c, mu, lam):
        lv = compute_loadings(make_params([c], [mu], lam=lam))
        assert lv.xi[0] * lv.rho[0] == pytest.approx(1.0, rel=1e-12)
        net = c - lam * mu
        if net != 0.0:
            assert math.copysign(1.0, lv.xi[0] - 1.0) == math.copysign(1.0, net)


class TestProportionalR:
    def test_single_agent_of_ten(self):
        p = make_params([1.0], [1.0], q=10)
        assert proportional_r(p, AgentSubset.prefix(1)) == pytest.approx(0.1)

    def test_full_group(self):
        p = make_params([1.0], [1.0], q=10)
        assert proportional_r(p, AgentSubset.prefix(10)) == pytest.approx(1.0)

    def test_min_over_objects(self):
        p = make_params([1.0, 1.0, 1.0], [2.0, 0.5, 1.0], q=5)
        assert proportional_r(p, AgentSubset.prefix(2)) == pytest.approx(0.125)

    @given(q=st.integers(1, 30), k1=st.integers(1, 30), k2=st.integers(1, 30))
    def test_monotone_in_group_size(self, q, k1, k2):
        k1, k2 = sorted((min(k1, q), min(k2, q)))
        p = make_params([1.0, 2.0], [1.3, 0.7], q=q)
        r1 = proportional_r(p, AgentSubset.prefix(k1))
        r2 = proportional_r(p, AgentSubset.prefix(k2))
        assert r1 <= r2 + 1e-15

    def test_nonincreasing_in_agent_count(self):
        group = AgentSubset.prefix(2)
        values = [
            proportional_r(make_params([1.0], [1.0], q=q), group) for q in range(2, 9)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


def weights(inc, group, p):
    """:func:`proportional_weights` at the group's default scaling constant."""
    return proportional_weights(inc, group, p, proportional_r(p, group))


class TestBuildWeights:
    """Proportional weights of one incidence matrix, and of a stack of them."""

    def test_saturated_column(self):
        # two agents both insuring the object, full group: shares 1/2 each
        p = make_params([1.0], [1.0], q=2)
        A = weights(np.ones((2, 1)), AgentSubset.prefix(2), p)
        np.testing.assert_allclose(A, [[0.5], [0.5]])
        assert A.sum(axis=0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_unconnected_column_is_zero(self):
        p = make_params([1.0, 1.0], [1.0, 1.0], q=2)
        inc = np.array([[True, False], [True, False]])
        A = weights(inc, AgentSubset.prefix(2), p)
        np.testing.assert_array_equal(A[:, 1], [0.0, 0.0])

    def test_single_agent_share(self):
        p = make_params([1.0], [1.0], q=10)
        inc = np.zeros((10, 1), dtype=bool)
        inc[0, 0] = True
        A = weights(inc, AgentSubset.prefix(1), p)
        assert A[0, 0] == pytest.approx(0.1)
        assert A.sum(axis=0)[0] <= 1.0

    def test_rejects_oversized_custom_r(self):
        p = make_params([1.0], [1.0], q=2)
        with pytest.raises(ValueError, match="r_q"):
            proportional_weights(np.ones((2, 1)), AgentSubset.prefix(2), p, 1.5)

    def test_column_sums_always_within_unit(self):
        # every sampled graph and group satisfies the column-sum condition
        rng = np.random.default_rng(1234)
        for _ in range(200):
            q = int(rng.integers(1, 7))
            d = int(rng.integers(1, 7))
            p = make_params(
                rng.uniform(0.5, 2.0, d), rng.uniform(0.2, 3.0, d), q=q
            )
            inc = rng.random((q, d)) < rng.uniform(0.0, 1.0)
            k = int(rng.integers(1, q + 1))
            A = weights(inc, AgentSubset.prefix(k), p)
            col = A.sum(axis=0)
            assert (A >= 0).all()
            assert (col >= 0).all() and (col <= 1.0 + 1e-12).all()

    def test_stack_matches_each_network(self):
        # one formula: a stack of incidence matrices gives each matrix's weights, bit for bit
        rng = np.random.default_rng(99)
        for _ in range(20):
            q, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            p = make_params(rng.uniform(0.5, 2.0, d), rng.uniform(0.2, 3.0, d), q=q)
            group = AgentSubset.prefix(int(rng.integers(1, q + 1)))
            stack = rng.random((7, q, d)) < rng.uniform(0.0, 1.0)
            stacked = weights(stack, group, p)
            assert stacked.shape == stack.shape
            for inc, A in zip(stack, stacked):
                np.testing.assert_array_equal(A, weights(inc, group, p))

    def test_stack_checks_every_column(self):
        p = make_params([1.0], [1.0], q=2)
        stack = np.zeros((3, 2, 1), dtype=bool)
        stack[2] = True  # only the last network saturates its column
        with pytest.raises(ValueError, match="r_q"):
            proportional_weights(stack, AgentSubset.prefix(2), p, 1.5)


class TestClassicalRuin:
    def test_certain_ruin(self):
        assert classical_ruin(1.0, 1.0, 0.95, 1.0) == 1.0

    def test_zero_reserve(self):
        assert classical_ruin(1.0, 1.0, 1.05, 0.0) == pytest.approx(0.9523809523, abs=1e-9)

    def test_unit_reserve(self):
        assert classical_ruin(1.0, 1.0, 1.05, 1.0) == pytest.approx(0.90810, abs=1e-5)

    @settings(max_examples=60)
    @given(
        u1=st.floats(0.0, 50.0),
        u2=st.floats(0.0, 50.0),
        lam1=st.floats(0.1, 3.0),
        lam2=st.floats(0.1, 3.0),
    )
    def test_monotonicity(self, u1, u2, lam1, lam2):
        u1, u2 = sorted((u1, u2))
        lam1, lam2 = sorted((lam1, lam2))
        assert classical_ruin(1.0, 1.0, 1.2, u1) >= classical_ruin(1.0, 1.0, 1.2, u2) - 1e-12
        assert classical_ruin(lam1, 1.0, 1.2, 1.0) <= classical_ruin(lam2, 1.0, 1.2, 1.0) + 1e-12

    def test_identically_one_above_threshold(self):
        for u in (0.0, 0.5, 10.0, 1e6):
            assert classical_ruin(1.0, 1.0, 1.0, u) == 1.0
            assert classical_ruin(2.0, 1.0, 1.5, u) == 1.0
