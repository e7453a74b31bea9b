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

from model_reference import checked_classes, classical_ruin, compute_loadings, proportional_weights
from ruinnet import model
from ruinnet.model import NORMAL_MIN, AgentSubset, RiskParams, prefix_sizes, proportional_r
from ruinnet.netgen import BlockModel
from ruinnet.ruin import estimate

#: Any positive finite float, subnormals included.
POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)

#: Entries that some check of ``RiskParams`` rejects, and ordinary ones.
ENTRY = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310, NORMAL_MIN, 1e-300]
    + [1e300, sys.float_info.max, 0.5, 0.95, 1.0, 1.05, 2.0]
)


@st.composite
def run_vector(draw, size):
    """``size`` entries in runs of equal values, then up to two entries
    overwritten, inside a run or at its edge."""
    values = []
    while len(values) < size:
        values += [draw(ENTRY)] * draw(st.integers(1, 4))
    values = values[:size]
    for _ in range(draw(st.integers(0, 2)) if size else 0):
        values[draw(st.integers(0, size - 1))] = draw(ENTRY)
    return values


def as_runs(c, mu):
    """``(c, mu, lengths)`` for :meth:`RiskParams.from_runs`: the heads and
    lengths of the runs of equal neighbouring ``(c_j, mu_j)``, found by a
    loop; or ``c`` and ``mu`` as they are, one object per run, when their
    shapes differ and there are no runs to find."""
    if np.shape(c) != np.shape(mu):
        return c, mu, np.ones(len(c), dtype=np.int64)
    heads, lengths = [], []
    for pair in zip(c, mu):
        if lengths and pair == heads[-1]:
            lengths[-1] += 1
        else:
            heads.append(pair)
            lengths.append(1)
    return [h[0] for h in heads], [h[1] for h in heads], np.array(lengths, dtype=np.int64)


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
        group = AgentSubset.prefix(size)
        (est,) = estimate(params, BlockModel.bernoulli(p), group, [size], 64, 1).estimates
        assert 0.0 <= est.psi.mean <= 1.0 and 0.0 <= est.tail.mean <= 1.0


class TestChecksOnRunHeads:
    """Both constructors check ``c`` and ``mu`` on the heads of their runs:
    the vector one finds the runs, :meth:`RiskParams.from_runs` is given
    them.  The reference checks every object.  Each must raise the same
    message, or give the same partition bytes."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_per_object_reference(self, data):
        d = data.draw(st.integers(0, 9), label="d")
        c = data.draw(run_vector(d), label="c")
        mu_size = data.draw(st.sampled_from([d, d, d, d + 1]), label="mu size")
        mu = data.draw(run_vector(mu_size), label="mu")
        u = data.draw(run_vector(data.draw(st.sampled_from([0, 1, 1, 2, 3]))), label="u")
        lam = data.draw(st.one_of(st.just(1.0), ENTRY), label="lam")
        runs = as_runs(c, mu)
        try:
            ratio, sizes = checked_classes(lam, c, mu, u)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                RiskParams(lam, c, mu, u)
            with pytest.raises(ValueError) as got_runs:
                RiskParams.from_runs(lam, *runs, u)
            assert str(got.value) == str(got_runs.value) == str(exc)
            return
        for params in (RiskParams(lam, c, mu, u), RiskParams.from_runs(lam, *runs, u)):
            assert params.class_ratio.tobytes() == ratio.tobytes()
            assert params.class_sizes.tobytes() == sizes.tobytes()
            assert params.mu_min == float(np.min(mu)) and params.d == d
            # the per-object vectors, expanded from the runs, have the given bytes
            assert params.c.tobytes() == np.asarray(c, dtype=float).tobytes()
            assert params.mu.tobytes() == np.asarray(mu, dtype=float).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_split_into_runs_matches_the_vector(self, data):
        # neighbouring runs may be equal: every split of a blocked vector
        # into runs gives the vector constructor's parameters
        k = data.draw(st.integers(1, 5), label="runs")
        c = data.draw(st.lists(ENTRY, min_size=k, max_size=k), label="c")
        mu = data.draw(st.lists(ENTRY, min_size=k, max_size=k), label="mu")
        lengths = np.array(data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
        c_vec, mu_vec = np.repeat(c, lengths), np.repeat(mu, lengths)
        try:
            want = RiskParams(1.0, c_vec, mu_vec, [1.0])
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                RiskParams.from_runs(1.0, c, mu, lengths, [1.0])
            assert str(got.value) == str(exc)
            return
        params = RiskParams.from_runs(1.0, c, mu, lengths, [1.0])
        assert params.class_ratio.tobytes() == want.class_ratio.tobytes()
        assert params.class_sizes.tobytes() == want.class_sizes.tobytes()
        assert (params.mu_min, params.d) == (want.mu_min, want.d) == (mu_vec.min(), c_vec.size)
        assert params.c.tobytes() == c_vec.tobytes()
        assert params.mu.tobytes() == mu_vec.tobytes()

    @pytest.mark.parametrize(
        "lengths",
        [[2, 0], [-1, 3], [0, 0], [3], [1, 2, 3], [1.0, 2.0], [[1, 2]], [True, True]],
    )
    def test_run_lengths_are_positive_integers_one_per_run(self, lengths):
        with pytest.raises(ValueError, match="run lengths must be positive integers"):
            RiskParams.from_runs(1.0, [0.95, 1.05], [1.0, 1.0], lengths, [1.0])

    def test_equal_premiums_give_one_class(self):
        params = RiskParams.from_runs(1.0, [1.05, 1.05], [1.0, 1.0], [3, 7], [1.0])
        assert params.class_ratio.tolist() == [1.05] and params.class_sizes.tolist() == [10]
        assert params.c.tolist() == [1.05] * 10 and params.d == 10

    @pytest.mark.parametrize(
        "c, mu, message",
        [
            # c's finiteness comes before mu's shape, which the scan needs
            ([1.0, math.nan], [1.0], "c must be finite"),
            ([1.0, math.inf], [[1.0, 1.0]], "c must be finite"),
            ([1.0, 1.0], [1.0], "mu must have length 2"),
            ([1.0, 1.0], [[1.0, 1.0]], "mu must be one-dimensional"),
            # a NaN inside a run of NaNs, and one after a run of equal values
            ([math.nan, math.nan, 1.0], [1.0, 1.0, 1.0], "c must be finite"),
            ([1.0, 1.0, 1.0], [2.0, 2.0, math.nan], "mu must be finite"),
            # a zero or negative entry inside a run, and one after a run
            ([1.0, 1.0, 1.0], [1.0, -0.0, 1.0], "mean claim size must be positive"),
            ([2.0, 2.0, 2.0, -2.0], [1.0, 1.0, 1.0, 1.0], "premium rate must be positive"),
        ],
    )
    def test_messages_and_their_order(self, c, mu, message):
        with pytest.raises(ValueError, match=message):
            checked_classes(1.0, c, mu, [1.0])
        with pytest.raises(ValueError, match=message):
            RiskParams(lam=1.0, c=c, mu=mu, u=[1.0])
        with pytest.raises(ValueError, match=message):
            RiskParams.from_runs(1.0, *as_runs(c, mu), [1.0])


class TestAgentSubset:
    def test_sorts_and_validates(self):
        s = AgentSubset((3, 1, 2))
        assert s.indices.tolist() == [1, 2, 3]
        assert s.size == 3
        np.testing.assert_array_equal(s.zero_based(), [0, 1, 2])

    def test_members_are_one_read_only_array(self):
        s = AgentSubset.prefix(5)
        assert s.indices.dtype == np.int64 and not s.indices.flags.writeable
        with pytest.raises(ValueError):
            s.indices[0] = 7
        given = np.array([4, 2, 9])
        t = AgentSubset(given)
        given[0] = 1  # the subset keeps its own sorted copy
        assert t.indices.tolist() == [2, 4, 9]
        increasing = np.array([2, 4, 9])
        u = AgentSubset(increasing)
        increasing[0] = 1  # an increasing array is not sorted, but still copied
        assert u.indices.tolist() == [2, 4, 9] and increasing.flags.writeable
        assert AgentSubset((3, 1, 2)) == AgentSubset.prefix(3)
        assert AgentSubset.prefix(3) != AgentSubset.prefix(4)
        assert AgentSubset.prefix(3) != (1, 2, 3)

    def test_rejects_bad_subsets(self):
        with pytest.raises(ValueError):
            AgentSubset(())
        with pytest.raises(ValueError):
            AgentSubset((1, 1))
        with pytest.raises(ValueError):
            AgentSubset((0, 1))
        with pytest.raises(ValueError, match="duplicate"):
            AgentSubset((5, 2, 9, 2))  # equal members that are not neighbours as given
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
        assert proportional_r(p, 1) == pytest.approx(0.1)

    def test_full_group(self):
        p = make_params([1.0], [1.0], q=10)
        assert proportional_r(p, 10) == pytest.approx(1.0)

    def test_min_over_objects(self):
        p = make_params([1.0, 1.0, 1.0], [2.0, 0.5, 1.0], q=5)
        assert proportional_r(p, 2) == pytest.approx(0.125)

    @given(q=st.integers(1, 30), k1=st.integers(1, 30), k2=st.integers(1, 30))
    def test_monotone_in_group_size(self, q, k1, k2):
        k1, k2 = sorted((min(k1, q), min(k2, q)))
        p = make_params([1.0, 2.0], [1.3, 0.7], q=q)
        r1 = proportional_r(p, k1)
        r2 = proportional_r(p, k2)
        assert r1 <= r2 + 1e-15

    def test_nonincreasing_in_agent_count(self):
        values = [proportional_r(make_params([1.0], [1.0], q=q), 2) for q in range(2, 9)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("size", [0, 4])
    def test_rejects_sizes_outside_one_to_q(self, size):
        with pytest.raises(ValueError, match="1..3"):
            proportional_r(make_params([1.0], [1.0], q=3), size)


class TestGroupDecay:
    @pytest.mark.parametrize(
        "members, sizes",
        [(range(1, 31), [1, 7, 30]), ((3, 8, 9, 20, 41, 50), [1, 2, 5, 6])],
        ids=["prefix", "scattered"],
    )
    def test_equals_the_gathered_reserves_over_r(self, members, sizes):
        # the reference: a gathered copy of the members' reserves, summed per
        # prefix, and the whole group's total over r_q of its size
        u = np.random.default_rng(4).uniform(0.0, 3.0, 50)
        params = make_params([1.0, 2.0], [1.3, 0.7], q=50, u=u)
        group = AgentSubset(np.array(members))
        reserves = params.u[group.zero_based()]
        want = [float(reserves[:k].sum()) / proportional_r(params, k) for k in sizes]
        assert model.group_decay(params, group, sizes).tolist() == want
        oracle = float(params.u[group.zero_based()].sum()) / proportional_r(params, group.size)
        assert model.group_decay(params, group, [group.size])[0] == oracle


class TestPrefixSizes:
    """The one check of a nested family's sizes, which both engines run."""

    def test_returns_a_list_of_ints(self):
        for sizes in (range(1, 5), np.arange(1, 5), [1, 2, 3, 4]):
            got = prefix_sizes(sizes, 4)
            assert got == [1, 2, 3, 4] and all(type(k) is int for k in got)

    @pytest.mark.parametrize(
        "sizes, match",
        [
            ([], "nonempty"),
            ([[1, 2]], "nonempty"),
            ([1.0, 2.0], "integers"),
            ([0, 2], "positive"),
            ([-1], "positive"),
            ([2, 1], "increasing"),
            ([2, 2], "increasing"),
            ([1, 5], "exceeds agent count 4"),
        ],
    )
    def test_rejects_sizes_of_no_family(self, sizes, match):
        with pytest.raises(ValueError, match=match):
            prefix_sizes(sizes, 4)


def weights(inc, group, p):
    """:func:`proportional_weights` at the group's default scaling constant."""
    return proportional_weights(inc, group, p, proportional_r(p, group.size))


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
