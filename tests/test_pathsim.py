"""Tests for the compound-Poisson path simulator and the nested oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from exact_reference import exact_law
from model_reference import classical_ruin
from pathsim_reference import (
    group_claims,
    group_exposure,
    ruin_flags,
    ruin_frequency,
    ruin_path,
    simulate_ruin_batch_reference,
    simulate_ruin_path_per_object,
)
from ruinnet.model import AgentSubset, RiskParams, proportional_r
from ruinnet.netgen import BlockModel
from ruinnet.pathsim import (
    _CLAIM_CHUNK,
    NETWORK_BLOCK,
    PATH_BATCH,
    oracle_psi,
    simulate_ruin_batch,
)
from ruinnet.ruin import estimate_psi
from ruinnet.streams import ORACLE_PATH_DOMAIN, StreamKey, stream


def single_object(c=1.05, u=1.0):
    """``(rate, premium, reserve)`` of one agent insuring one object."""
    params = RiskParams(lam=1.0, c=[c], mu=[1.0], u=[u])
    return group_claims(params, np.ones((1, 1)), AgentSubset.prefix(1))


class TestSimulateRuinPath:
    def test_no_exposure_never_ruins(self):
        params = RiskParams(lam=1.0, c=[0.5, 0.5], mu=[1.0, 1.0], u=[1.0, 1.0])
        case = group_claims(params, np.zeros((2, 2)), AgentSubset.prefix(2))
        assert case[0] == 0.0
        assert not any(ruin_path(*case, 100.0, StreamKey(0, (5, r))) for r in range(200))

    def test_certain_ruin_under_negative_loading(self):
        case = single_object(c=0.95, u=0.01)
        freq = ruin_frequency(*case, 10_000.0, paths=10_000, base_seed=101)
        assert freq.mean >= 0.99

    def test_matches_classical_formula(self):
        case = single_object(c=1.05, u=1.0)
        freq = ruin_frequency(*case, 1000.0, paths=20_000, base_seed=7)
        target = classical_ruin(1.0, 1.0, 1.05, 1.0)
        # one-sided truncation bias (~0.007 at this horizon) plus 3-sigma noise
        assert freq.mean <= target + 3 * freq.stderr
        assert abs(freq.mean - target) < 0.01

    def test_monotone_in_horizon_per_seed(self):
        case = single_object(c=1.1, u=0.5)
        outcomes = []
        for horizon in (5.0, 20.0, 80.0):
            outcomes.append(
                [ruin_path(*case, horizon, StreamKey(3, (1, r))) for r in range(400)]
            )
        for shorter, longer in zip(outcomes, outcomes[1:]):
            assert all(l or not s for s, l in zip(shorter, longer))

    def test_multi_object_drift_sign(self):
        # heavily loaded objects (ratio > 1): ruin nearly certain; strongly
        # profitable ones with high reserve: ruin rare
        params_bad = RiskParams(lam=1.0, c=[0.8, 0.8], mu=[1.0, 1.0], u=[0.5, 0.5])
        params_good = RiskParams(lam=1.0, c=[1.6, 1.6], mu=[1.0, 1.0], u=[3.0, 3.0])
        group = AgentSubset.prefix(2)
        runs = {}
        for name, params in (("bad", params_bad), ("good", params_good)):
            case = group_claims(params, np.ones((2, 2)), group)
            runs[name] = ruin_frequency(*case, 500.0, paths=500, base_seed=19).mean
        assert runs["bad"] > 0.95
        assert runs["good"] < 0.2

    def test_batch_flags_monotone_in_horizon(self):
        # several kernel batches of paths with their own rates and premiums:
        # each path's claims are replayed by a longer horizon, so no path
        # that ruins can stop ruining
        paths = 3 * PATH_BATCH - 100
        rng = np.random.default_rng(5)
        rate = rng.integers(1, 4, paths) * 1.5
        premium = rate * rng.uniform(0.8, 1.4, paths)
        outcomes = [
            ruin_flags(rate, premium, 2.0, horizon, paths, base_seed=17)
            for horizon in (2.0, 10.0, 60.0, 300.0)
        ]
        for shorter, longer in zip(outcomes, outcomes[1:]):
            assert not (shorter & ~longer).any()
            assert (longer & ~shorter).any()

    def test_batch_rows_without_exposure_never_ruin(self):
        rate = np.zeros(PATH_BATCH)
        rate[::2] = 2.0  # every other row has claims, under negative loading
        premium = rate / 2
        flags = simulate_ruin_batch(rate, premium, 0.2, 500.0, np.random.default_rng(3))
        assert not flags[1::2].any()
        assert flags[::2].all()

    def test_batch_rejects_more_rows_than_a_batch(self):
        rng = np.random.default_rng(0)
        too_many = np.ones(PATH_BATCH + 1)
        with pytest.raises(ValueError, match="rows"):
            simulate_ruin_batch(too_many, too_many, 1.0, 10.0, rng)
        with pytest.raises(ValueError, match="rows"):
            simulate_ruin_batch(np.ones(3), np.ones(2), 1.0, 10.0, rng)

    def test_premium_inflow_beyond_the_float_range_never_ruins(self):
        # rare claims and a premium rate near the float maximum: the inflow
        # overflows to infinity before the first claim, without a warning
        rng = np.random.default_rng(1)
        flags = simulate_ruin_batch([1e-10, 1e-10], [1e300, 0.5e-10], 1.0, 1e15, rng)
        assert flags.tolist() == [False, True]

    @pytest.mark.parametrize(
        "rate, premium, reserve, horizon, name",
        [
            ([1.0], [2.0], 5.0, math.inf, "horizon"),
            ([1.0], [2.0], 5.0, math.nan, "horizon"),
            ([1.0], [2.0], 5.0, -1.0, "horizon"),
            ([1.0], [2.0], 5.0, 0.0, "horizon"),
            ([1.0], [2.0], math.nan, 10.0, "reserve"),
            ([1.0], [math.nan], 5.0, 10.0, "premium"),
            ([1.0], [-1.0], 5.0, 10.0, "premium"),
            ([1.0], [math.inf], 5.0, 10.0, "premium"),
            ([math.nan], [1.0], 5.0, 10.0, "rate"),
            ([-1.0], [1.0], 5.0, 10.0, "rate"),
            ([math.inf], [1.0], 5.0, 10.0, "rate"),
        ],
        ids=[
            "inf-horizon", "nan-horizon", "negative-horizon", "zero-horizon", "nan-reserve",
            "nan-premium", "negative-premium", "inf-premium", "nan-rate", "negative-rate",
            "inf-rate",
        ],
    )
    def test_batch_rejects_bad_input(self, rate, premium, reserve, horizon, name):
        # an infinite horizon never ends the batch; the NaN and negative
        # values would give all-False flags without an error
        with pytest.raises(ValueError, match=name):
            simulate_ruin_batch(rate, premium, reserve, horizon, np.random.default_rng(0))

    def test_nonpositive_reserve_is_ruin_at_time_zero(self):
        rng = np.random.default_rng(0)
        for reserve in (0.0, -1.0, -math.inf):
            flags = simulate_ruin_batch([0.0, 2.0], [0.0, 1.0], reserve, 10.0, rng)
            assert flags.tolist() == [True, True]

    def test_deterministic_per_key(self):
        case = single_object()
        flags1 = [ruin_path(*case, 1000.0, StreamKey(9, (2, r))) for r in range(100)]
        flags2 = [ruin_path(*case, 1000.0, StreamKey(9, (2, r))) for r in range(100)]
        assert flags1 == flags2


class TestKernelAgainstReference:
    def test_flags_match_the_kernel_with_arrays_per_chunk(self):
        # batches of 1 to 256 rows with rates 0, 1e-10 (the first claim lies
        # past any horizon here) and up to 3, premiums up to 1e300 (the
        # inflow overflows), zero and positive reserves; rows that cross
        # after the horizon leave the batch and move later rows' draws
        rng = np.random.default_rng(2026)
        ruined = total = 0
        for case in range(300):
            n = (1, PATH_BATCH)[case] if case < 2 else int(rng.integers(1, PATH_BATCH + 1))
            total += n
            rate = rng.choice([0.0, 1e-10, 0.5, 1.0, 3.0], n)
            premium = rate * rng.uniform(0.7, 1.4, n)
            premium[rng.random(n) < 0.05] = 0.0
            premium[rng.random(n) < 0.05] = 1e300
            reserve = float(rng.choice([0.0, 0.5, 2.0, 6.0]))
            horizon = float(rng.uniform(10.0, 1000.0))
            args = (rate, premium, reserve, horizon)
            got = simulate_ruin_batch(*args, stream(11, ORACLE_PATH_DOMAIN, case))
            want = simulate_ruin_batch_reference(*args, stream(11, ORACLE_PATH_DOMAIN, case))
            np.testing.assert_array_equal(got, want)
            ruined += int(got.sum())
        assert 0 < ruined < 0.9 * total

    def test_one_call_allocates_its_buffers_once(self):
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def random(self, *args, **kwargs):
                self.calls += 1
                return self.rng.random(*args, **kwargs)

        rng = CountingRng(np.random.default_rng(8))
        rate, premium = np.ones(PATH_BATCH), np.full(PATH_BATCH, 1.1)
        tracemalloc.start()
        try:
            simulate_ruin_batch(rate, premium, 20.0, 1200.0, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rng.calls >= 2 * 4  # two draws per chunk, at least four chunks
        # the uniforms and the inflow take 3 of these 4 float arrays, the
        # crossing flags an eighth of one
        assert peak < 4 * PATH_BATCH * _CLAIM_CHUNK * 8


class TestMergedClaimStream:
    def test_fixed_keys_regression(self):
        # survivors among 200 fixed keys, as the per-object simulator gave
        # them: on its stream for object 0, with r_q = mu = 1, the kernel
        # draws and adds the same claims
        case = single_object(c=1.05, u=1.0)
        keys = [StreamKey(9, (2, r, 0)) for r in range(200)]
        survivors = [r for r, key in enumerate(keys) if not ruin_path(*case, 1000.0, key)]
        assert survivors == [
            14, 20, 22, 33, 34, 38, 42, 44, 50, 54, 59, 67, 78, 109, 140, 142, 149, 150, 163, 176
        ]

    def test_single_exposed_object_matches_reference_bit_for_bit(self):
        # with r_q and every mu_j a power of two, the reference's claim
        # (r_q / mu_j) * (mu_j * E), its premium (r_q / mu_j) * c_j and its
        # reserve U are r_q times the kernel's E, c_j / mu_j and U / r_q, exactly
        rng = np.random.default_rng(2024)
        for case in range(30):
            d = int(rng.integers(1, 5))
            j = int(rng.integers(d))
            lam, u = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 3.0))
            r_q = 2.0 ** int(rng.integers(-3, 3))
            params = RiskParams(
                lam=lam, c=rng.uniform(0.2, 2.0, d), mu=2.0 ** rng.integers(-2, 3, d), u=[u]
            )
            exposure = np.zeros(d)
            exposure[j] = r_q / params.mu[j]
            kernel = (lam, params.c[j] / params.mu[j], u / r_q)
            horizon = float(rng.uniform(1.0, 300.0))
            for r in range(25):
                key = StreamKey(case, (7, r))
                reference = simulate_ruin_path_per_object(params, exposure, u, horizon, key)
                assert ruin_path(*kernel, horizon, StreamKey(case, (7, r, j))) == reference

    @pytest.mark.parametrize(
        "kwargs",
        [
            # proportional exposures r_q / mu_j with unequal mu_j: the
            # reference's claims differ in mean and weight from object to
            # object, and cost r_q * Exp(1) alike
            dict(c=[3.3, 1.1, 0.3], mu=[3.0, 1.0, 0.25], u=[1.0], incidence=[[1, 1, 1]]),
            dict(
                c=[1.5, 13.0, 0.4],
                mu=[0.5, 8.0, 2.0],
                u=[0.7, 0.4],
                incidence=[[1, 0, 0], [0, 1, 0]],
                lam=2.0,
            ),
        ],
    )
    def test_several_objects_agree_with_reference_in_distribution(self, kwargs):
        kwargs = dict(kwargs)
        incidence = np.asarray(kwargs.pop("incidence"))
        params = RiskParams(**{"lam": 1.0, **kwargs})
        group = AgentSubset.prefix(params.q)
        exposure, total_reserve = group_exposure(params, incidence, group)
        assert (exposure > 0).sum() > 1
        n = 4000
        merged = ruin_frequency(*group_claims(params, incidence, group), 200.0, n, 1).mean
        path = (params, exposure, total_reserve, 200.0)
        flags = [simulate_ruin_path_per_object(*path, StreamKey(2, (r,))) for r in range(n)]
        reference = sum(flags) / n
        se = math.hypot(*(math.sqrt(p * (1 - p) / n) for p in (merged, reference)))
        assert 0.1 < reference < 0.9
        assert abs(merged - reference) < 4 * se


#: ``oracle_psi`` on Bernoulli(0.5) networks at horizon 50, 40 networks of 16
#: paths, unit reserves: ``(q, d, group size, c, mu, seed)`` and the
#: ``(mean, stderr)`` it returns, as float hex.
ORACLE_PINS = [
    ((3, 4, 3, [0.9, 1.0, 1.1, 1.3], [1.0, 0.7, 1.3, 1.1], 11),
     ("0x1.1733333333333p-1", "0x1.6738361d7fe9fp-6")),
    ((4, 3, 3, [1.05, 0.95, 1.2], [0.3, 0.9, 1.7], 12),
     ("0x1.0000000000000p-4", "0x1.7b443ccb281b6p-6")),
    ((4, 4, 4, [1.1, 1.0, 0.9, 1.2], [1.1, 0.7, 0.3, 2.3], 13),
     ("0x1.599999999999ap-5", "0x1.35c992ae51369p-6")),
    ((5, 3, 5, [1.0, 1.3, 0.9], [0.7, 1.9, 1.1], 14),
     ("0x1.5c00000000000p-1", "0x1.9bdee191f4042p-6")),
    ((5, 4, 4, [0.95, 1.05, 1.15, 1.0], [1.3, 0.3, 0.7, 1.7], 15),
     ("0x1.3333333333333p-8", "0x1.c539ba1232f98p-9")),
]


class TestOracleExposure:
    """The oracle's claim process rests on the group's exposure being
    ``r_q / mu_j`` on every object a member insures: the summed proportional
    weights."""

    @pytest.mark.parametrize(
        "case, pinned", ORACLE_PINS, ids=[f"seed{case[-1]}" for case, _ in ORACLE_PINS]
    )
    def test_groups_of_three_to_five_keep_their_results(self, case, pinned):
        q, d, size, c, mu, seed = case
        params = RiskParams(lam=1.0, c=c, mu=mu, u=np.ones(q))
        model, group = BlockModel.bernoulli(0.5), AgentSubset.prefix(size)
        est = oracle_psi(params, model, group, 50.0, 40, 16, seed)
        assert (est.mean.hex(), est.stderr.hex()) == pinned

    def test_time_and_money_scalings_are_exact(self):
        # doubling lam and c while halving the horizon halves every epoch;
        # doubling c, mu and u doubles r_q and every claim.  Both are exact
        # in binary, so the oracle's result keeps its bits
        (q, d, size, c, mu, seed), _ = ORACLE_PINS[0]
        model, group = BlockModel.bernoulli(0.5), AgentSubset.prefix(size)
        c, mu = np.asarray(c), np.asarray(mu)

        def run(lam, c, mu, u, horizon):
            params = RiskParams(lam=lam, c=c, mu=mu, u=np.full(q, u))
            return oracle_psi(params, model, group, horizon, 40, 16, seed)

        base = run(1.0, c, mu, 1.0, 50.0)
        assert run(2.0, 2 * c, mu, 1.0, 25.0) == base
        assert run(1.0, 2 * c, 2 * mu, 2.0, 50.0) == base

    def test_summed_weights_are_r_over_mu_on_connected_objects(self):
        # bit for bit for one and two members (x/2 + x/2 is exact), within
        # 2 ulp for three to five
        rng = np.random.default_rng(77)
        for _ in range(300):
            q, d = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            params = RiskParams(
                lam=1.0, c=rng.uniform(0.8, 1.3, d), mu=rng.uniform(0.2, 3.0, d), u=np.ones(q)
            )
            group = AgentSubset.prefix(int(rng.integers(1, q + 1)))
            incidence = rng.random((q, d)) < 0.5
            summed, _ = group_exposure(params, incidence, group)
            direct = np.where(
                incidence[: group.size].any(axis=0), proportional_r(params, group) / params.mu, 0.0
            )
            if group.size <= 2:
                np.testing.assert_array_equal(summed, direct)
            else:
                np.testing.assert_array_max_ulp(summed, direct, maxulp=2)


class TestOraclePsi:
    def test_degenerate_network(self):
        params = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[1.0])
        est = oracle_psi(
            params,
            BlockModel.bernoulli(1.0),
            AgentSubset.prefix(1),
            horizon=1000.0,
            outer_networks=10,
            inner_paths=2000,
            base_seed=23,
        )
        assert abs(est.mean - 0.90810) < 0.01

    def test_cross_validates_ruin_estimator(self):
        params = RiskParams(lam=1.0, c=[0.95, 1.05], mu=[1.0, 1.0], u=[1.0, 1.0])
        model = BlockModel.bernoulli(0.5)
        group = AgentSubset.prefix(2)
        oracle = oracle_psi(
            params, model, group,
            horizon=1000.0, outer_networks=150, inner_paths=300, base_seed=29,
        )
        direct = estimate_psi(params, model, group, B=100_000, base_seed=29)
        tol = max(0.02, 4 * math.hypot(oracle.stderr, direct.stderr))
        assert abs(oracle.mean - direct.mean) <= tol

    def test_validates_arguments(self):
        params = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[1.0])
        model = BlockModel.bernoulli(1.0)
        group = AgentSubset.prefix(1)
        with pytest.raises(ValueError):
            oracle_psi(params, model, group, 100.0, outer_networks=1, inner_paths=10, base_seed=0)
        with pytest.raises(ValueError):
            oracle_psi(params, model, group, 100.0, outer_networks=2, inner_paths=0, base_seed=0)
        zero_reserve = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[0.0])
        with pytest.raises(ValueError, match="reserve"):
            oracle_psi(zero_reserve, model, group, 100.0, 2, 10, 0)

    def test_rejects_bad_horizon(self):
        params = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[1.0])
        model = BlockModel.bernoulli(1.0)
        group = AgentSubset.prefix(1)
        for horizon in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                oracle_psi(params, model, group, horizon, 2, 1, base_seed=0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_oracle_workload_against_exact_law(self, seed):
        # the benchmark's oracle model; the premiums keep the horizon bias
        # (exact - oracle, about 0.003 here) well inside the sampling error
        params = RiskParams(lam=1.0, c=[0.95, 1.15], mu=[1.0, 1.0], u=[1.0, 1.0])
        model = BlockModel.bernoulli(0.5)
        group = AgentSubset.prefix(2)
        exact = exact_law(params, model, group).psi
        oracle = oracle_psi(
            params, model, group,
            horizon=1000.0, outer_networks=1200, inner_paths=5, base_seed=seed,
        )
        assert abs(oracle.mean - exact) <= 4 * oracle.stderr, (oracle, exact)

    def test_thread_count_never_changes_result(self):
        params = RiskParams(lam=1.0, c=[0.95, 1.05], mu=[1.0, 1.0], u=[1.0, 1.0])
        model = BlockModel.bernoulli(0.5)
        group = AgentSubset.prefix(2)
        kwargs = dict(horizon=50.0, outer_networks=20, inner_paths=50, base_seed=31)
        a = oracle_psi(params, model, group, **kwargs, threads=1)
        b = oracle_psi(params, model, group, **kwargs, threads=4)
        assert a == b

    def test_thread_count_never_changes_result_across_blocks_and_batches(self):
        # a partial last network block, and networks whose paths span
        # batches; a sparse network leaves most paths unexposed, which keeps
        # the test fast
        params = RiskParams(lam=1.0, c=[0.95, 1.05], mu=[1.0, 1.0], u=[1.0, 1.0])
        model = BlockModel.bernoulli(0.1)
        group = AgentSubset.prefix(1)
        kwargs = dict(
            horizon=3.0,
            outer_networks=NETWORK_BLOCK + 5,
            inner_paths=PATH_BATCH + 3,
            base_seed=37,
        )
        results = [oracle_psi(params, model, group, **kwargs, threads=t) for t in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert 0.0 < results[0].mean < 1.0
