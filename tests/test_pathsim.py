"""Tests for the compound-Poisson path simulator and the nested oracle."""

import math

import numpy as np
import pytest

from exact_reference import exact_law
from model_reference import classical_ruin
from pathsim_reference import (
    group_exposure,
    ruin_flags,
    ruin_frequency,
    ruin_path,
    simulate_ruin_path_per_object,
)
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel
from ruinnet.pathsim import NETWORK_BLOCK, PATH_BATCH, oracle_psi, simulate_ruin_batch
from ruinnet.ruin import estimate_psi
from ruinnet.streams import StreamKey


def single_object(c=1.05, u=1.0):
    """``(params, exposure, total reserve)`` of one agent insuring one object."""
    params = RiskParams(lam=1.0, c=[c], mu=[1.0], u=[u])
    return (params, *group_exposure(params, np.ones((1, 1)), AgentSubset.prefix(1)))


def one_agent(exposure, c, mu, lam=1.0, u=1.0):
    """A one-agent group carrying share ``exposure[j]`` of object ``j``."""
    params = RiskParams(lam=lam, c=c, mu=mu, u=[u])
    return params, np.asarray(exposure, dtype=float), float(u)


class TestSimulateRuinPath:
    def test_no_exposure_never_ruins(self):
        params = RiskParams(lam=1.0, c=[0.5, 0.5], mu=[1.0, 1.0], u=[1.0, 1.0])
        case = group_exposure(params, np.zeros((2, 2)), AgentSubset.prefix(2))
        assert not any(
            ruin_path(params, *case, 100.0, StreamKey(0, (5, r))) for r in range(200)
        )

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
            case = group_exposure(params, np.ones((2, 2)), group)
            runs[name] = ruin_frequency(params, *case, 500.0, paths=500, base_seed=19).mean
        assert runs["bad"] > 0.95
        assert runs["good"] < 0.2

    def test_batch_flags_monotone_in_horizon(self):
        # several kernel batches of multi-object paths: each path's claims are
        # replayed by a longer horizon, so no path that ruins can stop ruining
        case = one_agent([0.2, 0.5, 0.9], c=[1.3, 1.1, 0.4], mu=[3.0, 1.0, 0.25])
        paths = 3 * PATH_BATCH - 100
        outcomes = [
            ruin_flags(*case, horizon, paths, base_seed=17) for horizon in (2.0, 10.0, 60.0, 300.0)
        ]
        for shorter, longer in zip(outcomes, outcomes[1:]):
            assert not (shorter & ~longer).any()
            assert (longer & ~shorter).any()

    def test_batch_rows_without_exposure_never_ruin(self):
        params = RiskParams(lam=1.0, c=[0.5, 0.5], mu=[1.0, 1.0], u=[0.1])
        exposure = np.zeros((PATH_BATCH, 2))
        exposure[::2] = [0.5, 0.5]  # every other row exposed, under negative loading
        flags = simulate_ruin_batch(params, exposure, 0.1, 500.0, np.random.default_rng(3))
        assert not flags[1::2].any()
        assert flags[::2].all()

    def test_batch_rejects_more_rows_than_a_batch(self):
        params = RiskParams(lam=1.0, c=[1.0], mu=[1.0], u=[1.0])
        with pytest.raises(ValueError, match="rows"):
            simulate_ruin_batch(
                params, np.ones((PATH_BATCH + 1, 1)), 1.0, 10.0, np.random.default_rng(0)
            )

    def test_deterministic_per_key(self):
        case = single_object()
        flags1 = [ruin_path(*case, 1000.0, StreamKey(9, (2, r))) for r in range(100)]
        flags2 = [ruin_path(*case, 1000.0, StreamKey(9, (2, r))) for r in range(100)]
        assert flags1 == flags2


class TestMergedClaimStream:
    def test_fixed_keys_regression(self):
        # survivors among 200 fixed keys, as the per-object simulator gave them
        case = single_object(c=1.05, u=1.0)
        survivors = [r for r in range(200) if not ruin_path(*case, 1000.0, StreamKey(9, (2, r)))]
        assert survivors == [
            14, 20, 22, 33, 34, 38, 42, 44, 50, 54, 59, 67, 78, 109, 140, 142, 149, 150, 163, 176
        ]

    def test_single_exposed_object_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for case in range(30):
            d = int(rng.integers(1, 5))
            exposure = np.zeros(d)
            exposure[rng.integers(d)] = rng.uniform(0.1, 1.0)
            path = one_agent(
                exposure,
                c=rng.uniform(0.2, 2.0, d),
                mu=rng.uniform(0.2, 2.0, d),
                lam=float(rng.uniform(0.5, 2.0)),
                u=float(rng.uniform(0.1, 3.0)),
            ) + (float(rng.uniform(1.0, 300.0)),)
            for r in range(25):
                key = StreamKey(case, (7, r))
                assert ruin_path(*path, key) == simulate_ruin_path_per_object(*path, key)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # exposure_j * mu_j differs between objects, so the object marks matter
            dict(exposure=[0.2, 0.5, 0.9], c=[3.3, 1.1, 0.3], mu=[3.0, 1.0, 0.25]),
            dict(exposure=[1.0, 0.1], c=[1.5, 13.0], mu=[0.5, 8.0], lam=2.0),
        ],
    )
    def test_several_objects_agree_with_reference_in_distribution(self, kwargs):
        path = one_agent(**kwargs) + (200.0,)
        n = 4000
        merged = sum(ruin_path(*path, StreamKey(1, (r,))) for r in range(n)) / n
        reference = sum(
            simulate_ruin_path_per_object(*path, StreamKey(2, (r,))) for r in range(n)
        ) / n
        se = math.hypot(*(math.sqrt(p * (1 - p) / n) for p in (merged, reference)))
        assert 0.1 < reference < 0.9
        assert abs(merged - reference) < 4 * se


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
