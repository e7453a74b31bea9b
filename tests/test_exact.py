"""The exact law of the PK ratio against brute-force enumeration, and the
Monte-Carlo estimator against the exact law."""

import json
from pathlib import Path

import numpy as np
import pytest

from exact_reference import MAX_LATTICE, exact_law
from ruin_reference import exhaustive_graph_psi
from ruinnet.cli import load_config
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel
from ruinnet.ruin import estimate
from test_acceptance import exact_tail

GOLDEN_ESTIMATE = Path(__file__).parent / "golden" / "estimate" / "config.json"


def random_instance(rng, q_max=3, d_max=4):
    """A tiny instance with continuous ``c``/``mu``, so no PK ratio sits at 1."""
    q = int(rng.integers(1, q_max + 1))
    d = int(rng.integers(1, d_max + 1))
    K = int(rng.integers(1, 3))
    L = int(rng.integers(1, 3))
    model = BlockModel(
        w=rng.dirichlet(np.ones(K)), v=rng.dirichlet(np.ones(L)), p=rng.uniform(size=(K, L))
    )
    mu = rng.uniform(0.5, 2.0, d)
    params = RiskParams(
        lam=float(rng.uniform(0.5, 1.5)),
        c=rng.uniform(0.6, 1.6, d) * mu,
        mu=mu,
        u=rng.uniform(0.2, 1.5, q),
    )
    return params, model, AgentSubset.prefix(int(rng.integers(1, q + 1)))


EDGE_MODELS = {
    "p_zero_and_one": BlockModel(w=[0.5, 0.5], v=[0.5, 0.5], p=[[1.0, 0.0], [0.0, 1.0]]),
    "zero_w_entry": BlockModel(w=[0.0, 1.0], v=[0.4, 0.6], p=[[1.0, 1.0], [0.3, 0.6]]),
    "zero_v_entry": BlockModel(w=[0.3, 0.7], v=[0.0, 1.0], p=[[0.9, 0.2], [0.9, 0.5]]),
    "never_connects": BlockModel(w=[0.5, 0.5], v=[0.5, 0.5], p=np.zeros((2, 2))),
    "always_connects": BlockModel(w=[0.5, 0.5], v=[0.1, 0.2, 0.7], p=np.ones((2, 3))),
}


class TestAgainstEnumeration:
    def test_tail_matches_types_and_indicators(self):
        rng = np.random.default_rng(2718)
        for _ in range(40):
            params, model, group = random_instance(rng)
            assert exact_law(params, model, group).tail == pytest.approx(
                exact_tail(params, model, group), abs=1e-12
            )

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    @pytest.mark.parametrize("size", [1, 3])
    def test_tail_on_edge_models(self, name, size):
        # groups of one agent and of all q = 3 agents, four objects in three classes
        mu = np.array([1.0, 2.0, 0.5, 1.0])
        params = RiskParams(lam=1.0, c=np.array([0.9, 2.3, 0.6, 1.2]), mu=mu, u=np.ones(3))
        group = AgentSubset.prefix(size)
        model = EDGE_MODELS[name]
        assert exact_law(params, model, group).tail == pytest.approx(
            exact_tail(params, model, group), abs=1e-12
        )

    def test_psi_matches_graph_enumeration(self):
        rng = np.random.default_rng(3141)
        for _ in range(10):
            params, _, group = random_instance(rng, q_max=3, d_max=3)
            edge_p = float(rng.uniform(0.1, 0.9))
            law = exact_law(params, BlockModel.bernoulli(edge_p), group)
            assert law.psi == pytest.approx(exhaustive_graph_psi(params, edge_p, group), abs=1e-12)
            assert law.psi**2 <= law.psi_sq + 1e-15 and law.psi_sq <= law.psi + 1e-15

    def test_zero_reserve_gives_capped_pk(self):
        params = RiskParams(lam=1.0, c=np.array([0.9, 1.2]), mu=np.ones(2), u=np.zeros(2))
        law = exact_law(params, BlockModel.bernoulli(0.5), AgentSubset.prefix(2))
        # each object connects with probability 3/4.  PK is 0 when neither
        # connects, 1/0.9 when the 0.9 object connects alone, 1/1.2 when the
        # 1.2 object does, and 2/2.1 when both do; psi is E[min(PK, 1)]
        alone = 0.75 * 0.25
        assert law.psi == pytest.approx(alone * 1.0 + alone / 1.2 + 0.75**2 * 2 / 2.1, abs=1e-15)
        assert law.psi_sq == pytest.approx(
            alone * 1.0 + alone / 1.2**2 + 0.75**2 * (2 / 2.1) ** 2, abs=1e-15
        )
        # PK >= 1 only when the 0.9 object connects alone
        assert law.tail == pytest.approx(1.0 - alone, abs=1e-15)

    def test_lattice_is_capped(self):
        params = RiskParams(lam=1.0, c=np.ones(MAX_LATTICE), mu=np.ones(MAX_LATTICE), u=[1.0])
        with pytest.raises(ValueError, match="exceeds"):
            exact_law(params, BlockModel.bernoulli(0.5), AgentSubset.prefix(1))


def sbm_workload_params(ns=50, d=100, q=6, reserve=1.0):
    c = np.full(d, 1.05)
    c[:ns] = 0.95
    return RiskParams(lam=1.0, c=c, mu=np.ones(d), u=np.full(q, reserve))


SBM_WORKLOAD = BlockModel(
    w=[0.5, 0.3, 0.2],
    v=[0.5, 0.3, 0.2],
    p=[[0.3, 0.05, 0.05], [0.05, 0.3, 0.05], [0.05, 0.05, 0.3]],
)


class TestEstimateAgainstExactLaw:
    """Every estimate within 4 standard errors of the exact law.  The seeds
    are fixed in advance: one seed's sweep points share block streams, so
    their errors are correlated across group sizes."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_sbm_workload_sweep(self, seed):
        params = sbm_workload_params()
        for size in range(1, 7):
            group = AgentSubset.prefix(size)
            law = exact_law(params, SBM_WORKLOAD, group)
            est = estimate(params, SBM_WORKLOAD, group, 8192, seed)
            assert abs(law.z_psi(est.psi.mean, 8192)) <= 4, (size, est.psi, law)
            assert abs(law.z_tail(est.tail.mean, 8192)) <= 4, (size, est.tail, law)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_reserve(self, seed):
        # psi is E[min(PK, 1)] when the group holds no reserve
        params = sbm_workload_params(reserve=0.0)
        for size in range(1, 7):
            group = AgentSubset.prefix(size)
            law = exact_law(params, SBM_WORKLOAD, group)
            est = estimate(params, SBM_WORKLOAD, group, 8192, seed)
            assert abs(law.z_psi(est.psi.mean, 8192)) <= 4, (size, est.psi, law)
            assert abs(law.z_tail(est.tail.mean, 8192)) <= 4, (size, est.tail, law)

    @pytest.mark.parametrize(
        "model",
        [
            BlockModel(w=[1.0], v=[0.3, 0.7], p=[[0.8, 0.1]]),
            BlockModel(w=[0.3, 0.7], v=[1.0], p=[[0.8], [0.1]]),
        ],
        ids=["object_types_only", "agent_types_only"],
    )
    def test_one_type_axis(self, model):
        mu = np.array([1.0, 2.0, 0.5, 1.0, 1.5, 0.8])
        c = np.array([0.9, 2.3, 0.6, 1.2, 1.4, 0.85])
        params = RiskParams(lam=1.0, c=c, mu=mu, u=np.ones(3))
        for size in (1, 2, 3):
            group = AgentSubset.prefix(size)
            law = exact_law(params, model, group)
            est = estimate(params, model, group, 20_000, 11)
            assert abs(law.z_psi(est.psi.mean, 20_000)) <= 4, (size, est.psi, law)
            assert abs(law.z_tail(est.tail.mean, 20_000)) <= 4, (size, est.tail, law)

    @pytest.mark.parametrize("method", ["collapsed", "graph"])
    def test_golden_estimate_config(self, method):
        cfg = load_config(str(GOLDEN_ESTIMATE))
        params = cfg.risk_params()
        law = exact_law(params, cfg.network, cfg.group)
        est = estimate(params, cfg.network, cfg.group, cfg.replicates, cfg.seed, method=method)
        assert abs(law.z_psi(est.psi.mean, cfg.replicates)) <= 4
        assert abs(law.z_tail(est.tail.mean, cfg.replicates)) <= 4

    def test_golden_estimate_output(self):
        # the pinned stdout of the estimate command against the exact law
        cfg = load_config(str(GOLDEN_ESTIMATE))
        law = exact_law(cfg.risk_params(), cfg.network, cfg.group)
        out = json.loads((GOLDEN_ESTIMATE.parent / "stdout.json").read_text())
        assert abs(law.z_psi(out["psi_hat"], cfg.replicates)) <= 4
        assert abs(law.z_tail(out["tail_hat"], cfg.replicates)) <= 4
