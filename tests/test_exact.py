"""The exact law of the PK ratio against brute-force enumeration, and the
Monte-Carlo estimator against the exact law."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from exact_reference import MAX_LATTICE, assert_agrees, exact_law, poisson_tails
from ruin_reference import exhaustive_graph_psi
from ruinnet.cli import S_SHAPE, U_SHAPE, classify_shape, load_config
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel
from ruinnet.ruin import EstimateWithCI, RuinEstimate, estimate
from test_acceptance import exact_tail

GOLDEN_ESTIMATE = Path(__file__).parent / "golden" / "estimate" / "config.json"

#: Every committed output whose estimates the exact law can enumerate: its
#: directory under ``tests/`` and the command that printed it.
ENUMERABLE_GOLDENS = {
    "golden/estimate": "estimate",
    "golden/oracle": "oracle",
    "golden/table": "table",
    "golden/sweep": "sweep",
    "golden/sweep_mixed": "sweep",
    "exact_at_scale": "sweep",
}


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
            (est,) = estimate(params, SBM_WORKLOAD, group, [size], 8192, seed).estimates
            assert abs(law.z_psi(est.psi.mean, 8192)) <= 4, (size, est.psi, law)
            assert abs(law.z_tail(est.tail.mean, 8192)) <= 4, (size, est.tail, law)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_reserve(self, seed):
        # psi is E[min(PK, 1)] when the group holds no reserve
        params = sbm_workload_params(reserve=0.0)
        for size in range(1, 7):
            group = AgentSubset.prefix(size)
            law = exact_law(params, SBM_WORKLOAD, group)
            (est,) = estimate(params, SBM_WORKLOAD, group, [size], 8192, seed).estimates
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
            (est,) = estimate(params, model, group, [size], 20_000, 11).estimates
            assert abs(law.z_psi(est.psi.mean, 20_000)) <= 4, (size, est.psi, law)
            assert abs(law.z_tail(est.tail.mean, 20_000)) <= 4, (size, est.tail, law)

    @pytest.mark.parametrize("method", ["collapsed", "graph"])
    def test_golden_estimate_config(self, method):
        cfg = load_config(str(GOLDEN_ESTIMATE))
        params = cfg.risk_params()
        law = exact_law(params, cfg.network, cfg.group)
        args = (params, cfg.network, cfg.group, [cfg.group.size], cfg.replicates, cfg.seed)
        (est,) = estimate(*args, method=method).estimates
        assert abs(law.z_psi(est.psi.mean, cfg.replicates)) <= 4
        assert abs(law.z_tail(est.tail.mean, cfg.replicates)) <= 4

    def test_golden_estimate_output(self):
        # every committed psi_hat and tail_hat (the table's estimate column)
        # against the exact law of its point: a golden is regenerated by
        # running the command, and this is what checks the new bytes
        for case, command in ENUMERABLE_GOLDENS.items():
            where = Path(__file__).parent / case
            cfg = load_config(str(where / "config.json"))
            out = json.loads((where / "stdout.json").read_text())
            B = cfg.replicates
            for row in out if isinstance(out, list) else [out]:
                params = cfg.risk_params(ns_override=row.get("ns"))
                group = AgentSubset.prefix(row["qsize"]) if command == "sweep" else cfg.group
                law = exact_law(params, cfg.network, group)
                psi, tail = row.get("psi_hat"), row.get("tail_hat", row.get("estimate"))
                note = (case, row)
                if psi is not None and tail is not None:
                    est = RuinEstimate(EstimateWithCI(psi, 0.0, B), EstimateWithCI(tail, 0.0, B))
                    assert_agrees(law, est, B, note)
                elif psi is not None:
                    assert abs(law.z_psi(psi, B)) <= 4, note
                else:
                    assert abs(law.z_tail(tail, B)) <= 4, note


class TestPrefixEstimatesAgainstExactLaw:
    """Every group of one nested draw within the exact law's bounds
    (:func:`exact_reference.assert_agrees`).  The seeds are fixed in
    advance; one call's groups share their draws, so their errors are
    positively correlated."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_workload(self, seed):
        # every (ns, k) point of the benchmark's sweep: q = d = 10, p = 0.5
        model = BlockModel.bernoulli(0.5)
        for ns in (3, 4, 5, 6):
            params = sbm_workload_params(ns=ns, d=10, q=10)
            everyone = AgentSubset.prefix(10)
            estimates = estimate(params, model, everyone, range(1, 11), 100_000, seed).estimates
            for size, est in enumerate(estimates, start=1):
                law = exact_law(params, model, AgentSubset.prefix(size))
                assert_agrees(law, est, 100_000, (ns, size))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sbm_workload(self, seed):
        params = sbm_workload_params()
        everyone = AgentSubset.prefix(params.q)
        estimates = estimate(params, SBM_WORKLOAD, everyone, range(1, 7), 8192, seed).estimates
        for size, est in enumerate(estimates, start=1):
            law = exact_law(params, SBM_WORKLOAD, AgentSubset.prefix(size))
            assert_agrees(law, est, 8192, size)

    def test_rare_tail_takes_the_poisson_bound(self):
        # ns = 6, k = 9 of the sweep: a tail of 1.5e-7, so B * tail is 0.015
        params = sbm_workload_params(ns=6, d=10, q=10)
        law = exact_law(params, BlockModel.bernoulli(0.5), AgentSubset.prefix(9))
        assert 1e-7 < law.tail < 2e-7
        # two hits are still within the bound (P = 1.1e-4), three are not
        # (5e-7); psi may fall below 1 by at most one per hit
        cases = [(0, 0.0, True), (1, 0.5, True), (2, 1.0, True), (3, 1.0, False), (1, 1.5, False)]
        for hits, deficit, agrees in cases:
            psi = EstimateWithCI(1.0 - deficit / 1e5, 0.0, 100_000)
            tail = EstimateWithCI(hits / 1e5, 0.0, 100_000)
            if hits:  # a normal approximation rejects even one hit
                assert abs(law.z_tail(tail.mean, 100_000)) > 4
            if agrees:
                assert_agrees(law, RuinEstimate(psi, tail), 100_000)
            else:
                with pytest.raises(AssertionError):
                    assert_agrees(law, RuinEstimate(psi, tail), 100_000)

    @pytest.mark.parametrize("mean, count", [(0.5, 0), (3.0, 2), (7.5, 12), (15.0, 4)])
    def test_poisson_tails(self, mean, count):
        k = np.arange(200)
        pmf = np.exp(k * np.log(mean) - mean - np.array([math.lgamma(i + 1) for i in k]))
        low, high = poisson_tails(mean, count)
        assert low == pytest.approx(pmf[: count + 1].sum(), rel=1e-12)
        assert high == pytest.approx(pmf[count:].sum(), rel=1e-9)


class TestPhaseDiagram:
    """The paper's phase transition on the exact ``psi`` curves, with no
    sampling error: the setting of acceptance criterion 6 and of the
    benchmark's ``sweep``."""

    def test_sweep_shapes_are_u_then_s(self):
        model = BlockModel.bernoulli(0.5)
        shapes, argmins = {}, {}
        for ns in (4, 5, 6):
            params = sbm_workload_params(ns=ns, d=10, q=10)
            psi = [exact_law(params, model, AgentSubset.prefix(k)).psi for k in range(1, 11)]
            # classify_shape reads only the group size and log10(psi)
            rows = [
                SimpleNamespace(qsize=k, log10_psi=math.log10(p))
                for k, p in enumerate(psi, start=1)
            ]
            shapes[ns] = classify_shape(rows)
            argmins[ns] = int(np.argmin(psi)) + 1
        assert shapes == {4: U_SHAPE, 5: S_SHAPE, 6: S_SHAPE}
        assert argmins[4] == 6
