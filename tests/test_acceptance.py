"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``ACCEPTANCE n PASS/FAIL`` line (run with
``pytest -s`` to see them) and asserts the criterion at its stated
tolerance.
"""

import itertools
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from ruin_reference import pk_value
from ruinnet.cli import S_SHAPE, U_SHAPE, classify_shape, cmd_sweep, main, parse_config
from ruinnet.model import AgentSubset, RiskParams
from ruinnet.netgen import BlockModel
from pathsim_reference import group_claims, ruin_frequency
from ruinnet.ruin import estimate, estimate_psi
from ruinnet.approx import mixture_probability

TABLE_NS = (49_000, 49_500, 49_900, 50_000, 50_100, 50_500, 51_000)
TABLE_APPROX = (1.000, 0.973, 0.650, 0.500, 0.350, 0.027, 0.000)


def table_setting(ns, d=100_000, size_q=100, beta=0.5):
    c = np.full(d, 1.05)
    c[:ns] = 0.95
    params = RiskParams(lam=1.0, c=c, mu=np.ones(d), u=np.ones(size_q))
    model = BlockModel.bernoulli(d**-beta)
    return params, model, AgentSubset.prefix(size_q)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_table_bound():
    start = time.perf_counter()
    bounds = []
    for ns in TABLE_NS:
        params, model, group = table_setting(ns)
        (res,) = mixture_probability(params, model, [group.size], mode="exact").results
        bounds.append(res.stein_bound)
    elapsed = time.perf_counter() - start
    ok = all(abs(b - 0.040) <= 0.001 for b in bounds) and elapsed < 1.0
    report(
        1,
        ok,
        f"closed-form bound {min(bounds):.4f}..{max(bounds):.4f} "
        f"vs 0.040±0.001 in {elapsed:.2f}s",
    )


def test_criterion_2_table_approximation():
    start = time.perf_counter()
    worst = 0.0
    for ns, target in zip(TABLE_NS, TABLE_APPROX):
        params, model, group = table_setting(ns)
        prob = mixture_probability(params, model, [group.size], mode="exact").results[0].probability
        worst = max(worst, abs(prob - target))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.005 and elapsed < 1.0
    report(2, ok, f"max |approximation - reference| = {worst:.4f} <= 0.005 in {elapsed:.2f}s")


def test_criterion_3_table_estimate():
    start = time.perf_counter()
    rows = []
    for ns in TABLE_NS:
        params, model, group = table_setting(ns)
        ap = mixture_probability(params, model, [group.size], mode="exact").results[0]
        args = (params, model, group, [group.size])
        (est,) = estimate(*args, B=1000, base_seed=42, threads=1).estimates
        est = est.tail
        tol = ap.stein_bound + 2 * est.stderr
        rows.append((ns, abs(est.mean - ap.probability), tol))
    elapsed = time.perf_counter() - start
    ok = all(diff <= tol for _, diff, tol in rows) and elapsed < 30.0
    worst = max(diff / tol for _, diff, tol in rows)
    report(3, ok, f"every row inside approx±(bound+2se); worst ratio {worst:.2f} in {elapsed:.1f}s")


def exact_tail(params, model, group):
    """Exact P(PK ratio < 1) by enumerating types and indicator vectors."""
    total = 0.0
    for s in itertools.product(range(model.K), repeat=group.size):
        w_s = float(np.prod([model.w[k] for k in s]))
        if w_s == 0.0:
            continue
        for t in itertools.product(range(model.L), repeat=params.d):
            v_t = float(np.prod([model.v[l] for l in t]))
            if v_t == 0.0:
                continue
            pj = [
                1.0 - float(np.prod([1.0 - model.p[k, tj] for k in s])) for tj in t
            ]
            for bits in itertools.product((0, 1), repeat=params.d):
                pr = w_s * v_t
                for j, b in enumerate(bits):
                    pr *= pj[j] if b else 1.0 - pj[j]
                if pr > 0.0 and pk_value(np.array(bits, dtype=bool), params) < 1.0:
                    total += pr
    return total


def test_criterion_4_bound_never_violated():
    start = time.perf_counter()
    rng = np.random.default_rng(20240809)
    worst_margin = -math.inf
    for _ in range(50):
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
        xi[np.abs(xi - 1.0) < 0.02] = 1.1
        mu = rng.uniform(0.5, 2.0, d)
        params = RiskParams(lam=1.0, c=xi * mu, mu=mu, u=np.ones(q))
        group = AgentSubset.prefix(int(rng.integers(1, q + 1)))
        exact = exact_tail(params, model, group)
        res = mixture_probability(params, model, [group.size], mode="exact").results[0]
        worst_margin = max(worst_margin, abs(exact - res.probability) - res.stein_bound)
    elapsed = time.perf_counter() - start
    ok = worst_margin <= 1e-12 and elapsed < 60.0
    report(4, ok, f"50 instances, worst |exact-approx|-bound = {worst_margin:.3g} in {elapsed:.1f}s")


def test_criterion_5_degenerate_closed_form():
    params = RiskParams(lam=1.0, c=[1.05], mu=[1.0], u=[1.0])
    model = BlockModel.bernoulli(1.0)
    group = AgentSubset.prefix(1)
    est = estimate_psi(params, model, group, B=1000, base_seed=42)
    claims = group_claims(params, np.ones((1, 1)), group)
    freq = ruin_frequency(*claims, 1000.0, paths=100_000, base_seed=42)
    ok = (
        abs(est.mean - 0.90810) <= 1e-5
        and est.stderr <= 1e-12
        and abs(freq.mean - est.mean) <= 0.01
    )
    report(
        5,
        ok,
        f"estimate {est.mean:.6f} (stderr {est.stderr:.1e}), "
        f"path frequency {freq.mean:.4f} within 0.01",
    )


def test_criterion_6_phase_transition_shapes():
    start = time.perf_counter()
    doc = {
        "lambda": 1.0,
        "q": 10,
        "d": 10,
        "premiums": {"low": 0.95, "high": 1.05},
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": 0.5},
        "replicates": 100_000,
        "seed": 42,
        "ns_grid": [4, 5, 6],
    }
    rows = [SimpleNamespace(**r) for r in cmd_sweep(parse_config(doc))]
    shapes = {}
    for ns in (4, 5, 6):
        panel = [r for r in rows if r.ns == ns]
        shapes[ns] = classify_shape(panel)
    panel4 = [r for r in rows if r.ns == 4]
    argmin = min(panel4, key=lambda r: r.psi_hat).qsize
    elapsed = time.perf_counter() - start
    ok = (
        shapes[4] == U_SHAPE
        and 1 < argmin < 10
        and shapes[5] == S_SHAPE
        and shapes[6] == S_SHAPE
        and elapsed < 300.0
    )
    report(
        6,
        ok,
        f"shapes ns4={shapes[4]} (argmin {argmin}), ns5={shapes[5]}, "
        f"ns6={shapes[6]} in {elapsed:.1f}s at B=1e5",
    )


def test_criterion_7_bound_rate():
    beta = 0.5
    bounds = []
    for d in (10_000, 40_000, 160_000):
        size_q = int(round(d**beta))
        params, model, group = table_setting(d // 2, d=d, size_q=size_q, beta=beta)
        (res,) = mixture_probability(params, model, [group.size], mode="exact").results
        bounds.append(res.stein_bound)
    ratios = [b / a for a, b in zip(bounds, bounds[1:])]
    ok = all(abs(r - 0.5) <= 0.05 for r in ratios)
    report(7, ok, f"bound(4d)/bound(d) ratios {ratios[0]:.4f}, {ratios[1]:.4f} = 0.5±10%")


def test_criterion_8_thread_determinism(tmp_path):
    doc = {
        "lambda": 1.0,
        "q": 10,
        "d": 10,
        "premiums": {"low": 0.95, "high": 1.05},
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": 0.5},
        "replicates": 20_000,
        "seed": 42,
        "ns_grid": [4, 5],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"sweep_{threads}.csv"
        rc = main(
            ["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", threads]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(8, ok, f"sweep CSV byte-identical across --threads 1 vs 3 ({len(outputs[0])} bytes)")


def test_criterion_9_group_exchangeability():
    c = np.full(10, 1.05)
    c[:5] = 0.95
    params = RiskParams(lam=1.0, c=c, mu=np.ones(10), u=np.ones(10))
    model = BlockModel.bernoulli(0.5)
    prefix = estimate_psi(
        params, model, AgentSubset.prefix(5), B=10_000, base_seed=17, method="graph"
    )
    scattered = estimate_psi(
        params, model, AgentSubset((2, 4, 6, 8, 10)), B=10_000, base_seed=17, method="graph"
    )
    diff = abs(prefix.mean - scattered.mean)
    tol = 4 * math.hypot(prefix.stderr, scattered.stderr)
    ok = diff < tol
    report(9, ok, f"prefix vs scattered subset differ by {diff:.4f} < {tol:.4f}")
