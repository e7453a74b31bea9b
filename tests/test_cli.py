"""Tests for configuration parsing, the CLI commands, output formats, and
the shape classifier."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cpu_features import avx512_features
from ruinnet import cli, model
from ruinnet.cli import (
    FLAT,
    MAX_AGENTS,
    MAX_INNER_PATHS,
    MAX_M_CONFIGS,
    MAX_OBJECTS,
    MAX_OUTER_NETWORKS,
    MAX_REPLICATES,
    S_SHAPE,
    U_SHAPE,
    ConfigError,
    SWEEP_FIELDS,
    TABLE_FIELDS,
    classify_shape,
    cmd_estimate,
    cmd_oracle,
    cmd_sweep,
    cmd_table,
    load_config,
    main,
    parse_config,
)
from ruinnet.output import fmt, render_csv, sweep_svg


def figure_doc(**extra):
    doc = {
        "lambda": 1.0,
        "q": 10,
        "d": 10,
        "premiums": {"low": 0.95, "high": 1.05},
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": 0.5},
        "replicates": 2000,
        "seed": 42,
    }
    doc.update(extra)
    return doc


def degenerate_doc(**extra):
    doc = {
        "lambda": 1.0,
        "q": 1,
        "d": 1,
        "premiums": [1.05],
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": 1.0},
        "group": {"size": 1},
        "replicates": 200,
        "seed": 1,
    }
    doc.update(extra)
    return doc


SBM_2X1 = {"kind": "sbm", "w": [0.5, 0.5], "v": [1.0], "p": [[0.4], [0.6]]}

BAD_ESTIMATE_INPUTS = [
    {"network": {"kind": "sbm", "w": [0.5, 0.5], "v": [1.0], "p": [[0.5], [math.nan]]}},
    {"network": {"kind": "sbm", "w": [math.nan, 1.0], "v": [1.0], "p": [[0.5], [0.5]]}},
    {"network": {"kind": "bernoulli", "p": math.inf}},
    {"mu": math.nan},
    {"reserves": [1.0, math.inf]},
    {"lambda": math.inf},
    {"premiums": [1.05, math.nan]},
    {"group": {"indices": "ab"}},
    {"threads": 0},
    {"group": {"size": 1e30}},
]

#: Overrides that turn ``degenerate_doc(q=2, d=2, ...)`` into a valid sweep.
SWEEP_2X2 = {"group": None, "premiums": {"low": 0.95, "high": 1.05}, "ns_grid": [1]}

#: Overrides that turn ``degenerate_doc(q=2, d=2, ...)`` into a valid table.
TABLE_2X2 = {"premiums": {"low": 0.95, "high": 1.05}, "ns_grid": [1]}

#: Positive drift on every path and an unbounded horizon: without a cap on
#: the expected claims per path, ``oracle`` never returns.
ENDLESS_HORIZON = {"premiums": [3.0, 3.0], "horizon": 1e30}

#: Test id -> ``(command, field, overrides)``: one non-integral, boolean,
#: string or too large value on ``degenerate_doc(q=2, d=2, ...)`` and the
#: field the error names.  An id is a fixed name, so adding or deleting a
#: case renames no other; the ids that end in a number keep the names they
#: were first tracked under, and a new case is named by its field and value.
NAMED_FIELD_INPUTS = {
    "q-0": ("estimate", "q", {"q": 2.5}),
    "d-1": ("estimate", "d", {"d": 2.5}),
    "seed-2": ("estimate", "seed", {"seed": True}),
    "seed-3": ("estimate", "seed", {"seed": 1.5}),
    "replicates-4": ("estimate", "replicates", {"replicates": 1000.9}),
    "threads-5": ("estimate", "threads", {"threads": 1.9}),
    "premiums.ns-6": (
        "estimate", "premiums.ns", {"premiums": {"low": 0.95, "high": 1.05, "ns": 1.5}}
    ),
    "group.size-7": ("estimate", "group.size", {"group": {"size": 1.5}}),
    "group.indices-8": ("estimate", "group.indices", {"group": {"indices": [1.5]}}),
    "network.kind-9": ("estimate", "network.kind", {"network": dict(SBM_2X1, kind="ring")}),
    "approx_mode-10": ("sweep", "approx_mode", dict(SWEEP_2X2, approx_mode="fast")),
    "ns_grid-11": ("sweep", "ns_grid", dict(SWEEP_2X2, ns_grid=[1.5])),
    "m_configs-12": ("sweep", "m_configs", dict(SWEEP_2X2, m_configs=200.5)),
    "outer_networks-13": ("oracle", "outer_networks", {"outer_networks": 3.5}),
    "inner_paths-14": ("oracle", "inner_paths", {"inner_paths": 2.5}),
    "horizon-15": ("oracle", "horizon", ENDLESS_HORIZON),
    "lambda-16": ("estimate", "lambda", {"lambda": True}),
    "mu-17": ("estimate", "mu", {"mu": True}),
    "horizon-18": ("estimate", "horizon", {"horizon": True}),
    "network.p-19": ("estimate", "network.p", {"network": {"kind": "bernoulli", "p": True}}),
    "reserves-20": ("estimate", "reserves", {"reserves": [1.0, True]}),
    "premiums-21": ("estimate", "premiums", {"premiums": [1.05, "1.1"]}),
    "horizon-22": ("estimate", "horizon", {"horizon": "1000"}),
    "network.v-23": ("estimate", "network.v", {"network": dict(SBM_2X1, v=[True])}),
    "network.p-24": ("estimate", "network.p", {"network": dict(SBM_2X1, p=[[0.4], [True]])}),
    "lambda-25": ("sweep", "lambda", dict(SWEEP_2X2, **{"lambda": "1.5"})),
    "premiums.low-26": (
        "sweep", "premiums.low", dict(SWEEP_2X2, premiums={"low": "0.95", "high": 1.05})
    ),
    "premiums.high-27": (
        "sweep", "premiums.high", dict(SWEEP_2X2, premiums={"low": 0.95, "high": True})
    ),
    "network.w-28": (
        "sweep", "network.w", dict(SWEEP_2X2, network=dict(SBM_2X1, w=[True, False]))
    ),
    # a network size over its cap never reaches numpy's allocator
    "q-2e9": ("estimate", "q", {"q": 2_000_000_000}),
    "q-1e300": ("estimate", "q", {"q": 1e300}),
    "d-2e9": ("estimate", "d", {"d": 2_000_000_000}),
    "d-1e300": ("estimate", "d", {"d": 1e300}),
    "q-sweep-2e9": ("sweep", "q", dict(SWEEP_2X2, q=2_000_000_000)),
    "d-table-2e9": ("table", "d", dict(TABLE_2X2, d=2_000_000_000)),
    "replicates-1": ("table", "replicates", dict(TABLE_2X2, replicates=1)),
    "replicates-0": ("estimate", "replicates", {"replicates": 0}),
}

#: A three-agent group, which ``table`` and ``estimate`` need on ``figure_doc()``.
TABLE_3 = {"group": {"size": 3}}

GOLDEN = Path(__file__).parent / "golden"
TABLE_AT_SCALE = Path(__file__).parent / "table_at_scale"


def run_main(tmp_path, capsys, command, doc):
    """``main`` on ``doc`` written to a config file: (exit code, stdout, stderr)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    rc = main([command, "--config", str(cfg_path)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParseConfig:
    def test_minimal_document(self):
        cfg = parse_config(figure_doc())
        assert cfg.q == 10 and cfg.d == 10 and cfg.seed == 42
        params = cfg.risk_params(ns_override=4)
        assert (params.c[:4] == 0.95).all() and (params.c[4:] == 1.05).all()

    @pytest.mark.parametrize(
        "breaker",
        [
            {"q": 0},
            {"premiums": {"low": 0.95}},
            {"premiums": [1.0, 1.0]},
            {"network": {"kind": "mystery"}},
            {"network": {"kind": "sbm", "w": [0.5, 0.5], "v": [1.0], "p": [[0.5]]}},
            {"group": {"wrong": 1}},
            {"reserves": [1.0, 1.0]},
            {"seed": -1},
            {"group": {"indices": "ab"}},
            {"group": {"size": [3]}},
            {"threads": 0},
            {"seed": "abc"},
            {"ns_grid": ["x"]},
        ],
    )
    def test_rejects_invalid_documents(self, breaker):
        with pytest.raises(ConfigError):
            parse_config(figure_doc(**breaker))

    def test_sbm_network(self):
        doc = figure_doc(
            network={
                "kind": "sbm",
                "w": [0.5, 0.5],
                "v": [1.0],
                "p": [[0.4], [0.6]],
            }
        )
        cfg = parse_config(doc)
        assert cfg.network.K == 2 and cfg.network.L == 1

    def test_seed_precedence(self, monkeypatch):
        monkeypatch.setenv("RUINNET_SEED", "7")
        doc = figure_doc()
        del doc["seed"]
        assert parse_config(doc).seed == 7
        assert parse_config(doc, {"seed": 9}).seed == 9
        monkeypatch.delenv("RUINNET_SEED")
        assert parse_config(doc).seed == 42

    def test_integral_floats_are_accepted(self):
        doc = figure_doc(q=10.0, replicates=1e3, seed=42.0, ns_grid=[4.0], group={"size": 3.0})
        cfg = parse_config(doc)
        assert (cfg.q, cfg.replicates, cfg.seed, cfg.ns_grid) == (10, 1000, 42, (4,))
        assert cfg.group.size == 3

    def test_group_indices(self):
        cfg = parse_config(figure_doc(group={"indices": [2, 5, 9]}))
        assert cfg.group.indices.tolist() == [2, 5, 9]


#: Test id -> ``(overrides, stderr)``: one key outside the table, at the top
#: level or inside an object, on ``degenerate_doc()``, and the error it gives.
#: The ids are fixed names, as in :data:`NAMED_FIELD_INPUTS`; a new case is
#: named by its key.
UNKNOWN_KEY_INPUTS = {
    "unknown-0": (
        {"replicatess": 5},
        "unknown config key 'replicatess' (did you mean 'replicates'?)",
    ),
    "unknown-1": ({"lam": 1.0}, "unknown config key 'lam' (did you mean 'lambda'?)"),
    "unknown-2": ({"zzz": 1}, "unknown config key 'zzz'"),
    "unknown-3": (
        {"network": {"kind": "bernoulli", "p": 1.0, "pp": 0.5}},
        "unknown config key 'network.pp' (did you mean 'network.p'?)",
    ),
    "unknown-4": (
        {"network": {"kind": "bernoulli", "p": 1.0, "w": [1.0]}},
        "unknown config key 'network.w'",
    ),
    "unknown-5": (
        {"network": dict(SBM_2X1, vv=[1.0])},
        "unknown config key 'network.vv' (did you mean 'network.v'?)",
    ),
    "unknown-6": (
        {"premiums": {"low": 0.95, "high": 1.05, "ns": 1, "hihg": 1.1}},
        "unknown config key 'premiums.hihg' (did you mean 'premiums.high'?)",
    ),
    "unknown-7": (
        {"group": {"sise": 1}},
        "unknown config key 'group.sise' (did you mean 'group.size'?)",
    ),
    "unknown-8": (
        {"group": {"size": 1, "indices": [1]}},
        "group must contain exactly one of 'size' and 'indices'",
    ),
    "unknown-9": ({"network": dict(SBM_2X1, K=2)}, "unknown config key 'network.K'"),
}


class TestRiskParamsOfConfig:
    """The two-value scheme's parameters at an ``ns``, built as runs, against
    ``RiskParams`` on the premium vector that the scheme describes."""

    @pytest.mark.parametrize(
        "mu, premiums",
        [
            (1.0, {"low": 0.95, "high": 1.05}),
            ([2.0, 2.0, 0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 2.0, 2.0], {"low": 0.95, "high": 1.05}),
            ([0.5] * 5 + [2.0] * 5, {"low": 1.9, "high": 0.95}),  # ratios shared across runs
            (1.0, {"low": 1.05, "high": 1.05}),
        ],
    )
    def test_runs_match_the_premium_vector(self, mu, premiums):
        cfg = parse_config(figure_doc(mu=mu, premiums=premiums, reserves=[0.5, 2.0] * 5))
        for ns in range(cfg.d + 1):
            params = cfg.risk_params(ns)
            c = np.where(np.arange(cfg.d) < ns, premiums["low"], premiums["high"])
            want = model.RiskParams(cfg.lam, c, cfg.mu, cfg.reserves)
            assert params.class_ratio.tobytes() == want.class_ratio.tobytes()
            assert params.class_sizes.tobytes() == want.class_sizes.tobytes()
            assert (params.d, params.mu_min, params.lam) == (want.d, want.mu_min, want.lam)
            assert params.c.tobytes() == c.tobytes()
            assert params.mu.tobytes() == cfg.mu.tobytes()
            assert params.u is cfg.reserves
            if np.ndim(mu) == 0 and ns in (0, cfg.d) or premiums["low"] == premiums["high"]:
                assert params.class_sizes.tolist() == [cfg.d]  # an empty run is dropped

    def test_an_ns_point_allocates_no_array_of_d_floats(self):
        # mu's runs are scanned once per config; after that, the parameters
        # at an ns cost a few runs, not a premium vector of d floats
        d = 2**20
        cfg = parse_config(figure_doc(d=d))
        cfg.risk_params(1)
        tracemalloc.start()
        try:
            params = cfg.risk_params(d // 2 + 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert params.class_sizes.tolist() == [d // 2 + 17, d // 2 - 17]
        assert peak < 64 * 1024, f"peak {peak} bytes"

    def test_explicit_vector_takes_no_ns(self):
        cfg = parse_config(degenerate_doc(d=2, premiums=[1.05, 0.95], mu=[1.0, 2.0]))
        assert cfg.risk_params().c.tolist() == [1.05, 0.95]
        with pytest.raises(ConfigError, match="^cannot override ns with an explicit premium"):
            cfg.risk_params(1)


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "extra, message",
        [pytest.param(*case, id=name) for name, case in UNKNOWN_KEY_INPUTS.items()],
    )
    def test_exits_2_naming_the_closest_key_before_the_estimator(
        self, tmp_path, capsys, monkeypatch, extra, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("estimate ran on a config with an unknown key")

        monkeypatch.setattr(cli, "estimate", never)
        rc, out, err = run_main(tmp_path, capsys, "estimate", degenerate_doc(**extra))
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_every_readme_config_parses_and_the_field_lists_match_the_table(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(blocks) >= 2
        for block in blocks:
            parse_config(json.loads(block))
        integers = {cli._integer, cli._at_least, cli._between, cli._integers}
        reals = {cli._real, cli._broadcast, cli._parse_premiums}
        tables = [("", cli.KEYS), ("premiums.", cli.PREMIUM_KEYS), ("group.", cli.GROUP_KEYS)]
        tables += [("network.", keys) for keys in cli.NETWORK_KEYS.values()]
        keys = [(prefix + name, k.read) for prefix, table in tables for name, k in table.items()]
        for kind, readers in (("Integer", integers), ("Real", reals)):
            listed = re.search(rf"^- {kind} fields \(([^)]*)\)", readme, flags=re.M).group(1)
            assert set(re.findall(r"`([^`]+)`", listed)) == {
                name for name, read in keys if read in readers
            }, kind


class TestCmdEstimate:
    def test_degenerate_closed_form(self):
        report = cmd_estimate(parse_config(degenerate_doc()))
        assert report["psi_hat"] == pytest.approx(0.90810, abs=1e-5)
        assert report["stderr"] <= 1e-12
        assert report["tail_hat"] == 1.0

    def test_zero_reserve_exits_0(self, tmp_path, capsys):
        rc, out, err = run_main(tmp_path, capsys, "estimate", degenerate_doc(reserves=0.0))
        assert (rc, err) == (0, "")
        assert out.splitlines()[1].startswith("0.952381,0,1")

    def test_two_value_scheme_needs_ns(self):
        cfg = parse_config(figure_doc(group={"size": 10}, replicates=10_000))
        with pytest.raises(ConfigError, match="ns"):
            cmd_estimate(cfg)

    def test_figure_point_with_ns(self):
        doc = figure_doc(group={"size": 10}, replicates=10_000)
        doc["premiums"]["ns"] = 5
        report = cmd_estimate(parse_config(doc))
        assert 0.9 < report["psi_hat"] < 1.0


class TestCmdSweep:
    def test_rejects_fixed_group(self):
        with pytest.raises(ConfigError, match="group"):
            cmd_sweep(parse_config(figure_doc(group={"size": 3})))

    def test_single_agent_sweep_matches_estimate(self):
        doc = {
            "lambda": 1.0,
            "q": 1,
            "d": 4,
            "premiums": {"low": 0.95, "high": 1.05},
            "mu": 1.0,
            "reserves": 1.0,
            "network": {"kind": "bernoulli", "p": 0.6},
            "replicates": 5000,
            "seed": 3,
            "ns_grid": [2],
        }
        rows = [SimpleNamespace(**r) for r in cmd_sweep(parse_config(doc))]
        assert len(rows) == 1 and rows[0].qsize == 1
        est_doc = dict(doc, group={"size": 1})
        est_doc["premiums"] = {"low": 0.95, "high": 1.05, "ns": 2}
        report = cmd_estimate(parse_config(est_doc))
        assert rows[0].psi_hat == report["psi_hat"]

    def test_one_nested_pass_per_ns(self, monkeypatch):
        # auto mode on 3 agent and 3 object types, two classes of 24 (then 20
        # and 28) objects: exact for groups of 1 and 2 (up to 6 * 105 625
        # configurations), sampled from 3 agents (10 * 105 625 > 1e6); the
        # mode of each size is approx's business, so sweep asks it once
        calls, modes = [], []

        def spy(name, fn, sizes_at):
            # the group the estimator's family is drawn from, and the sizes
            def wrapped(*args, **kwargs):
                calls.append((name, args[2:sizes_at], list(args[sizes_at])))
                result = fn(*args, **kwargs)
                if name == "approx":
                    modes.append([r.mode for r in result.results])
                return result

            return wrapped

        monkeypatch.setattr(cli, "estimate", spy("estimate", cli.estimate, 3))
        monkeypatch.setattr(
            cli.approx, "mixture_probability", spy("approx", cli.approx.mixture_probability, 2)
        )
        doc = dict(
            figure_doc(q=4, d=48, replicates=500, ns_grid=[24, 20], m_configs=200),
            network={
                "kind": "sbm",
                "w": [0.5, 0.3, 0.2],
                "v": [0.5, 0.3, 0.2],
                "p": [[0.3, 0.05, 0.05], [0.05, 0.3, 0.05], [0.05, 0.05, 0.3]],
            },
        )
        rows = cmd_sweep(parse_config(doc))
        assert [r["qsize"] for r in rows] == [1, 2, 3, 4] * 2
        everyone = (model.AgentSubset.prefix(4),)
        assert calls == [("estimate", everyone, [1, 2, 3, 4]), ("approx", (), [1, 2, 3, 4])] * 2
        assert modes == [["exact", "exact", "sampled", "sampled"]] * 2

    def test_many_group_sizes_take_little_memory(self):
        # the family is one group and its sizes: no per-size group is built
        # or checked, so nothing grows as q**2 before the first draw
        cfg = parse_config(figure_doc(q=1000, d=2, replicates=2, ns_grid=[1]))
        tracemalloc.start()
        try:
            rows = cmd_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r["qsize"] for r in rows] == list(range(1, 1001))
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_rows_cover_grid(self):
        cfg = parse_config(figure_doc(replicates=500, ns_grid=[4, 6]))
        raw = cmd_sweep(cfg)
        assert all(tuple(r) == SWEEP_FIELDS for r in raw)  # every field, in order
        rows = [SimpleNamespace(**r) for r in raw]
        assert len(rows) == 20
        assert {r.ns for r in rows} == {4, 6}
        assert [r.qsize for r in rows if r.ns == 4] == list(range(1, 11))
        for r in rows:
            assert r.ci_lo <= r.psi_hat <= r.ci_hi
            if r.psi_hat > 0:
                assert r.log10_psi == pytest.approx(math.log10(r.psi_hat))


    @pytest.mark.parametrize(
        "field, extra",
        [
            pytest.param("approx_mode", {"approx_mode": "bogus"}, id="unknown"),
            pytest.param("approx_mode", {"approx_mode": 3}, id="non-string"),
            pytest.param("approx_mode", {"approx_mode": ["exact"]}, id="list"),
            pytest.param(
                "m_configs", {"approx_mode": "sampled", "m_configs": 99}, id="few-configs"
            ),
            # auto picks sampled mode only for some points, and exact on this
            # Bernoulli network, so it ran at any m_configs
            pytest.param(
                "m_configs", {"approx_mode": "auto", "m_configs": 99}, id="auto-few-configs"
            ),
            pytest.param("m_configs", {"m_configs": 5}, id="default-mode-few-configs"),
        ],
    )
    def test_bad_approx_mode_exits_2_before_the_estimator(
        self, tmp_path, capsys, monkeypatch, field, extra
    ):
        def never(*args, **kwargs):
            raise AssertionError("estimate ran before approx_mode was checked")

        monkeypatch.setattr(cli, "estimate", never)
        doc = degenerate_doc(q=2, d=2, **SWEEP_2X2, **extra)
        rc, out, err = run_main(tmp_path, capsys, "sweep", doc)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {field} must ")


class TestCmdTable:
    def test_requires_bernoulli_and_grid(self):
        doc = figure_doc(
            network={"kind": "sbm", "w": [0.5, 0.5], "v": [1.0], "p": [[0.4], [0.6]]},
            ns_grid=[5],
        )
        with pytest.raises(ConfigError, match="Bernoulli"):
            cmd_table(parse_config(doc))
        with pytest.raises(ConfigError, match="ns_grid"):
            cmd_table(parse_config(figure_doc()))

    def test_columns_and_consistency(self):
        cfg = parse_config(figure_doc(ns_grid=[0, 5, 10], replicates=3000))
        rows = cmd_table(cfg)
        assert [r["ns"] for r in rows] == [0, 5, 10]
        for row in rows:
            assert row["abs_difference"] == pytest.approx(
                abs(row["approximation"] - row["estimate"])
            )
        # ns = 0: every object profitable, the ratio is below 1 whenever
        # anything connects, and disconnection also counts
        assert rows[0]["approximation"] >= 0.999
        assert rows[0]["estimate"] == 1.0

    def test_one_class_partition_per_row(self, monkeypatch):
        # the estimator and the approximation share the parameters' premium
        # classes: one partition per ns, not one per caller, and no caller
        # builds its own with np.unique
        calls = {"partition": 0, "unique": 0}
        partition, unique = model._premium_classes, np.unique

        def counting_partition(*args, **kwargs):
            calls["partition"] += 1
            return partition(*args, **kwargs)

        def counting_unique(*args, **kwargs):
            calls["unique"] += 1
            return unique(*args, **kwargs)

        monkeypatch.setattr(model, "_premium_classes", counting_partition)
        monkeypatch.setattr(np, "unique", counting_unique)
        rows = cmd_table(parse_config(figure_doc(ns_grid=[0, 5, 10], replicates=200)))
        assert len(rows) == 3
        assert calls == {"partition": 3, "unique": 0}

    def test_paper_scale_rows_are_pinned(self):
        # README's d = 100000 table at 200 replicates.  Each pinned estimate
        # is the share of PK < 1 among the counts that the one-group
        # reference sampler (netgen_reference.one_group_counts) draws from
        # the estimator's stream; bound and approximation are not random.
        # The relative tolerance only absorbs libm differences between
        # platforms; ns and the frequency estimate are exact.
        doc = {
            "lambda": 1.0,
            "q": 100,
            "d": 100000,
            "premiums": {"low": 0.95, "high": 1.05},
            "mu": 1.0,
            "reserves": 1.0,
            "network": {"kind": "bernoulli", "p": 0.0031622776601683794},
            "group": {"size": 100},
            "replicates": 200,
            "seed": 42,
            "ns_grid": [49000, 49500, 49900, 50000, 50100, 50500, 51000],
        }
        # (ns, bound, approximation, estimate, stderr, abs_difference)
        expected = [
            (49000, 0.040402011884276265, 0.9999434748860316,
             1.0, 0.0, 5.652511396836424e-05),
            (49500, 0.04040201188427626, 0.9732190882721042,
             0.985, 0.008595056718835545, 0.011780911727895749),
            (49900, 0.040402011884276265, 0.650278580597777,
             0.705, 0.03224709289222828, 0.05472141940222297),
            (50000, 0.04040201188427628, 0.5,
             0.47, 0.03529164207004259, 0.030000000000000027),
            (50100, 0.040402011884276265, 0.349721419402223,
             0.34, 0.03349626844888845, 0.009721419402222986),
            (50500, 0.04040201188427626, 0.026780911727895804,
             0.04, 0.013856406460551017, 0.013219088272104197),
            (51000, 0.040402011884276265, 5.6525113968381944e-05,
             0.0, 0.0, 5.6525113968381944e-05),
        ]
        rows = cmd_table(parse_config(doc))
        assert [tuple(r) for r in rows] == [TABLE_FIELDS] * len(expected)
        tight = dict(rel=1e-12, abs=1e-15)
        for row, (ns, bound, approximation, estimate, stderr, diff) in zip(rows, expected):
            assert (row["ns"], row["estimate"]) == (ns, estimate)
            assert row["bound"] == pytest.approx(bound, **tight)
            assert row["approximation"] == pytest.approx(approximation, **tight)
            assert row["stderr"] == pytest.approx(stderr, **tight)
            assert row["abs_difference"] == pytest.approx(diff, **tight)


class TestCmdOracle:
    def test_small_instance_passes(self):
        doc = degenerate_doc(horizon=1000.0, outer_networks=5, inner_paths=1500)
        report = cmd_oracle(parse_config(doc))
        assert report["pass"]
        assert report["discrepancy"] < 0.01

    def test_runs_beyond_a_hundred_pairs(self):
        # q * d = 400: the oracle draws counts, not incidence arrays.  A
        # horizon of 200 leaves a bias of about 0.08 at these premiums, so
        # the verdict is not asserted
        doc = figure_doc(q=20, d=20, group={"size": 2}, horizon=200.0)
        doc.update(outer_networks=200, inner_paths=5)
        doc["premiums"]["ns"] = 5
        report = cmd_oracle(parse_config(doc))
        assert 0.0 < report["oracle"] < 1.0
        assert report["oracle_stderr"] > 0.0

    def test_tiny_lambda_exits_0(self, tmp_path, capsys):
        # the golden config with a subnormal claim rate: every epoch
        # overflows the float range, with no warning
        doc = json.loads((GOLDEN / "oracle" / "config.json").read_text())
        doc["lambda"] = 1e-310
        rc, out, err = run_main(tmp_path, capsys, "oracle", doc)
        header, values = out.splitlines()
        assert rc == 0, err
        assert dict(zip(header.split(","), values.split(",")))["oracle"] == "0"

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_bad_horizon_exits_2_before_the_estimator(self, tmp_path, capsys, monkeypatch, horizon):
        def never(*args, **kwargs):
            raise AssertionError("estimate ran before the horizon was checked")

        monkeypatch.setattr(cli, "estimate", never)
        rc, out, err = run_main(tmp_path, capsys, "oracle", degenerate_doc(horizon=horizon))
        assert (rc, out) == (2, "")
        assert err.startswith("error: horizon must be finite and positive")

    @pytest.mark.parametrize(
        "field, value, low",
        [
            ("outer_networks", 1, 2),
            ("outer_networks", 0, 2),
            ("outer_networks", -5, 2),
            ("inner_paths", 0, 1),
            ("inner_paths", -1, 1),
        ],
    )
    def test_too_few_samples_exit_2_before_the_estimator(
        self, tmp_path, capsys, monkeypatch, field, value, low
    ):
        def never(*args, **kwargs):
            raise AssertionError("estimate ran before the sample counts were checked")

        monkeypatch.setattr(cli, "estimate", never)
        rc, out, err = run_main(tmp_path, capsys, "oracle", degenerate_doc(**{field: value}))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {field} must be at least {low}, got {value}")
        assert getattr(parse_config(degenerate_doc(**{field: low})), field) == low


class TestClassifyShape:
    def test_needs_four_points(self):
        rows = make_rows([0.5, 0.4, 0.3])
        with pytest.raises(ValueError, match="4"):
            classify_shape(rows)

    def test_parabola_is_u_shape(self):
        ks = np.arange(1, 11)
        vals = 10.0 ** (0.02 * (ks - 5.5) ** 2 - 1.0)
        assert classify_shape(make_rows(vals)) == U_SHAPE

    def test_rising_curve_is_s_shape(self):
        ks = np.arange(1, 11)
        vals = 10.0 ** (-1.0 / ks)
        assert classify_shape(make_rows(vals)) == S_SHAPE

    def test_constant_rows_are_flat(self):
        assert classify_shape(make_rows([0.25] * 8)) == FLAT

    def test_decreasing_curve_is_not_s(self):
        vals = 10.0 ** np.linspace(-0.2, -2.0, 8)
        assert classify_shape(make_rows(vals)) != S_SHAPE


def make_rows(psi_values, ns=4):
    rows = []
    for k, psi in enumerate(psi_values, start=1):
        psi = float(psi)
        rows.append(
            SimpleNamespace(
                qsize=k,
                ns=ns,
                psi_hat=psi,
                stderr=0.0,
                ci_lo=psi,
                ci_hi=psi,
                log10_psi=math.log10(psi) if psi > 0 else None,
                tail_hat=0.5,
                approx_prob=0.5,
                stein_bound=0.04,
            )
        )
    return rows


class TestOutputFormats:
    def test_fmt_six_significant_digits(self):
        assert fmt(0.9080923379) == "0.908092"
        assert fmt(None) == ""
        assert fmt(12) == "12"
        assert fmt(True) == "true"

    def test_render_csv_rfc4180(self):
        text = render_csv(("a", "b"), [{"a": 1.5, "b": 'say "hi"'}], comment="note")
        lines = text.split("\r\n")
        assert lines[0] == "# note"
        assert lines[1] == "a,b"
        assert lines[2] == '1.5,"say ""hi"""'

    def test_svg_well_formed_and_complete(self):
        rows = [vars(r) for r in make_rows([0.5, 0.4, 0.45, 0.6, 0.8])]
        svg = sweep_svg(rows)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        estimates = [
            el for el in root.iter() if el.get("class") == "estimate"
        ]
        whiskers = [el for el in root.iter() if el.get("class") == "whisker"]
        assert len(estimates) == 5
        assert len(whiskers) == 5


class TestMainEntryPoint:
    def run(self, args):
        return main(args)

    def test_estimate_to_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(degenerate_doc()))
        out = tmp_path / "out.csv"
        rc = self.run(["estimate", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        assert lines[0] == "psi_hat,stderr,tail_hat"
        assert lines[1].startswith("0.908092,")

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(degenerate_doc(reserves=-1.0)))
        rc = self.run(["estimate", "--config", str(cfg_path)])
        assert rc == 2
        assert "reserve" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert self.run(["estimate", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            pytest.param("estimate", extra, "", id=f"extra{i}")
            for i, extra in enumerate(BAD_ESTIMATE_INPUTS)
        ]
        + [
            pytest.param("sweep", dict(SWEEP_2X2, **extra), "", id=f"sweep-{name}")
            for name, extra in (
                ("unknown-mode", {"approx_mode": "bogus"}),
                ("non-string-mode", {"approx_mode": 3}),
                ("null-mode", {"approx_mode": None}),
                ("few-configs", {"approx_mode": "sampled", "m_configs": 5}),
                ("closed-form-sbm", {"approx_mode": "closed_form", "network": SBM_2X1}),
                ("closed-form", {"approx_mode": "closed_form"}),  # exact's alias, gone
            )
        ]
        + [
            pytest.param(command, extra, "", id=name)
            for name, command, extra in (
                ("table-one-replicate", "table", dict(TABLE_2X2, replicates=1)),
                ("oracle-one-network", "oracle", {"outer_networks": 1}),
                ("oracle-no-paths", "oracle", {"inner_paths": 0}),
                ("oracle-endless-horizon", "oracle", ENDLESS_HORIZON),
            )
        ]
        + [
            # a list field given a scalar or a string is named, not iterated
            pytest.param(command, extra, message, id=name)
            for name, command, extra, message in (
                (
                    "ns_grid-scalar",
                    "sweep",
                    dict(SWEEP_2X2, ns_grid=5),
                    "ns_grid must be a list of integers, got 5",
                ),
                (
                    "indices-scalar",
                    "estimate",
                    {"group": {"indices": 5}},
                    "group.indices must be a list of integers, got 5",
                ),
                (
                    "indices-string",
                    "estimate",
                    {"group": {"indices": "12"}},
                    "group.indices must be a list of integers, got '12'",
                ),
            )
        ]
        + [
            # finite premiums and claim sizes whose ratio overflows: rejected
            # with the parameters, before any estimator runs, and without a warning
            pytest.param(
                command, dict(extra, mu=[1e-300, 1.0]), "c/mu must be finite", id=f"{command}-ratio"
            )
            for command, extra in (
                ("estimate", {"premiums": [1e300, 1.0]}),
                ("oracle", {"premiums": [1e300, 1.0]}),
                ("sweep", dict(SWEEP_2X2, premiums={"low": 1e300, "high": 1.0})),
                ("table", dict(TABLE_2X2, premiums={"low": 1e300, "high": 1.0})),
            )
        ]
        + [
            # a ratio that underflows to 0, or is subnormal: rejected before
            # the PK ratio divides by it
            pytest.param(
                command,
                dict(extra, premiums=[1e-300, 1.0], mu=[mu, 1.0]),
                "c/mu must be at least",
                id=f"{command}-ratio-{name}",
            )
            for command, extra in (("estimate", {}), ("oracle", {}))
            for name, mu in (("zero", 1e300), ("subnormal", 1e10))
        ],
    )
    def test_bad_input_exits_2_with_message(self, tmp_path, capsys, command, extra, message):
        cfg_path = tmp_path / "cfg.json"
        doc = degenerate_doc(q=2, d=2, premiums=[1.05, 1.1])
        doc.update(extra)
        cfg_path.write_text(json.dumps(doc))
        assert self.run([command, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    @pytest.mark.parametrize(
        "command, field, extra",
        [pytest.param(*case, id=name) for name, case in NAMED_FIELD_INPUTS.items()],
    )
    def test_rejected_field_is_named(self, tmp_path, capsys, command, field, extra):
        doc = degenerate_doc(q=2, d=2, premiums=[1.05, 1.1])
        doc.update(extra)
        rc, out, err = run_main(tmp_path, capsys, command, doc)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")
        assert f"{field} must " in err

    @pytest.mark.parametrize(
        "command, flag, doc",
        [
            ("estimate", "--out", degenerate_doc()),
            ("sweep", "--svg", degenerate_doc(q=2, d=2, **SWEEP_2X2)),
        ],
    )
    def test_unwritable_output_exits_2_naming_the_path(self, tmp_path, capsys, command, flag, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        target = tmp_path / "missing_dir" / "result"
        assert self.run([command, "--config", str(cfg_path), flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_rejects_nonpositive_thread_flag(self, tmp_path, capsys, threads):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(degenerate_doc()))
        assert self.run(["estimate", "--config", str(cfg_path), "--threads", threads]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, cap",
        [
            ("replicates", MAX_REPLICATES),
            ("m_configs", MAX_M_CONFIGS),
            ("outer_networks", MAX_OUTER_NETWORKS),
            ("inner_paths", MAX_INNER_PATHS),
        ],
    )
    def test_counts_above_cap_exit_2_naming_the_field(self, tmp_path, capsys, field, cap):
        assert getattr(parse_config(degenerate_doc(**{field: cap})), field) == cap
        for value in (cap + 1, 1e30):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(degenerate_doc(**{field: value})))
            assert self.run(["estimate", "--config", str(cfg_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {field} must be at most {cap}")

    @pytest.mark.parametrize("field, cap", [("q", MAX_AGENTS), ("d", MAX_OBJECTS)])
    def test_network_size_above_cap_exits_2_naming_the_field(self, tmp_path, capsys, field, cap):
        for value in (cap + 1, 1e12, 1e300):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(degenerate_doc(**{field: value})))
            assert self.run(["estimate", "--config", str(cfg_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {field} must be at most {cap}")

    def test_replicates_flag_below_two_exits_2_before_any_engine(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("an engine ran before replicates was checked")

        monkeypatch.setattr(cli, "estimate", never)
        monkeypatch.setattr(cli.approx, "mixture_probability", never)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(degenerate_doc(q=2, d=2, **TABLE_2X2)))
        assert self.run(["table", "--config", str(cfg_path), "--replicates", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: replicates must be at least 2, got 1\n"

    def test_replicates_flag_above_cap_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(degenerate_doc()))
        flag = str(MAX_REPLICATES + 1)
        assert self.run(["estimate", "--config", str(cfg_path), "--replicates", flag]) == 2
        assert capsys.readouterr().err.startswith("error: replicates must be at most")

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("sweep", figure_doc(ns_grid=[])),
            ("table", figure_doc(group={"size": 3}, ns_grid=[])),
        ],
    )
    def test_empty_ns_grid_exits_2(self, tmp_path, capsys, command, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert self.run([command, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ns_grid must not be empty\n"

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            # a point beyond d after one that runs, and a negative one
            ("table", figure_doc(**TABLE_3, ns_grid=[5, 11]), "ns must lie in [0, 10], got 11"),
            ("table", figure_doc(**TABLE_3, ns_grid=[-1]), "ns must lie in [0, 10], got -1"),
            ("sweep", figure_doc(ns_grid=[5, 11]), "ns must lie in [0, 10], got 11"),
            ("sweep", figure_doc(ns_grid=[-1, 5]), "ns must lie in [0, 10], got -1"),
            (
                "table",
                figure_doc(**TABLE_3, premiums=[1.05] * 10, ns_grid=[5]),
                "table mode requires the two-value premium scheme",
            ),
            (
                "sweep",
                figure_doc(premiums=[1.05] * 10, ns_grid=[5]),
                "sweep requires the two-value premium scheme",
            ),
            ("estimate", figure_doc(**TABLE_3), "two-value premium scheme needs ns"),
        ],
    )
    def test_ns_errors_exit_2(self, tmp_path, capsys, command, doc, message):
        rc, out, err = run_main(tmp_path, capsys, command, doc)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_oracle_failure_exit_code(self, tmp_path, capsys):
        # a vanishing horizon starves the oracle, forcing an honest mismatch
        doc = degenerate_doc(horizon=1e-6, outer_networks=3, inner_paths=50)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = self.run(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().err

    def test_oracle_pass_exit_code(self, tmp_path, capsys):
        doc = degenerate_doc(horizon=1000.0, outer_networks=3, inner_paths=400)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = self.run(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_sweep_csv_and_svg(self, tmp_path):
        doc = figure_doc(replicates=400, ns_grid=[4, 6])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        svg = tmp_path / "plot.svg"
        rc = self.run(
            ["sweep", "--config", str(cfg_path), "--out", str(out), "--svg", str(svg)]
        )
        assert rc == 0
        text = out.read_bytes().decode("utf-8")
        assert text.startswith("# log10_psi uses base-10 logarithm\r\n")
        header = text.split("\r\n")[1]
        assert header == "qsize,ns,psi_hat,stderr,ci_lo,ci_hi,log10_psi,tail_hat,approx_prob,stein_bound"
        ET.parse(svg)  # well-formed XML

    def test_byte_identical_across_threads(self, tmp_path):
        # the figure setting, and a blockmodel whose points all run sampled
        # mode (two blocks of replicates, three of configurations)
        sbm = dict(
            figure_doc(q=4, d=8, replicates=5000, ns_grid=[3, 4]),
            network={
                "kind": "sbm",
                "w": [0.5, 0.3, 0.2],
                "v": [0.5, 0.3, 0.2],
                "p": [[0.3, 0.05, 0.05], [0.05, 0.3, 0.05], [0.05, 0.05, 0.3]],
            },
            approx_mode="sampled",
            m_configs=2 * 4096 + 50,
        )
        for name, doc in (("figure", figure_doc(replicates=5000, ns_grid=[4])), ("sbm", sbm)):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(doc))
            outputs = []
            for threads in ("1", "4"):
                out = tmp_path / f"{name}_{threads}.csv"
                rc = self.run(
                    [
                        "sweep",
                        "--config", str(cfg_path),
                        "--out", str(out),
                        "--threads", threads,
                    ]
                )
                assert rc == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name

    def test_seed_override_changes_output(self, tmp_path):
        doc = figure_doc(replicates=2000, ns_grid=[4])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        texts = []
        for seed in ("42", "43"):
            out = tmp_path / f"rows_{seed}.csv"
            assert self.run(
                ["sweep", "--config", str(cfg_path), "--out", str(out), "--seed", seed]
            ) == 0
            texts.append(out.read_text())
        assert texts[0] != texts[1]

    def test_zero_estimate_leaves_log_empty(self, tmp_path):
        # enormous reserves force the summand to underflow to exactly zero
        doc = {
            "lambda": 1.0,
            "q": 2,
            "d": 2,
            "premiums": {"low": 0.95, "high": 10.0},
            "mu": 1.0,
            "reserves": 1000.0,
            "network": {"kind": "bernoulli", "p": 1.0},
            "replicates": 100,
            "seed": 0,
            "ns_grid": [0],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert self.run(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_bytes().decode("utf-8").split("\r\n")
        first_row = lines[2].split(",")
        assert first_row[2] == "0"  # psi_hat underflowed to zero
        assert first_row[6] == ""  # log10_psi left empty

    def test_json_format(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(degenerate_doc()))
        out = tmp_path / "report.json"
        rc = self.run(
            ["estimate", "--config", str(cfg_path), "--out", str(out), "--format", "json"]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == {"psi_hat", "stderr", "tail_hat"}


class TestGoldenOutput:
    """stdout of every command in both formats, and the sweep SVG, pinned
    byte for byte on the tiny configs in ``tests/golden/<command>/``.

    Each file is the output of ``ruinnet <command> --config
    tests/golden/<command>/config.json --format <csv|json>`` (for sweep
    also ``--svg tests/golden/sweep/plot.svg``).  ``tests/golden/sweep_mixed``
    holds a sweep whose points run both approximation modes, in both formats.
    Rewrite a file only for an output change that is meant.
    """

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    @pytest.mark.parametrize("command", ["estimate", "sweep", "table", "oracle"])
    def test_stdout_matches_golden(self, tmp_path, capsys, command, fmt_name):
        case = GOLDEN / command
        args = [command, "--config", str(case / "config.json"), "--format", fmt_name]
        if command == "sweep":
            args += ["--svg", str(tmp_path / "plot.svg")]
        assert main(args) == 0
        expected = (case / f"stdout.{fmt_name}").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected
        if command == "sweep":
            assert (tmp_path / "plot.svg").read_bytes() == (case / "plot.svg").read_bytes()

    def test_repeated_calls_in_one_process_match_goldens(self, tmp_path, capsys):
        # main builds its parser once per process: every golden, in both
        # formats, twice over, with an argparse failure and a config error
        # in between, is still byte for byte its golden
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(degenerate_doc(reserves=-1.0)))
        for _ in range(2):
            for command in ("estimate", "sweep", "table", "oracle"):
                for fmt_name in ("csv", "json"):
                    case = GOLDEN / command
                    args = [command, "--config", str(case / "config.json"), "--format", fmt_name]
                    assert main(args) == 0
                    expected = (case / f"stdout.{fmt_name}").read_bytes()
                    assert capsys.readouterr().out.encode("utf-8") == expected
                if command == "sweep":
                    with pytest.raises(SystemExit) as exc:
                        main(["table", "--config", str(bad), "--format", "xml"])
                    assert exc.value.code == 2
                    assert "invalid choice: 'xml'" in capsys.readouterr().err
                if command == "table":
                    assert main(["estimate", "--config", str(bad)]) == 2
                    captured = capsys.readouterr()
                    assert captured.out == "" and "reserves must be nonnegative" in captured.err

    def test_goldens_do_not_depend_on_simd_dispatch(self):
        # numpy runs exp, log1p and power through AVX-512 loops where the CPU
        # has them, whose last bits differ from libm's; with them turned off
        # in a child process, every golden command prints its committed
        # bytes in both formats, the oracle's full-precision JSON included
        features = avx512_features()
        if not features:
            pytest.skip("this CPU has no AVX-512, so there is no dispatch to turn off")
        script = """
import contextlib, io, json, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__ as features
from ruinnet.cli import main
golden, out = sys.argv[1], {}
for case in ("estimate", "sweep", "table", "oracle", "sweep_mixed"):
    for fmt in ("csv", "json"):
        text, command = io.StringIO(), "sweep" if case == "sweep_mixed" else case
        with contextlib.redirect_stdout(text):
            assert main([command, "--config", f"{golden}/{case}/config.json", "--format", fmt]) == 0
        out[f"{case}/stdout.{fmt}"] = text.getvalue()
print(json.dumps([[k for k in sys.argv[2:] if not features[k]], out]))
"""
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
        child = [sys.executable, "-c", script, str(GOLDEN), *features]
        off, outputs = json.loads(
            subprocess.run(child, capture_output=True, text=True, env=env, check=True).stdout
        )
        assert off  # the child's dispatch targets: some were turned off
        assert len(outputs) == 10
        for name, text in outputs.items():
            assert text.encode("utf-8") == (GOLDEN / name).read_bytes(), name

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    def test_table_at_paper_scale_matches(self, capsys, fmt_name):
        # the paper's table, d = 1e5 objects and ns from 49 000 to 51 000,
        # on the benchmark's config at seed 1 and 1000 replicates
        args = ["table", "--config", str(TABLE_AT_SCALE / "config.json"), "--format", fmt_name]
        assert main(args) == 0
        expected = (TABLE_AT_SCALE / f"stdout.{fmt_name}").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mixed_mode_sweep_matches_golden(self, capsys, threads):
        # auto runs exact mode for groups of 1 and 2 and sampled mode for 3
        # and 4: the one golden file with sampled points
        case = GOLDEN / "sweep_mixed"
        args = ["sweep", "--config", str(case / "config.json"), "--format", "csv"]
        assert main([*args, "--threads", threads]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (case / "stdout.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mixed_mode_sweep_json_matches_golden(self, capsys, threads):
        # every bit of the blockmodel's estimates and approximations, in
        # exact and sampled mode alike
        case = GOLDEN / "sweep_mixed"
        args = ["sweep", "--config", str(case / "config.json"), "--format", "json"]
        assert main([*args, "--threads", threads]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (case / "stdout.json").read_bytes()
