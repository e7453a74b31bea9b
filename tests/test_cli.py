"""Tests for configuration parsing, the CLI commands, output formats, and
the shape classifier."""

import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ruinnet import cli, model
from ruinnet.cli import (
    FLAT,
    MAX_INNER_PATHS,
    MAX_M_CONFIGS,
    MAX_OUTER_NETWORKS,
    MAX_REPLICATES,
    S_SHAPE,
    U_SHAPE,
    ConfigError,
    TABLE_FIELDS,
    SweepRow,
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

#: ``(command, field, overrides)``: one non-integral, boolean, string or too
#: large value on ``degenerate_doc(q=2, d=2, ...)`` and the field the error names.
NAMED_FIELD_INPUTS = [
    ("estimate", "q", {"q": 2.5}),
    ("estimate", "d", {"d": 2.5}),
    ("estimate", "seed", {"seed": True}),
    ("estimate", "seed", {"seed": 1.5}),
    ("estimate", "replicates", {"replicates": 1000.9}),
    ("estimate", "threads", {"threads": 1.9}),
    ("estimate", "premiums.ns", {"premiums": {"low": 0.95, "high": 1.05, "ns": 1.5}}),
    ("estimate", "group.size", {"group": {"size": 1.5}}),
    ("estimate", "group.indices", {"group": {"indices": [1.5]}}),
    ("estimate", "network.kind", {"network": dict(SBM_2X1, kind="ring")}),
    ("sweep", "approx_mode", dict(SWEEP_2X2, approx_mode="fast")),
    ("sweep", "ns_grid", dict(SWEEP_2X2, ns_grid=[1.5])),
    ("sweep", "m_configs", dict(SWEEP_2X2, m_configs=200.5)),
    ("oracle", "outer_networks", {"outer_networks": 3.5}),
    ("oracle", "inner_paths", {"inner_paths": 2.5}),
    ("oracle", "horizon", ENDLESS_HORIZON),
    ("estimate", "lambda", {"lambda": True}),
    ("estimate", "mu", {"mu": True}),
    ("estimate", "horizon", {"horizon": True}),
    ("estimate", "network.p", {"network": {"kind": "bernoulli", "p": True}}),
    ("estimate", "reserves", {"reserves": [1.0, True]}),
    ("estimate", "premiums", {"premiums": [1.05, "1.1"]}),
    ("estimate", "horizon", {"horizon": "1000"}),
    ("estimate", "network.v", {"network": dict(SBM_2X1, v=[True])}),
    ("estimate", "network.p", {"network": dict(SBM_2X1, p=[[0.4], [True]])}),
    ("sweep", "lambda", dict(SWEEP_2X2, **{"lambda": "1.5"})),
    ("sweep", "premiums.low", dict(SWEEP_2X2, premiums={"low": "0.95", "high": 1.05})),
    ("sweep", "premiums.high", dict(SWEEP_2X2, premiums={"low": 0.95, "high": True})),
    ("sweep", "network.w", dict(SWEEP_2X2, network=dict(SBM_2X1, w=[True, False]))),
]

GOLDEN = Path(__file__).parent / "golden"


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
        assert cfg.group.indices == (2, 5, 9)


#: ``(overrides, stderr)``: one key outside the table, at the top level or
#: inside an object, on ``degenerate_doc()``, and the error it gives.
UNKNOWN_KEY_INPUTS = [
    ({"replicatess": 5}, "unknown config key 'replicatess' (did you mean 'replicates'?)"),
    ({"lam": 1.0}, "unknown config key 'lam' (did you mean 'lambda'?)"),
    ({"zzz": 1}, "unknown config key 'zzz'"),
    (
        {"network": {"kind": "bernoulli", "p": 1.0, "pp": 0.5}},
        "unknown config key 'network.pp' (did you mean 'network.p'?)",
    ),
    (
        {"network": {"kind": "bernoulli", "p": 1.0, "w": [1.0]}},
        "unknown config key 'network.w'",
    ),
    (
        {"network": dict(SBM_2X1, vv=[1.0])},
        "unknown config key 'network.vv' (did you mean 'network.v'?)",
    ),
    (
        {"premiums": {"low": 0.95, "high": 1.05, "ns": 1, "hihg": 1.1}},
        "unknown config key 'premiums.hihg' (did you mean 'premiums.high'?)",
    ),
    ({"group": {"sise": 1}}, "unknown config key 'group.sise' (did you mean 'group.size'?)"),
    (
        {"group": {"size": 1, "indices": [1]}},
        "group must contain exactly one of 'size' and 'indices'",
    ),
    ({"network": dict(SBM_2X1, K=2)}, "unknown config key 'network.K'"),
]


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "extra, message",
        [pytest.param(*case, id=f"unknown-{i}") for i, case in enumerate(UNKNOWN_KEY_INPUTS)],
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
        integers = {cli._integer, cli._at_least, cli._integers}
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
        rows = [SweepRow(**r) for r in cmd_sweep(parse_config(doc))]
        assert len(rows) == 1 and rows[0].qsize == 1
        est_doc = dict(doc, group={"size": 1})
        est_doc["premiums"] = {"low": 0.95, "high": 1.05, "ns": 2}
        report = cmd_estimate(parse_config(est_doc))
        assert rows[0].psi_hat == report["psi_hat"]

    def test_rows_cover_grid(self):
        cfg = parse_config(figure_doc(replicates=500, ns_grid=[4, 6]))
        rows = [SweepRow(**r) for r in cmd_sweep(cfg)]
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
        # README's d = 100000 table at 200 replicates, pinned to the rows this
        # configuration gave when the premium classes still came with a
        # per-object class index.  The relative tolerance only absorbs libm
        # differences between platforms; ns and the frequency estimate are exact.
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
            (49500, 0.040402011884276265, 0.9732190882721042,
             0.965, 0.012995191418367032, 0.008219088272104269),
            (49900, 0.040402011884276265, 0.650278580597777,
             0.725, 0.031573327350787724, 0.07472141940222299),
            (50000, 0.04040201188427628, 0.5,
             0.525, 0.035311117229563836, 0.025000000000000022),
            (50100, 0.040402011884276265, 0.349721419402223,
             0.355, 0.033836001536824645, 0.005278580597776972),
            (50500, 0.040402011884276265, 0.026780911727895804,
             0.02, 0.009899494936611665, 0.006780911727895803),
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

    def test_rejects_large_instances(self):
        doc = figure_doc(q=20, d=20, group={"size": 2})
        doc["premiums"]["ns"] = 5
        with pytest.raises(ConfigError, match="small instances"):
            cmd_oracle(parse_config(doc))

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_bad_horizon_exits_2_before_the_estimator(self, tmp_path, capsys, monkeypatch, horizon):
        def never(*args, **kwargs):
            raise AssertionError("estimate_psi ran before the horizon was checked")

        monkeypatch.setattr(cli, "estimate_psi", never)
        rc, out, err = run_main(tmp_path, capsys, "oracle", degenerate_doc(horizon=horizon))
        assert (rc, out) == (2, "")
        assert err.startswith("error: horizon must be finite and positive")


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
            SweepRow(
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
        rows = [asdict(r) for r in make_rows([0.5, 0.4, 0.45, 0.6, 0.8])]
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
        [pytest.param(*case, id=f"{case[1]}-{i}") for i, case in enumerate(NAMED_FIELD_INPUTS)],
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
        doc = figure_doc(replicates=5000, ns_grid=[4])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"rows_{threads}.csv"
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
        assert outputs[0] == outputs[1]

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
    also ``--svg tests/golden/sweep/plot.svg``).  Rewrite a file only for
    an output change that is meant.
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
