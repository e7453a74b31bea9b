"""The benchmark's workloads: one ``ruinnet`` CLI command each, its config
generated from the workload seed, and the checks its output must pass.

Why each workload exists:

- ``table``: large ``d`` (1e5 objects) with few replicates.  The cost is
  per-call preparation (partitioning the objects into premium classes),
  not sampling; the closed-form approximation is cheap and block
  scheduling is almost absent.
- ``sweep``: tiny ``d`` with 1e5 replicates per point, 80 estimator calls.
  Sampling (netgen binomials, generator construction, pairwise sums)
  dominates; ``estimate_psi`` and ``estimate_tail`` redraw identical
  samples.  The opposite use of ``ruin`` from ``table``.
- ``sbm``: the only non-Bernoulli network, on 2 threads.  The full-graph
  sampler and sampled-mode approximation (``auto`` picks it because the
  configuration count exceeds the exact-mode cap) dominate, run as
  4096-replicate blocks on the thread pool.
- ``oracle``: the path-simulation oracle (one Philox generator per path
  and object) against the estimator; the only workload that runs
  ``pathsim``.  1200 networks of 5 paths keep the mix of network shapes,
  and so the run time and the oracle's standard error, nearly the same
  for every seed (with 60 networks of 150 paths both vary by about 20 %
  between seeds).  Premiums are ``[0.95, 1.15]``: with ``[0.95, 1.05]`` a
  network connecting both objects has zero drift, its ruin time is
  heavy-tailed, and the finite horizon biases the oracle by about 0.024,
  which fails the tolerance that this many networks give.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

TABLE_NS = (49000, 49500, 49900, 50000, 50100, 50500, 51000)
#: Reference approximation column of the paper's table.
TABLE_APPROX = (1.000, 0.973, 0.650, 0.500, 0.350, 0.027, 0.000)

TWO_VALUE_PREMIUMS = {"low": 0.95, "high": 1.05}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    svg: bool
    se_fields: tuple[str, ...]
    config: Callable[[int], dict]
    check: Callable[[dict], list[str]]


def rows(text: str) -> list[dict]:
    """CSV rows of a command's output, skipping comment lines."""
    body = "".join(line for line in io.StringIO(text, newline="") if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body, newline="")))


def se_rms(text: str, fields: tuple[str, ...]) -> float:
    """Root-mean-square of every standard-error cell in the output."""
    cells = [float(r[f]) for r in rows(text) for f in fields if r[f] != ""]
    return math.sqrt(sum(c * c for c in cells) / len(cells))


def _table_config(seed: int) -> dict:
    d = 100_000
    return {
        "lambda": 1.0,
        "q": 100,
        "d": d,
        "premiums": TWO_VALUE_PREMIUMS,
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": d**-0.5},
        "group": {"size": 100},
        "replicates": 1000,
        "seed": seed,
        "ns_grid": list(TABLE_NS),
    }


def _check_table(out: dict) -> list[str]:
    found = rows(out["csv"])
    errors = []
    if [int(r["ns"]) for r in found] != list(TABLE_NS):
        return [f"table rows have ns {[r['ns'] for r in found]}"]
    for r, target in zip(found, TABLE_APPROX):
        bound, prob = float(r["bound"]), float(r["approximation"])
        est, se = float(r["estimate"]), float(r["stderr"])
        if abs(bound - 0.040) > 0.001:
            errors.append(f"ns={r['ns']}: bound {bound} not within 0.040±0.001")
        if abs(prob - target) > 0.005:
            errors.append(f"ns={r['ns']}: approximation {prob} not within 0.005 of {target}")
        if abs(est - prob) > bound + 2 * se:
            errors.append(f"ns={r['ns']}: estimate {est} outside approximation ± (bound + 2se)")
    return errors


def _sweep_config(seed: int) -> dict:
    return {
        "lambda": 1.0,
        "q": 10,
        "d": 10,
        "premiums": TWO_VALUE_PREMIUMS,
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": 0.5},
        "replicates": 100_000,
        "seed": seed,
        "ns_grid": [3, 4, 5, 6],
    }


def _check_sweep(out: dict) -> list[str]:
    from ruinnet.cli import S_SHAPE, U_SHAPE, classify_shape

    panels: dict[int, list] = {}
    for r in rows(out["csv"]):
        log10 = float(r["log10_psi"]) if r["log10_psi"] else None
        panels.setdefault(int(r["ns"]), []).append(
            SimpleNamespace(qsize=int(r["qsize"]), log10_psi=log10)
        )
    errors = []
    for ns, want in ((4, U_SHAPE), (5, S_SHAPE), (6, S_SHAPE)):
        got = classify_shape(panels.get(ns, []))
        if got != want:
            errors.append(f"ns={ns}: shape {got}, expected {want}")
    if not out["svg"].startswith("<svg"):
        errors.append("sweep SVG missing")
    return errors


def _sbm_config(seed: int) -> dict:
    off = 0.05
    return {
        "lambda": 1.0,
        "q": 6,
        "d": 100,
        "premiums": TWO_VALUE_PREMIUMS,
        "mu": 1.0,
        "reserves": 1.0,
        "network": {
            "kind": "sbm",
            "w": [0.5, 0.3, 0.2],
            "v": [0.5, 0.3, 0.2],
            "p": [[0.3, off, off], [off, 0.3, off], [off, off, 0.3]],
        },
        "replicates": 8192,
        "approx_mode": "auto",
        "seed": seed,
        "ns_grid": [50],
    }


def check_sbm_against_graph(
    out: dict, config_path: str, second_seed: int, threads: int
) -> list[str]:
    """Every sweep point agrees, within 4 combined standard errors, with the
    full-graph estimator run on a second seed."""
    from ruinnet.cli import load_config
    from ruinnet.model import AgentSubset
    from ruinnet.ruin import estimate_psi

    cfg = load_config(config_path)
    errors = []
    for r in rows(out["csv"]):
        params = cfg.risk_params(ns_override=int(r["ns"]))
        ref = estimate_psi(
            params,
            cfg.network,
            AgentSubset.prefix(int(r["qsize"])),
            cfg.replicates,
            second_seed,
            threads=threads,
            method="graph",
        )
        psi, se = float(r["psi_hat"]), float(r["stderr"])
        if abs(psi - ref.mean) > 4 * math.hypot(se, ref.stderr):
            errors.append(
                f"qsize={r['qsize']}: psi {psi} vs graph {ref.mean:.6g} beyond 4 combined se"
            )
    return errors


def _check_sbm(out: dict) -> list[str]:
    found = rows(out["csv"])
    if [int(r["qsize"]) for r in found] != list(range(1, 7)):
        return ["sbm sweep must have one row per group size 1..6"]
    return []


def _oracle_config(seed: int) -> dict:
    return {
        "lambda": 1.0,
        "q": 2,
        "d": 2,
        "premiums": [0.95, 1.15],
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": 0.5},
        "group": {"size": 2},
        "replicates": 100_000,
        "horizon": 1000.0,
        "outer_networks": 1200,
        "inner_paths": 5,
        "seed": seed,
    }


def _check_oracle(out: dict) -> list[str]:
    found = rows(out["csv"])
    if len(found) != 1 or found[0]["pass"] != "true":
        return [f"oracle did not pass: {found}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table", "table", 1, False, ("stderr",), _table_config, _check_table),
        Workload("sweep", "sweep", 1, True, ("stderr",), _sweep_config, _check_sweep),
        Workload("sbm", "sweep", 2, False, ("stderr",), _sbm_config, _check_sbm),
        Workload(
            "oracle",
            "oracle",
            1,
            False,
            ("psi_stderr", "oracle_stderr"),
            _oracle_config,
            _check_oracle,
        ),
    )
}
