"""Command-line surface: experiment configuration, the command table, and
the table/sweep/oracle experiment reproductions.

Subcommands:
    estimate  ruin and tail estimates for one configured group
    sweep     ruin estimates over group sizes 1..q (CSV, optional SVG)
    table     closed-form bound/approximation vs Monte-Carlo tail estimate
    oracle    cross-validate the ruin estimator against path simulation

``COMMANDS`` maps each subcommand to its help text, runner, output fields,
CSV comment, and whether it prints one row or many; ``main`` builds the
parser from it and prints every result in one step.  A ``ValueError`` from
the config, from any library call or from writing ``--out``/``--svg`` is
caught once, in ``main``: exit 2.

Exit codes: 0 success, 2 configuration error, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import approx
from .model import AgentSubset, RiskParams
from .netgen import BlockModel
from .output import fmt, render_csv, sweep_svg
from .pathsim import oracle_psi
from .ruin import estimate, estimate_psi, estimate_tail

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3

SEED_ENV_VAR = "RUINNET_SEED"
DEFAULT_SEED = 42
DEFAULT_NS_GRID = (3, 4, 5, 6)

# Caps on the sample counts: the schedulers build one task list per count
# before they sample anything, so a count must bound that list.
MAX_REPLICATES = 2**32  # at most 2**20 replicate blocks
MAX_M_CONFIGS = 2**32  # at most 2**20 configuration blocks
MAX_OUTER_NETWORKS = 2**20  # one task per network
MAX_INNER_PATHS = 2**20  # one path list per network
# An oracle path that never ruins simulates every claim up to the horizon,
# lam * d * horizon of them on average.
MAX_CLAIMS_PER_PATH = 2**20

U_SHAPE = "U_SHAPE"
S_SHAPE = "S_SHAPE"
FLAT = "FLAT"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class PremiumSpec:
    """Premium rates: an explicit vector, or a two-value scheme where the
    first ``ns`` objects get ``low`` and the rest get ``high``."""

    vector: Optional[tuple[float, ...]] = None
    low: Optional[float] = None
    high: Optional[float] = None
    ns: Optional[int] = None

    @property
    def is_two_value(self) -> bool:
        return self.vector is None

    def resolve(self, d: int, ns_override: Optional[int] = None) -> np.ndarray:
        if self.vector is not None:
            if ns_override is not None:
                raise ConfigError("cannot override ns with an explicit premium vector")
            if len(self.vector) != d:
                raise ConfigError(f"premium vector must have length {d}")
            return np.asarray(self.vector, dtype=np.float64)
        ns = self.ns if ns_override is None else int(ns_override)
        if ns is None:
            raise ConfigError("two-value premium scheme needs ns")
        if not 0 <= ns <= d:
            raise ConfigError(f"ns must lie in [0, {d}], got {ns}")
        out = np.full(d, float(self.high))
        out[:ns] = float(self.low)
        return out


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: estimates, interval, and approximation columns."""

    qsize: int
    ns: int
    psi_hat: float
    stderr: float
    ci_lo: float
    ci_hi: float
    log10_psi: Optional[float]
    tail_hat: float
    approx_prob: float
    stein_bound: float


SWEEP_FIELDS = tuple(f.name for f in fields(SweepRow))

TABLE_FIELDS = ("ns", "bound", "approximation", "estimate", "stderr", "abs_difference")


@dataclass
class ExperimentConfig:
    """Validated experiment description loaded from a JSON document."""

    lam: float
    q: int
    d: int
    premiums: PremiumSpec
    mu: np.ndarray
    reserves: np.ndarray
    network: BlockModel
    group: Optional[AgentSubset]  # None: every agent, or every size in a sweep
    replicates: int
    seed: int
    threads: int
    ns_grid: Optional[tuple[int, ...]]
    horizon: float
    outer_networks: int
    inner_paths: int
    approx_mode: str
    m_configs: int

    def risk_params(self, ns_override: Optional[int] = None) -> RiskParams:
        c = self.premiums.resolve(self.d, ns_override)
        return RiskParams(lam=self.lam, c=c, mu=self.mu, u=self.reserves)


def _integer(value, name: str, cap: Optional[int] = None) -> int:
    """``value`` as an int: an integer or an integral float such as ``1e5``,
    never a bool, and at most ``cap`` when one is given."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if cap is not None and n > cap:
        raise ConfigError(f"{name} must be at most {cap}, got {n}")
    return n


def _real(value, name: str, vector: bool = False):
    """``value`` as a float: a JSON number, never a bool, a string or null.
    With ``vector``, (nested) lists of numbers too, as a float array."""
    if vector and isinstance(value, (list, tuple)):
        return np.asarray([_real(x, name, vector) for x in value], dtype=np.float64)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _broadcast(value, length: int, name: str) -> np.ndarray:
    arr = _real(value, name, vector=True)
    if np.ndim(arr) == 0:
        return np.full(length, arr)
    if arr.shape != (length,):
        raise ConfigError(f"{name} must be a scalar or a vector of length {length}")
    return arr


def _parse_network(spec, q: int, d: int) -> BlockModel:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("network must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "bernoulli":
            return BlockModel.bernoulli(_real(spec["p"], "network.p"))
        if kind == "sbm":
            w, v, p = (_real(spec[key], f"network.{key}", vector=True) for key in "wvp")
            model = BlockModel(w=w, v=v, p=p)
            if "K" in spec and _integer(spec["K"], "network.K") != model.K:
                raise ConfigError(f"K={spec['K']} does not match w of length {model.K}")
            if "L" in spec and _integer(spec["L"], "network.L") != model.L:
                raise ConfigError(f"L={spec['L']} does not match v of length {model.L}")
            return model
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid network spec: {exc}") from exc
    raise ConfigError(f"unknown network kind {kind!r}")


def _parse_premiums(spec, d: int) -> PremiumSpec:
    if isinstance(spec, (list, tuple)):
        vec = _real(spec, "premiums", vector=True)
        if vec.shape != (d,):
            raise ConfigError(f"premium vector must have length {d}")
        return PremiumSpec(vector=tuple(vec.tolist()))
    if isinstance(spec, dict):
        if "low" not in spec or "high" not in spec:
            raise ConfigError("two-value premiums need numeric 'low' and 'high'")
        low = _real(spec["low"], "premiums.low")
        high = _real(spec["high"], "premiums.high")
        ns = spec.get("ns")
        ns = None if ns is None else _integer(ns, "premiums.ns")
        return PremiumSpec(low=low, high=high, ns=ns)
    raise ConfigError("premiums must be a vector or a {low, high, ns} object")


def _parse_group(group, q: int) -> AgentSubset:
    """The agents a ``group`` spec selects, checked against ``q``."""
    if not isinstance(group, dict):
        raise ConfigError("group must be an object with 'size' or 'indices'")
    if "indices" in group:
        subset = AgentSubset(tuple(_integer(i, "group.indices") for i in group["indices"]))
    elif "size" in group:
        size = _integer(group["size"], "group.size")
        if size > q:
            raise ConfigError(f"group size {size} exceeds agent count {q}")
        subset = AgentSubset.prefix(size)
    else:
        raise ConfigError("group must contain 'size' or 'indices'")
    subset.validate_for(q)
    return subset


def parse_config(doc: dict, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a validated configuration from a JSON document plus overrides.

    Seed precedence: override flag, then file value, then the
    ``RUINNET_SEED`` environment variable, then 42.

    Raises:
        ConfigError: On any invalid or missing field.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    try:
        return _parse_config(doc, overrides or {})
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_config(doc: dict, overrides: dict) -> ExperimentConfig:
    try:
        q = _integer(doc["q"], "q")
        d = _integer(doc["d"], "d")
    except KeyError as exc:
        raise ConfigError(f"missing q/d: {exc}") from exc
    lam = _real(doc.get("lambda", doc.get("lam", 1.0)), "lambda")
    if q < 1 or d < 1:
        raise ConfigError("q and d must be at least 1")
    if "premiums" not in doc:
        raise ConfigError("missing 'premiums'")
    if "network" not in doc:
        raise ConfigError("missing 'network'")

    group = doc.get("group")

    seed = overrides.get("seed")
    if seed is None:
        seed = doc.get("seed")
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError as exc:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    seed = DEFAULT_SEED if seed is None else _integer(seed, "seed")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")

    replicates = overrides.get("replicates")
    if replicates is None:
        replicates = doc.get("replicates", 1000)
    threads = overrides.get("threads")
    if threads is None:
        threads = doc.get("threads", 1)
    threads = _integer(threads, "threads")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")

    ns_grid = doc.get("ns_grid")
    if ns_grid is not None:
        ns_grid = tuple(_integer(x, "ns_grid") for x in ns_grid)
        if not ns_grid:
            raise ConfigError("ns_grid must not be empty")

    return ExperimentConfig(
        lam=lam,
        q=q,
        d=d,
        premiums=_parse_premiums(doc["premiums"], d),
        mu=_broadcast(doc.get("mu", 1.0), d, "mu"),
        reserves=_broadcast(doc.get("reserves", 0.0), q, "reserves"),
        network=_parse_network(doc["network"], q, d),
        group=None if group is None else _parse_group(group, q),
        replicates=_integer(replicates, "replicates", MAX_REPLICATES),
        seed=seed,
        threads=threads,
        ns_grid=ns_grid,
        horizon=_real(doc.get("horizon", 1000.0), "horizon"),
        outer_networks=_integer(
            doc.get("outer_networks", 200), "outer_networks", MAX_OUTER_NETWORKS
        ),
        inner_paths=_integer(doc.get("inner_paths", 500), "inner_paths", MAX_INNER_PATHS),
        approx_mode=str(doc.get("approx_mode", "auto")),
        m_configs=_integer(doc.get("m_configs", 10_000), "m_configs", MAX_M_CONFIGS),
    )


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(doc, overrides)


def _approx_point(cfg: ExperimentConfig, params: RiskParams, group: AgentSubset):
    """Pick the approximation mode for a sweep/estimate point."""
    mode = cfg.approx_mode
    if mode == "auto":
        if cfg.network.is_bernoulli:
            mode = approx.MODE_CLOSED_FORM
        elif approx.exact_enumerable(params, cfg.network, group):
            mode = approx.MODE_EXACT
        else:
            mode = approx.MODE_SAMPLED
    return approx.mixture_probability(
        params,
        cfg.network,
        group,
        mode=mode,
        m_configs=cfg.m_configs,
        base_seed=cfg.seed,
        threads=cfg.threads,
    )


def cmd_estimate(cfg: ExperimentConfig) -> dict:
    """Ruin and tail estimates for the configured group."""
    group = cfg.group or AgentSubset.prefix(cfg.q)
    est = estimate(cfg.risk_params(), cfg.network, group, cfg.replicates, cfg.seed, cfg.threads)
    return {
        "psi_hat": est.psi.mean,
        "stderr": est.psi.stderr,
        "tail_hat": est.tail.mean,
    }


def cmd_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Sweep the group size 1..q for every ns in the grid: one
    :class:`SweepRow`, as a dict, per point."""
    if cfg.group is not None:
        raise ConfigError("sweep ranges over group sizes; leave 'group' unset")
    if not cfg.premiums.is_two_value:
        raise ConfigError("sweep requires the two-value premium scheme")
    grid = cfg.ns_grid or DEFAULT_NS_GRID
    rows = []
    for ns in grid:
        params = cfg.risk_params(ns_override=ns)
        for k in range(1, cfg.q + 1):
            group = AgentSubset.prefix(k)
            est = estimate(params, cfg.network, group, cfg.replicates, cfg.seed, cfg.threads)
            ap = _approx_point(cfg, params, group)
            psi = est.psi
            row = SweepRow(
                qsize=k,
                ns=int(ns),
                psi_hat=psi.mean,
                stderr=psi.stderr,
                ci_lo=psi.mean - psi.halfwidth,
                ci_hi=psi.mean + psi.halfwidth,
                log10_psi=math.log10(psi.mean) if psi.mean > 0 else None,
                tail_hat=est.tail.mean,
                approx_prob=ap.probability,
                stein_bound=ap.stein_bound,
            )
            rows.append(asdict(row))
    return rows


def cmd_table(cfg: ExperimentConfig) -> list[dict]:
    """Bound and approximation against the Monte-Carlo tail estimate."""
    if not cfg.network.is_bernoulli:
        raise ConfigError("table mode requires a Bernoulli network")
    if cfg.ns_grid is None:
        raise ConfigError("table mode requires an ns_grid")
    if not cfg.premiums.is_two_value:
        raise ConfigError("table mode requires the two-value premium scheme")
    group = cfg.group or AgentSubset.prefix(cfg.q)
    rows = []
    for ns in cfg.ns_grid:
        params = cfg.risk_params(ns_override=ns)
        ap = approx.mixture_probability(params, cfg.network, group, approx.MODE_CLOSED_FORM)
        tail = estimate_tail(params, cfg.network, group, cfg.replicates, cfg.seed, cfg.threads)
        rows.append(
            {
                "ns": int(ns),
                "bound": ap.stein_bound,
                "approximation": ap.probability,
                "estimate": tail.mean,
                "stderr": tail.stderr,
                "abs_difference": abs(ap.probability - tail.mean),
            }
        )
    return rows


def cmd_oracle(cfg: ExperimentConfig) -> dict:
    """Cross-validate the ruin estimator against direct path simulation."""
    if cfg.q * cfg.d > 100:
        raise ConfigError("oracle mode limited to small instances (q*d <= 100)")
    params = cfg.risk_params()
    if params.lam * params.d * cfg.horizon > MAX_CLAIMS_PER_PATH:
        raise ConfigError(
            f"horizon must keep lambda*d*horizon at most {MAX_CLAIMS_PER_PATH} "
            f"expected claims per path, got horizon {cfg.horizon:g}"
        )
    group = cfg.group or AgentSubset.prefix(cfg.q)
    psi = estimate_psi(params, cfg.network, group, cfg.replicates, cfg.seed, cfg.threads)
    oracle = oracle_psi(
        params,
        cfg.network,
        group,
        horizon=cfg.horizon,
        outer_networks=cfg.outer_networks,
        inner_paths=cfg.inner_paths,
        base_seed=cfg.seed,
        threads=cfg.threads,
    )
    discrepancy = abs(psi.mean - oracle.mean)
    tolerance = max(0.02, 4.0 * math.hypot(psi.stderr, oracle.stderr))
    return {
        "psi_hat": psi.mean,
        "psi_stderr": psi.stderr,
        "oracle": oracle.mean,
        "oracle_stderr": oracle.stderr,
        "discrepancy": discrepancy,
        "tolerance": tolerance,
        "pass": discrepancy <= tolerance,
    }


def classify_shape(rows: Sequence[SweepRow]) -> str:
    """Classify a sweep panel from a quadratic fit of log10 ruin on group size.

    U_SHAPE: significantly convex with an interior fitted minimum.
    S_SHAPE: fitted values increase monotonically (within noise) by a
    significant total amount.  FLAT otherwise.
    """
    pts = [
        (r.qsize, r.log10_psi)
        for r in rows
        if r.log10_psi is not None and math.isfinite(r.log10_psi)
    ]
    if len(pts) < 4:
        raise ValueError("shape classification needs at least 4 finite points")
    x = np.asarray([p[0] for p in pts], dtype=np.float64)
    y = np.asarray([p[1] for p in pts], dtype=np.float64)
    X = np.column_stack([np.ones_like(x), x, x * x])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coef
    dof = len(pts) - 3
    resid_var = float(((y - fitted) ** 2).sum()) / dof if dof > 0 else 0.0
    se_resid = math.sqrt(resid_var)
    cov = resid_var * np.linalg.inv(X.T @ X)
    se_quad = math.sqrt(max(0.0, cov[2, 2]))
    a, b, c = (float(v) for v in coef)

    q_max = max(r.qsize for r in rows)
    if c > 2.0 * se_quad:
        vertex = -b / (2.0 * c)
        if 1.0 < vertex < q_max:
            return U_SHAPE
    diffs = np.diff(fitted)
    rises = bool((diffs >= -2.0 * se_resid).all())
    if rises and fitted[-1] - fitted[0] > 2.0 * se_resid:
        return S_SHAPE
    return FLAT


# --- entry point -------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand: its runner and how its result is printed."""

    help: str
    run: Callable[[ExperimentConfig], Union[dict, list[dict]]]
    fields: tuple[str, ...]
    comment: Optional[str] = None
    many: bool = False  # the runner returns a list of rows, not one result


COMMANDS = {
    "estimate": Command(
        "ruin/tail estimate for one configured group",
        cmd_estimate,
        ("psi_hat", "stderr", "tail_hat"),
    ),
    "sweep": Command(
        "sweep group sizes 1..q over an ns grid",
        cmd_sweep,
        SWEEP_FIELDS,
        comment="log10_psi uses base-10 logarithm",
        many=True,
    ),
    "table": Command(
        "bound/approximation table vs Monte-Carlo estimates", cmd_table, TABLE_FIELDS, many=True
    ),
    "oracle": Command(
        "cross-check the estimator against path simulation",
        cmd_oracle,
        ("psi_hat", "psi_stderr", "oracle", "oracle_stderr", "discrepancy", "tolerance", "pass"),
    ),
}


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinnet",
        description="Group ruin probabilities on random bipartite insurance networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override base seed")
        cmd.add_argument(
            "--replicates", type=int, default=None, help="override replicate count"
        )
        cmd.add_argument("--threads", type=int, default=None, help="worker threads")
        cmd.add_argument("--out", default=None, help="output file (default stdout)")
        cmd.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        if name == "sweep":
            cmd.add_argument("--svg", default=None, help="also write an SVG plot")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    overrides = {k: getattr(args, k) for k in ("seed", "replicates", "threads")}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    try:
        result = command.run(load_config(args.config, overrides))
        if args.format == "json":
            text = json.dumps(result, indent=2, sort_keys=True) + "\n"
        else:
            rows = result if command.many else [result]
            text = render_csv(command.fields, rows, comment=command.comment)
        # the plot first, so that a failed write leaves stdout empty
        if getattr(args, "svg", None):
            _write_text(args.svg, sweep_svg(result))
        _write_text(args.out, text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "oracle":
        status = "PASS" if result["pass"] else "FAIL"
        print(
            f"oracle {status}: discrepancy {fmt(result['discrepancy'])} "
            f"vs tolerance {fmt(result['tolerance'])}",
            file=sys.stderr,
        )
        return EXIT_OK if result["pass"] else EXIT_ORACLE
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
