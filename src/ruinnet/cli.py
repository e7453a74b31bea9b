"""Command-line surface: experiment configuration, the command table, and
the table/sweep/oracle experiment reproductions.

Subcommands:
    estimate  ruin and tail estimates for one configured group
    sweep     ruin estimates over group sizes 1..q (CSV, optional SVG)
    table     closed-form bound/approximation vs Monte-Carlo tail estimate
    oracle    cross-validate the ruin estimator against path simulation

Each engine takes one group's prefixes by their sizes: ``sweep`` passes every
agent and the sizes ``1..q`` once per ns, the others ``group, [group.size]``.

``COMMANDS`` maps each subcommand to its help text, runner, output fields,
CSV comment, and whether it prints one row or many; the first ``main``
call of a process builds the parser from it, later calls reuse that
parser, and ``main`` prints every result in one step.  A ``ValueError`` from
the config, from any library call or from writing ``--out``/``--svg`` is
caught once, in ``main``: exit 2.

Exit codes: 0 success, 2 configuration error, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import approx
from .model import AgentSubset, RiskParams, _run_bounds
from .netgen import BlockModel
from .output import fmt, render_csv, sweep_svg
from .pathsim import oracle_psi
from .ruin import estimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3

SEED_ENV_VAR = "RUINNET_SEED"
DEFAULT_SEED = 42
DEFAULT_NS_GRID = (3, 4, 5, 6)

# Caps on the network size: c, mu and u stay at most 128 MiB each.
MAX_AGENTS = MAX_OBJECTS = 2**24
# Caps on the sample counts: the schedulers build one task list per count
# before they sample anything, so a count must bound that list.
MAX_REPLICATES = 2**32  # at most 2**20 replicate blocks
MAX_M_CONFIGS = 2**32  # at most 2**20 configuration blocks
MAX_OUTER_NETWORKS = 2**20  # one task per block of 256 networks
MAX_INNER_PATHS = 2**20  # one network block runs inner_paths path batches
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

    def resolve(self, ns_override: Optional[int] = None) -> np.ndarray:
        """The explicit premium vector, which takes no ``ns``."""
        if ns_override is not None:
            raise ConfigError("cannot override ns with an explicit premium vector")
        return np.asarray(self.vector, dtype=np.float64)


SWEEP_FIELDS = (
    "qsize", "ns", "psi_hat", "stderr", "ci_lo", "ci_hi",
    "log10_psi", "tail_hat", "approx_prob", "stein_bound",
)

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

    @functools.cached_property
    def _mu_bounds(self) -> np.ndarray:
        return _run_bounds(self.mu, self.mu)  # mu's runs, scanned once per config

    def risk_params(self, ns_override: Optional[int] = None) -> RiskParams:
        """The parameters at ``ns_override``, else at ``ns``: the two-value scheme's
        runs (``ns`` lows, then highs) split at ``mu``'s, with no array of ``d`` floats."""
        premiums = self.premiums
        if not premiums.is_two_value:
            return RiskParams(self.lam, premiums.resolve(ns_override), self.mu, self.reserves)
        ns = premiums.ns if ns_override is None else int(ns_override)
        if ns is None:
            raise ConfigError("two-value premium scheme needs ns")
        if not 0 <= ns <= self.d:
            raise ConfigError(f"ns must lie in [0, {self.d}], got {ns}")
        bounds = np.union1d(self._mu_bounds, ns)  # an empty run at 0 or d is dropped
        c, mu = np.where(bounds[:-1] < ns, premiums.low, premiums.high), self.mu[bounds[:-1]]
        return RiskParams.from_runs(self.lam, c, mu, np.diff(bounds), self.reserves)


REQUIRED = object()


class Key(NamedTuple):
    """How one config key is read: ``read(value, name, arg)``, on ``default`` when
    the key is absent (``REQUIRED``: it must be given; ``None``: null stays ``None``).
    A string ``arg`` names an earlier key, whose value is passed in its place."""

    read: Callable
    default: object = REQUIRED
    arg: object = None


def _read(spec, keys: dict, prefix: str = "") -> dict:
    """Every key of ``keys`` read from the JSON object ``spec``.  A key of
    ``spec`` that ``keys`` lacks is an error that names the closest known key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{prefix[:-1]} must be a JSON object")
    for name in spec:
        if name not in keys:
            import difflib  # only on this error path: loading a config never pays for it

            close = difflib.get_close_matches(name, keys, n=1)
            hint = f" (did you mean '{prefix}{close[0]}'?)" if close else ""
            raise ConfigError(f"unknown config key '{prefix}{name}'{hint}")
    out = {}
    for name, key in keys.items():
        value = spec.get(name, key.default)
        if value is REQUIRED:
            raise ConfigError(f"missing '{prefix}{name}'")
        if value is None and key.default is None:
            out[name] = None
        else:
            arg = out[key.arg] if isinstance(key.arg, str) else key.arg
            out[name] = key.read(value, prefix + name, arg)
    return out


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
        raise ConfigError(f"{name} must be at most {cap}, got {value!r}")
    return n


def _at_least(value, name: str, low: int, cap: Optional[int] = None) -> int:
    n = _integer(value, name, cap)
    if n < low:
        raise ConfigError(f"{name} must be at least {low}, got {n}")
    return n


def _between(value, name: str, bounds: tuple[int, int]) -> int:
    return _at_least(value, name, *bounds)


def _integers(value, name: str, _=None) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    out = tuple(_integer(x, name) for x in value)
    if not out:
        raise ConfigError(f"{name} must not be empty")
    return out


def _real(value, name: str, vector: bool = False):
    """``value`` as a float: a JSON number, never a bool, a string or null.
    With ``vector``, (nested) lists of numbers too, as a float array."""
    if vector and isinstance(value, (list, tuple)):
        return np.asarray([_real(x, name, vector) for x in value], dtype=np.float64)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _broadcast(value, name: str, length: int) -> np.ndarray:
    arr = _real(value, name, vector=True)
    if np.ndim(arr) == 0:
        return np.full(length, arr)
    if arr.shape != (length,):
        raise ConfigError(f"{name} must be a scalar or a vector of length {length}")
    return arr


def _choice(value, name: str, allowed: tuple[str, ...]) -> str:
    if value not in allowed:
        raise ConfigError(f"{name} must be one of {', '.join(map(repr, allowed))}, got {value!r}")
    return value


VECTOR = Key(_real, arg=True)

#: The keys of each network kind, besides ``kind``.
NETWORK_KEYS = {
    "bernoulli": {"p": Key(_real)},
    "sbm": dict(w=VECTOR, v=VECTOR, p=VECTOR),
}
PREMIUM_KEYS = {"low": Key(_real), "high": Key(_real), "ns": Key(_integer, None)}
GROUP_KEYS = {"size": Key(_integer, None), "indices": Key(_integers, None)}


def _parse_network(spec, name: str, _=None) -> BlockModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a JSON object")
    spec = dict(spec)
    kind = _choice(spec.pop("kind", None), f"{name}.kind", tuple(NETWORK_KEYS))
    net = _read(spec, NETWORK_KEYS[kind], f"{name}.")
    if kind == "bernoulli":
        return BlockModel.bernoulli(net["p"])
    return BlockModel(w=net["w"], v=net["v"], p=net["p"])


def _parse_premiums(spec, name: str, d: int) -> PremiumSpec:
    if isinstance(spec, dict):
        return PremiumSpec(**_read(spec, PREMIUM_KEYS, f"{name}."))
    vec = _real(spec, name, vector=True)
    if np.shape(vec) != (d,):
        raise ConfigError(f"{name} must be a {{low, high, ns}} object or a vector of length {d}")
    return PremiumSpec(vector=tuple(vec.tolist()))


def _parse_group(spec, name: str, q: int) -> AgentSubset:
    """The agents a ``group`` spec selects, checked against ``q``."""
    size, indices = _read(spec, GROUP_KEYS, f"{name}.").values()
    if (size is None) == (indices is None):
        raise ConfigError("group must contain exactly one of 'size' and 'indices'")
    if size is not None and size > q:
        raise ConfigError(f"group size {size} exceeds agent count {q}")
    subset = AgentSubset(indices) if size is None else AgentSubset.prefix(size)
    subset.validate_for(q)
    return subset


#: Every top-level key, in reading order.
KEYS = {
    "q": Key(_between, arg=(1, MAX_AGENTS)),
    "d": Key(_between, arg=(1, MAX_OBJECTS)),
    "lambda": Key(_real, 1.0),
    "premiums": Key(_parse_premiums, arg="d"),
    "mu": Key(_broadcast, 1.0, "d"),
    "reserves": Key(_broadcast, 0.0, "q"),
    "network": Key(_parse_network),
    "group": Key(_parse_group, None, "q"),
    "replicates": Key(_between, 1000, (2, MAX_REPLICATES)),
    "seed": Key(_at_least, arg=0),
    "threads": Key(_at_least, 1, 1),
    "ns_grid": Key(_integers, None),
    "horizon": Key(_real, 1000.0),
    "outer_networks": Key(_between, 200, (2, MAX_OUTER_NETWORKS)),
    "inner_paths": Key(_between, 500, (1, MAX_INNER_PATHS)),
    "approx_mode": Key(_choice, "auto", approx.MODES),
    "m_configs": Key(_integer, 10_000, MAX_M_CONFIGS),
}


def parse_config(doc: dict, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a validated configuration from a JSON document plus overrides.

    A key outside ``KEYS``, or outside the table of the object that holds
    it, is an error.  Seed precedence: override flag, then file value,
    then the ``RUINNET_SEED`` environment variable, then 42.

    Raises:
        ConfigError: On any invalid, missing or unknown field.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    doc = {**doc, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    try:
        if doc.get("seed") is None:
            doc["seed"] = int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    try:
        cfg = _read(doc, KEYS)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    mode, m = cfg["approx_mode"], cfg["m_configs"]
    if mode != "exact" and m < approx.MIN_SAMPLED_CONFIGS:
        raise ConfigError(
            f"m_configs must be at least {approx.MIN_SAMPLED_CONFIGS} in {mode} mode, got {m}"
        )
    return ExperimentConfig(lam=cfg.pop("lambda"), **cfg)


def load_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(doc, overrides)


def cmd_estimate(cfg: ExperimentConfig) -> dict:
    """Ruin and tail estimates for the configured group."""
    group = cfg.group or AgentSubset.prefix(cfg.q)
    est = estimate(
        cfg.risk_params(), cfg.network, group, [group.size], cfg.replicates, cfg.seed, cfg.threads
    ).estimates[0]
    return {
        "psi_hat": est.psi.mean,
        "stderr": est.psi.stderr,
        "tail_hat": est.tail.mean,
    }


def _per_ns(cfg: ExperimentConfig, grid, group: AgentSubset, sizes, mode: str):
    """For each ns of ``grid``: ``(ns, estimates, approximations)`` of the
    prefixes of ``group`` of ``sizes``, from one :func:`ruin.estimate` call
    and one :func:`approx.mixture_probability` call on that ns's parameters.
    The points of one ns share their draws, so the errors of neighbouring
    group sizes are positively correlated."""
    for ns in grid:
        params = cfg.risk_params(ns_override=ns)
        estimates = estimate(
            params, cfg.network, group, sizes, cfg.replicates, cfg.seed, cfg.threads
        ).estimates
        approximations = approx.mixture_probability(
            params, cfg.network, sizes, mode, cfg.m_configs, cfg.seed, cfg.threads
        ).results
        yield int(ns), estimates, approximations


def cmd_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Sweep the group size 1..q for every ns in the grid: one row of
    :data:`SWEEP_FIELDS` per point, every agent's prefixes by :func:`_per_ns`."""
    if cfg.group is not None:
        raise ConfigError("sweep ranges over group sizes; leave 'group' unset")
    if not cfg.premiums.is_two_value:
        raise ConfigError("sweep requires the two-value premium scheme")
    grid = cfg.ns_grid or DEFAULT_NS_GRID
    everyone, sizes = AgentSubset.prefix(cfg.q), range(1, cfg.q + 1)
    rows = []
    for ns, estimates, approximations in _per_ns(cfg, grid, everyone, sizes, cfg.approx_mode):
        for size, est, ap in zip(sizes, estimates, approximations):
            psi = est.psi
            rows.append({
                "qsize": size, "ns": ns, "psi_hat": psi.mean, "stderr": psi.stderr,
                "ci_lo": psi.mean - psi.halfwidth, "ci_hi": psi.mean + psi.halfwidth,
                "log10_psi": math.log10(psi.mean) if psi.mean > 0 else None,
                "tail_hat": est.tail.mean,
                "approx_prob": ap.probability, "stein_bound": ap.stein_bound,
            })
    return rows


def cmd_table(cfg: ExperimentConfig) -> list[dict]:
    """Bound and exact-mode approximation against the Monte-Carlo tail
    estimate of the configured group, one row per ns (:func:`_per_ns`)."""
    if not cfg.network.is_bernoulli:
        raise ConfigError("table mode requires a Bernoulli network")
    if cfg.ns_grid is None:
        raise ConfigError("table mode requires an ns_grid")
    if not cfg.premiums.is_two_value:
        raise ConfigError("table mode requires the two-value premium scheme")
    group = cfg.group or AgentSubset.prefix(cfg.q)
    rows = []
    for ns, (est,), (ap,) in _per_ns(cfg, cfg.ns_grid, group, [group.size], "exact"):
        tail = est.tail
        rows.append({
            "ns": ns, "bound": ap.stein_bound, "approximation": ap.probability,
            "estimate": tail.mean, "stderr": tail.stderr,
            "abs_difference": abs(ap.probability - tail.mean),
        })
    return rows


def cmd_oracle(cfg: ExperimentConfig) -> dict:
    """Cross-validate the ruin estimator against direct path simulation."""
    if not (math.isfinite(cfg.horizon) and cfg.horizon > 0):
        raise ConfigError(f"horizon must be finite and positive, got {cfg.horizon:g}")
    params = cfg.risk_params()
    if params.lam * params.d * cfg.horizon > MAX_CLAIMS_PER_PATH:
        raise ConfigError(
            f"horizon must keep lambda*d*horizon at most {MAX_CLAIMS_PER_PATH} "
            f"expected claims per path, got horizon {cfg.horizon:g}"
        )
    group = cfg.group or AgentSubset.prefix(cfg.q)
    est = estimate(params, cfg.network, group, [group.size], cfg.replicates, cfg.seed, cfg.threads)
    psi = est.estimates[0].psi
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


def classify_shape(rows: Sequence) -> str:
    """Classify a sweep panel from a quadratic fit of log10 ruin on group size.
    Each row has a sweep row's ``qsize`` and ``log10_psi`` as attributes, such
    as ``SimpleNamespace(**row)`` of a :func:`cmd_sweep` row.

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of :data:`COMMANDS`, built on the first call and shared
    by every later one (``COMMANDS`` never changes)."""
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
