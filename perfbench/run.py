"""ruinnet benchmark: drives ``ruinnet.cli.main`` in-process on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced calls with calls traced at the module
boundaries (see ``tracer.py``) and reports the per-layer metrics.  The
run prints the environment stamp, then every metric by name with its unit
and the base of each ratio; the last line of standard output is the JSON
result.  Full records (and, when traced, the spans) are written under
``.perfbench_out/``.

``run_pace`` is the fastest timed call divided by the fastest run of a
fixed kernel (:func:`host_pace`, run before every timed call).  On a
shared host other tenants slow all code by up to about 1.5x, in bursts of
seconds to tens of minutes.  That only ever adds time, so the fastest call
tracks the code, and dividing by the kernel's fastest run in the same run
cancels most of a slowdown that lasts the whole run.  The raw fastest
call, median, quartiles and sample count of ``run_s`` are printed beside it.

An operation is one timed call or one once-per-run reference check; it
fails on an exception, a non-zero exit code or a failed output check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import spanmath  # noqa: E402
from workloads import WORKLOADS, check_sbm_against_graph, se_rms  # noqa: E402

#: Fewest timed calls per run, however long each call takes.
MIN_CALLS = 3
#: One fresh set-up process per this many timed calls.
SETUP_EVERY = 3

END_TO_END = {
    "setup_s": (
        "s",
        "median over fresh processes spread over the run of: import ruinnet.cli + load the config",
    ),
    "run_pace": (
        "ratio",
        "fastest cli.main call (after a warm-up call) / fastest host_pace kernel of the run",
    ),
    "peak_rss_mb": ("MB", "peak resident memory of the benchmark process"),
    "se_rms": ("prob", "root-mean-square of every standard-error cell of the output"),
}

PER_LAYER = {
    "cli.self_s": ("s", "self time of cli spans (span minus union of its children)"),
    "model.self_s": ("s", "self time of model spans"),
    "netgen.self_s": ("s", "self time of netgen spans"),
    "netgen.calls": ("count", "calls into netgen from other modules"),
    "ruin.self_s": ("s", "self time of ruin spans, block callbacks included"),
    "ruin.prep_s": ("s", "ruin entry calls minus the scheduler calls they make"),
    "ruin.replicates": ("count", "replicates reported by ruin entry calls"),
    "ruin.replicates_per_s": ("1/s", "ruin.replicates / busy time of ruin block callbacks"),
    "ruin.draws_useful_ratio": (
        "ratio",
        "distinct (params, model, group, B, seed) argument sets / estimator calls",
    ),
    "approx.self_s": ("s", "self time of approx spans"),
    "approx.prep_s": ("s", "approx entry calls minus the scheduler calls they make"),
    "approx.closed_form.s": ("s", "approx entry calls that returned mode closed_form"),
    "approx.exact.s": ("s", "approx entry calls that returned mode exact"),
    "approx.sampled.s": ("s", "approx entry calls that returned mode sampled"),
    "approx.configs": ("count", "config_count summed over approx entry calls"),
    "approx.configs_per_s": (
        "1/s",
        "configs of approx calls that ran blocks / busy time of approx block callbacks",
    ),
    "pathsim.self_s": ("s", "self time of pathsim spans"),
    "pathsim.paths": ("count", "outer_networks x inner_paths of pathsim entry calls"),
    "pathsim.paths_per_s": ("1/s", "pathsim.paths / duration of pathsim entry calls"),
    "pathsim.generators_per_path": (
        "ratio",
        "StreamKey.generator calls inside pathsim entry calls / pathsim.paths",
    ),
    "streams.self_s": ("s", "self time of streams spans"),
    "streams.generator.calls": ("count", "StreamKey.generator calls"),
    "streams.generator.s": ("s", "time in StreamKey.generator"),
    "streams.blocks": ("count", "callbacks run by streams schedulers"),
    "streams.block.busy_s": ("s", "summed duration of those callbacks"),
    "streams.schedule_overhead_s": (
        "s",
        "scheduler spans minus the union of their callback spans",
    ),
    "streams.parallel_eff": (
        "ratio",
        "streams.block.busy_s / (threads x summed scheduler span)",
    ),
    "streams.speedup_2t": (
        "ratio",
        "1-thread reference call / fastest 2-thread call (0 on 1-thread workloads)",
    ),
    "streams.pairwise_sum.calls": ("count", "pairwise_sum calls"),
    "streams.pairwise_sum.s": ("s", "time in pairwise_sum"),
    "output.self_s": ("s", "self time of output spans"),
    "output.bytes": ("bytes", "UTF-8 bytes of the text output entry calls return"),
    "trace.overhead_ratio": ("ratio", "fastest traced call / fastest untraced call"),
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ruinnet.cli
ruinnet.cli.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def environment(seed: int) -> dict:
    """Machine, toolchain and source stamp, read without changing anything."""
    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """Commit of the source tree, read from ``.git``; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, work: Path):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.config_path = str(work / "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(workload.config(seed), fh)
        self.outputs = {"csv": str(work / "out.csv")}
        if workload.svg:
            self.outputs["svg"] = str(work / "out.svg")

    def argv(self, threads: int) -> list[str]:
        args = [self.wl.command, "--config", self.config_path, "--out", self.outputs["csv"]]
        if self.wl.svg:
            args += ["--svg", self.outputs["svg"]]
        return args + ["--threads", str(threads)]

    def call(self, cli, threads: int, tracer=None):
        """One ``cli.main`` call: (seconds, exit code, outputs)."""
        for path in self.outputs.values():
            if os.path.exists(path):
                os.remove(path)
        argv = self.argv(threads)
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.root("cli.main"):
                code = cli.main(argv)
        seconds = time.perf_counter() - t0
        out = {}
        for name, path in self.outputs.items():
            with open(path, "r", encoding="utf-8", newline="") as fh:
                out[name] = fh.read()
        return seconds, code, out

    def operation(self, label: str, fn):
        """Run one operation; returns its value, or None if it failed."""
        self.attempted += 1
        try:
            value, errors = fn()
        except Exception:
            errors = [traceback.format_exc(limit=3)]
        if errors:
            self.failed += 1
            self.failures.extend(f"{label}: {e}" for e in errors)
            return None
        return value

    def timed(self, cli, reference, threads: int, tracer=None):
        def run():
            seconds, code, out = self.call(cli, threads, tracer)
            errors = []
            if code != 0:
                errors.append(f"exit code {code}")
            if out != reference:
                errors.append("output differs from the warm-up call")
            return seconds, errors

        return self.operation("timed call", run)


def host_pace(repeats: int = 10) -> float:
    """Fastest of ``repeats`` runs of a fixed kernel (interpreter loop,
    Philox generator construction, 50k draws and a sort; about 1 ms): how
    fast the host runs code like the workloads' right now."""
    import numpy as np

    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(5000):
            acc += i * i
        np.sort(np.random.Generator(np.random.Philox(7)).random(50_000))
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup(config_path: str) -> float:
    """Set-up time of one fresh process, as the process measures it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), config_path],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    import ruinnet
    import ruinnet.cli as cli

    if Path(ruinnet.__file__).resolve().parent != SRC / "ruinnet":
        raise RuntimeError(f"imported ruinnet from {ruinnet.__file__}, not from {SRC}")
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        return measure(args, wl, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, cli, work: Path) -> dict:
    bench = Bench(wl, args.seed, work)
    # Warm-up call: its output is the reference for the timed calls.
    _, code, reference = bench.call(cli, wl.threads)
    bench.operation("exit code", lambda: (None, [] if code == 0 else [f"exit code {code}"]))
    bench.operation("output check", lambda: (None, wl.check(reference)))
    se = se_rms(reference["csv"], wl.se_fields)

    one_thread_s = None
    if wl.threads > 1:

        def one_thread():
            seconds, code, out = bench.call(cli, 1)
            ok = code == 0 and out == reference
            return seconds, [] if ok else ["output differs from the 1-thread run"]

        one_thread_s = bench.operation("1-thread reference", one_thread)
    if wl.name == "sbm":
        bench.operation(
            "graph estimator on a second seed",
            lambda: (
                None,
                check_sbm_against_graph(reference, bench.config_path, args.seed + 1, wl.threads),
            ),
        )

    tracer = None
    if args.trace:
        import ruinnet
        from tracer import Tracer, load_layers

        tracer = Tracer(load_layers(ruinnet))
    # Host speed on a shared machine drifts over seconds, so set-up samples
    # are spread over the run, one before every SETUP_EVERY-th timed call.
    plain, traced, per_call, spans, setup, pace = [], [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_CALLS or time.perf_counter() < deadline:
        if tracer is None and rounds % SETUP_EVERY == 0:
            setup.append(measure_setup(bench.config_path))
        rounds += 1
        pace.append(host_pace())
        seconds = bench.timed(cli, reference, wl.threads)
        if seconds is not None:
            plain.append(seconds)
        if tracer is None:
            continue
        tracer.install()
        try:
            seconds = bench.timed(cli, reference, wl.threads, tracer)
        finally:
            tracer.uninstall()
        call_spans = tracer.take()
        if seconds is not None:
            traced.append(seconds)
            per_call.append(
                spanmath.call_metrics(call_spans, tracer.layers, wl.threads, tracer.traced_names)
            )
            spans.append(call_spans)

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "samples": {"run_s": plain, "traced_run_s": traced, "setup_s": setup, "pace_s": pace},
    }
    run_q = spanmath.quartiles(plain) if plain else None
    if args.trace == 0:
        metrics = {
            "setup_s": spanmath.quartiles(setup)[1],
            "run_pace": min(plain) / min(pace) if plain else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "se_rms": se,
        }
        catalogue = END_TO_END
    else:
        metrics = spanmath.median_metrics(per_call) if per_call else {}
        if per_call:
            metrics["streams.speedup_2t"] = (
                one_thread_s / min(plain) if one_thread_s is not None and plain else 0.0
            )
            metrics["trace.overhead_ratio"] = min(traced) / min(plain)
            sums = [spanmath.closure(s) for s in spans]
            result["closure"] = {
                "self_time_sum_s": spanmath.quartiles(a for a, _ in sums)[1],
                "root_span_s": spanmath.quartiles(b for _, b in sums)[1],
                "traced_run_s": spanmath.quartiles(traced)[1],
            }
        result["missing_names"] = tracer.missing
        catalogue = PER_LAYER
        write_spans(wl.name, args.seed, spans)
    result["metrics"] = {
        name: {"value": metrics.get(name), "unit": unit, "base": base}
        for name, (unit, base) in catalogue.items()
    }
    result["run_s_quartiles"] = run_q
    return result


def write_spans(workload: str, seed: int, spans: list) -> None:
    path = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    fields = ("id", "parent", "name", "layer", "kind", "start", "end", "thread", "call")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": fields,
                "calls": [[[getattr(s, f) for f in fields] for s in call] for call in spans],
            },
            fh,
        )


def report(result: dict) -> None:
    print(f"ruinnet benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"trace {result['trace']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    q = result["run_s_quartiles"]
    n = len(result["samples"]["run_s"])
    if q:
        print(f"run_s over {n} calls: fastest {min(result['samples']['run_s']):.4f}  "
              f"q1 {q[0]:.4f}  median {q[1]:.4f}  q3 {q[2]:.4f}")
    for name, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:30s} {value:>14s} {m['unit']:6s} {m['base']}")
    print(f"  {'fail_rate':30s} {result['failed'] / result['attempted']:>14.6g} "
          f"ratio  failed / attempted operations ({result['failed']} / {result['attempted']})")
    if "closure" in result:
        c = result["closure"]
        print(f"closure: self times {c['self_time_sum_s']:.4f} s + untraced remainder "
              f"{c['traced_run_s'] - c['root_span_s']:.4f} s = traced run_s "
              f"{c['traced_run_s']:.4f} s")
    for line in result["failures"]:
        print(f"FAILED {line}")
    if result.get("missing_names"):
        print("not traced (metrics absent): " + ", ".join(result["missing_names"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "ruinnet" / "__init__.py").is_file():
        print(f"error: no ruinnet source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(result)
    metrics = {
        name: {"value": m["value"], "unit": m["unit"]}
        for name, m in result["metrics"].items()
        if m["value"] is not None
    }
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
