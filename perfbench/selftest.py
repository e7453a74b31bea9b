"""Self-test of the benchmark's arithmetic and tracer.

    python3 perfbench/selftest.py

Synthetic spans check self time with overlapping children, the quartiles,
and the bases of the ratio metrics; fake modules check that the tracer
tolerates a missing name; one small real CLI call checks that self times
add up to the traced call on one thread.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spanmath import (  # noqa: E402
    CallTree,
    Span,
    call_metrics,
    closure,
    median_metrics,
    quartiles,
    union_length,
)
from tracer import Tracer, load_layers  # noqa: E402

LAYERS = ("cli", "model", "netgen", "ruin", "approx", "pathsim", "streams", "output")
ALL_NAMES = {"streams.StreamKey.generator", "streams.pairwise_sum"}


def span(sid, parent, name, kind, start, end, thread=1, **tags):
    return Span(sid, parent, name, name.split(".")[0], kind, start, end, thread, 1, tags)


def two_thread_call():
    """cli root [0, 10] -> ruin estimator [1, 9] -> streams scheduler [2, 8]
    -> two ruin callbacks on two threads, [2, 6] and [3, 7], the first
    calling netgen for [3, 4]; then a second estimator with the same
    arguments [9, 9.5] without blocks."""
    return [
        span(1, None, "cli.main", "root", 0.0, 10.0),
        span(2, 1, "ruin.estimate_psi", "call", 1.0, 9.0, replicates=100, draws="k"),
        span(3, 2, "streams.map_blocks", "call", 2.0, 8.0),
        span(4, 3, "ruin.work", "callback", 2.0, 6.0, thread=1),
        span(5, 3, "ruin.work", "callback", 3.0, 7.0, thread=2),
        span(6, 4, "netgen.sample_group_counts", "call", 3.0, 4.0),
        span(7, 1, "ruin.estimate_tail", "call", 9.0, 9.5, replicates=100, draws="k"),
    ]


class Arithmetic(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(union_length([]), 0.0)
        self.assertEqual(union_length([(0, 1), (2, 3)]), 2.0)
        self.assertEqual(union_length([(0, 4), (1, 2), (3, 5)]), 5.0)
        self.assertEqual(union_length([(2, 3), (0, 1), (0.5, 2.5)]), 3.0)

    def test_self_time_with_overlapping_children(self):
        tree = CallTree(two_thread_call())
        # scheduler [2, 8] is covered by [2, 6] U [3, 7] = [2, 7]
        self.assertAlmostEqual(tree.self_time(tree.by_id[3]), 1.0)
        self.assertAlmostEqual(tree.self_time(tree.by_id[4]), 3.0)
        self.assertAlmostEqual(tree.self_time(tree.by_id[1]), 10.0 - 8.5)

    def test_children_are_clipped_to_the_parent(self):
        tree = CallTree([span(1, None, "cli.main", "root", 0, 1), span(2, 1, "ruin.f", "call", 0.5, 3)])
        self.assertAlmostEqual(tree.self_time(tree.by_id[1]), 0.5)

    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        self.assertEqual(quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(quartiles(values)[1], statistics.median(values))
        self.assertEqual(quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_ratio_bases(self):
        m = call_metrics(two_thread_call(), LAYERS, threads=2, traced_names=ALL_NAMES)
        self.assertAlmostEqual(m["ruin.prep_s"], (8.0 - 6.0) + 0.5)
        self.assertEqual(m["ruin.replicates"], 200.0)
        # per second of ruin callback busy time: 4 + 4 seconds
        self.assertAlmostEqual(m["ruin.replicates_per_s"], 200.0 / 8.0)
        self.assertEqual(m["ruin.draws_useful_ratio"], 0.5)
        self.assertEqual(m["streams.blocks"], 2.0)
        self.assertAlmostEqual(m["streams.block.busy_s"], 8.0)
        self.assertAlmostEqual(m["streams.schedule_overhead_s"], 1.0)
        # busy / (threads x scheduler span) = 8 / (2 x 6)
        self.assertAlmostEqual(m["streams.parallel_eff"], 8.0 / 12.0)
        self.assertEqual(m["netgen.calls"], 1.0)
        self.assertAlmostEqual(m["netgen.self_s"], 1.0)
        self.assertAlmostEqual(m["ruin.self_s"], 2.0 + 3.0 + 4.0 + 0.5)

    def test_path_and_generator_bases(self):
        spans = [
            span(1, None, "cli.main", "root", 0, 10),
            span(2, 1, "pathsim.oracle_psi", "call", 0, 8, paths=4),
            span(3, 2, "streams.StreamKey.generator", "call", 1, 2),
            span(4, 2, "streams.StreamKey.generator", "call", 2, 3),
            span(5, 1, "streams.StreamKey.generator", "call", 9, 10),
        ]
        m = call_metrics(spans, LAYERS, threads=1, traced_names=ALL_NAMES)
        self.assertEqual(m["pathsim.paths"], 4.0)
        self.assertAlmostEqual(m["pathsim.paths_per_s"], 4.0 / 8.0)
        self.assertAlmostEqual(m["pathsim.generators_per_path"], 2.0 / 4.0)
        self.assertEqual(m["streams.generator.calls"], 3.0)

    def test_approx_modes_and_configs(self):
        spans = [
            span(1, None, "cli.main", "root", 0, 10),
            span(2, 1, "approx.mixture_probability", "call", 0, 1, mode="closed_form", config_count=1),
            span(3, 1, "approx.mixture_probability", "call", 1, 5, mode="sampled", config_count=300),
            span(4, 3, "streams.map_blocks", "call", 2, 5),
            span(5, 4, "approx.work", "callback", 2, 5),
        ]
        m = call_metrics(spans, LAYERS, threads=1, traced_names=ALL_NAMES)
        self.assertEqual(m["approx.closed_form.s"], 1.0)
        self.assertEqual(m["approx.sampled.s"], 4.0)
        self.assertEqual(m["approx.exact.s"], 0.0)
        self.assertEqual(m["approx.configs"], 301.0)
        self.assertAlmostEqual(m["approx.configs_per_s"], 300.0 / 3.0)
        self.assertAlmostEqual(m["approx.prep_s"], 1.0 + 1.0)

    def test_missing_names_are_absent_not_zero(self):
        spans = [
            span(1, None, "cli.main", "root", 0, 1),
            span(2, 1, "approx.mixture_probability", "call", 0, 1),
        ]
        layers = [name for name in LAYERS if name != "pathsim"]
        m = call_metrics(spans, layers, threads=1, traced_names=set())
        self.assertIsNone(m["pathsim.self_s"])
        self.assertIsNone(m["pathsim.generators_per_path"])
        self.assertIsNone(m["streams.generator.calls"])
        self.assertIsNone(m["streams.pairwise_sum.s"])
        self.assertIsNone(m["approx.sampled.s"])  # result carried no mode
        self.assertEqual(m["ruin.replicates"], 0.0)  # layer present, no work
        merged = median_metrics([m, dict(m, **{"cli.self_s": 3.0})])
        self.assertIsNone(merged["pathsim.self_s"])
        self.assertAlmostEqual(merged["cli.self_s"], (m["cli.self_s"] + 3.0) / 2)


def fake_package():
    """Modules ``fake.cli`` (binds ``ruin.estimate`` by name and ``streams``
    as a module) and ``fake.ruin``/``fake.streams``; no ``StreamKey``."""
    streams = types.ModuleType("fake.streams")
    ruin = types.ModuleType("fake.ruin")
    cli = types.ModuleType("fake.cli")

    def map_blocks(n, fn, threads=1):
        return [fn(k) for k in range(n)]

    def estimate(n, threads=1):
        def work(k):
            return k * k

        work.__module__ = "fake.ruin"
        return sum(ruin.map_blocks(n, work, threads))

    def main(n):
        return cli.estimate(n) + len(cli.streams.map_blocks(2, lambda k: k))

    for mod, fns in ((streams, [map_blocks]), (ruin, [estimate]), (cli, [main])):
        for fn in fns:
            fn.__module__ = mod.__name__
            setattr(mod, fn.__name__, fn)
    ruin.map_blocks = map_blocks
    cli.estimate = estimate
    cli.streams = streams
    return {"cli": cli, "ruin": ruin, "streams": streams}


class TracerOnFakeModules(unittest.TestCase):
    def test_missing_method_is_reported_and_bindings_restored(self):
        layers = fake_package()
        original = layers["cli"].estimate
        tracer = Tracer(layers)
        tracer.install()
        try:
            with tracer.root("cli.main"):
                self.assertEqual(layers["cli"].main(3), 0 + 1 + 4 + 2)
        finally:
            tracer.uninstall()
        self.assertIs(layers["cli"].estimate, original)
        self.assertIs(layers["cli"].streams, layers["streams"])
        self.assertEqual(tracer.missing, ["streams.StreamKey.generator"])
        spans = tracer.take()
        names = [s.name for s in spans]
        self.assertEqual(names.count("ruin.estimate"), 1)
        self.assertEqual(names.count("streams.map_blocks"), 2)
        callbacks = [s for s in spans if s.kind == "callback"]
        self.assertEqual([s.layer for s in callbacks], ["ruin"] * 3)
        m = call_metrics(spans, ["cli", "ruin", "streams"], 1, tracer.traced_names)
        self.assertIsNone(m["streams.generator.calls"])


class TracerOnRuinnet(unittest.TestCase):
    def test_self_times_add_up_on_one_thread(self):
        src = HERE.parent / "src"
        if not (src / "ruinnet").is_dir():
            self.skipTest("no ruinnet source next to the benchmark")
        sys.path.insert(0, str(src))
        import ruinnet
        import ruinnet.cli as cli
        from ruinnet.streams import StreamKey

        doc = {
            "q": 3, "d": 3, "premiums": {"low": 0.95, "high": 1.05},
            "reserves": 1.0, "network": {"kind": "bernoulli", "p": 0.5},
            "replicates": 5000, "seed": 3, "ns_grid": [1, 2],
        }
        generator = StreamKey.generator
        tracer = Tracer(load_layers(ruinnet))
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "c.json"
            config.write_text(json.dumps(doc))
            argv = ["sweep", "--config", str(config), "--out", str(Path(tmp) / "o.csv")]
            tracer.install()
            try:
                with tracer.root("cli.main"):
                    self.assertEqual(cli.main(argv), 0)
            finally:
                tracer.uninstall()
        self.assertIs(StreamKey.generator, generator)
        self.assertEqual(tracer.missing, [])
        spans = tracer.take()
        total, root = closure(spans)
        self.assertAlmostEqual(total, root, delta=1e-9)
        m = call_metrics(spans, load_layers(ruinnet), 1, tracer.traced_names)
        self.assertEqual(m["ruin.draws_useful_ratio"], 0.5)
        self.assertEqual(m["ruin.replicates"], 2 * 3 * 2 * 5000)


if __name__ == "__main__":
    unittest.main()
