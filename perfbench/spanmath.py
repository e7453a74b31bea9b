"""Arithmetic on spans and timing samples: interval unions, self time,
quartiles, and the per-layer metrics of one traced ``cli.main`` call.

A span is a :class:`Span`.  ``kind`` is ``"root"`` for the benchmark's own
span around one ``cli.main`` call, ``"call"`` for a call that crosses from
one ruinnet module into another, and ``"callback"`` for a function that
was passed across such a boundary (the block callbacks a scheduler runs).
A span's ``layer`` is the module that defined the function it times.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Optional

APPROX_MODES = ("closed_form", "exact", "sampled")


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    layer: str
    kind: str
    start: float
    end: float
    thread: int
    call: int
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _covered(span: Span, others: Iterable[Span]) -> float:
    """Length of ``span`` covered by ``others``, each clipped to ``span``."""
    return union_length(
        (max(o.start, span.start), min(o.end, span.end)) for o in others
    )


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    vals = sorted(values)
    if not vals:
        raise ValueError("no values")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


class CallTree:
    """The spans of one ``cli.main`` call, indexed by parent."""

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: dict[int, list[Span]] = {s.id: [] for s in self.spans}
        for s in self.spans:
            if s.parent in self.children:
                self.children[s.parent].append(s)
        roots = [s for s in self.spans if s.kind == "root"]
        self.root = roots[0] if roots else None

    def self_time(self, span: Span) -> float:
        """Span duration minus the union of its children's intervals."""
        return span.duration - _covered(span, self.children[span.id])

    def is_scheduler(self, span: Span) -> bool:
        return any(c.kind == "callback" for c in self.children[span.id])

    def callbacks(self, span: Span) -> list[Span]:
        return [c for c in self.children[span.id] if c.kind == "callback"]

    def entries(self, layer: str) -> list[Span]:
        """Calls into ``layer`` from another layer (or from the benchmark)."""
        out = []
        for s in self.spans:
            if s.layer != layer or s.kind != "call":
                continue
            parent = self.by_id.get(s.parent)
            if parent is None or parent.layer != layer:
                out.append(s)
        return out

    def prep_time(self, span: Span) -> float:
        """Span duration outside the scheduler calls it makes, at any depth."""
        cover = []
        todo = list(self.children[span.id])
        while todo:
            c = todo.pop()
            if self.is_scheduler(c):
                cover.append(c)
            else:
                todo.extend(self.children[c.id])
        return span.duration - _covered(span, cover)

    def has_ancestor(self, span: Span, ids: set[int]) -> bool:
        p = span.parent
        while p is not None:
            if p in ids:
                return True
            p = self.by_id[p].parent if p in self.by_id else None
        return False


def _tag_sum(spans: list[Span], tag: str) -> Optional[float]:
    """Sum of ``tag`` over spans; None (absent) when spans exist but none
    carries the tag, 0 when there are no spans."""
    tagged = [s.tags[tag] for s in spans if tag in s.tags]
    if spans and not tagged:
        return None
    return float(sum(tagged))


def _rate(count: Optional[float], seconds: float) -> Optional[float]:
    if count is None:
        return None
    return count / seconds if seconds > 0 else 0.0


def call_metrics(
    spans: Iterable[Span],
    layers: Iterable[str],
    threads: int,
    traced_names: set[str],
) -> dict[str, Optional[float]]:
    """Per-layer metrics of one traced call.

    ``layers`` are the package modules found at run time and
    ``traced_names`` the span names the tracer could install; a metric
    whose layer, function or result field is gone is None (absent).
    A metric whose layer did no work on this workload is 0.
    """
    tree = CallTree(spans)
    layers = set(layers)
    out: dict[str, Optional[float]] = {}

    for layer in ("cli", "model", "netgen", "ruin", "approx", "pathsim", "streams", "output"):
        present = layer in layers
        out[f"{layer}.self_s"] = (
            sum(tree.self_time(s) for s in tree.spans if s.layer == layer) if present else None
        )

    def busy(layer: str) -> float:
        return sum(s.duration for s in tree.spans if s.kind == "callback" and s.layer == layer)

    out["netgen.calls"] = (
        float(sum(1 for s in tree.spans if s.layer == "netgen" and s.kind == "call"))
        if "netgen" in layers
        else None
    )

    # ruin: estimator calls are the entries that report a replicate count.
    if "ruin" in layers:
        entries = tree.entries("ruin")
        estimators = [s for s in entries if "replicates" in s.tags]
        replicates = _tag_sum(entries, "replicates")
        out["ruin.prep_s"] = sum(tree.prep_time(s) for s in entries)
        out["ruin.replicates"] = replicates
        out["ruin.replicates_per_s"] = _rate(replicates, busy("ruin"))
        keys = [s.tags["draws"] for s in estimators if "draws" in s.tags]
        if estimators and len(keys) == len(estimators):
            out["ruin.draws_useful_ratio"] = len(set(keys)) / len(estimators)
        else:
            out["ruin.draws_useful_ratio"] = None if estimators else 0.0
    else:
        for name in ("prep_s", "replicates", "replicates_per_s", "draws_useful_ratio"):
            out[f"ruin.{name}"] = None

    if "approx" in layers:
        entries = tree.entries("approx")
        out["approx.prep_s"] = sum(tree.prep_time(s) for s in entries)
        moded = [s for s in entries if "mode" in s.tags]
        for mode in APPROX_MODES:
            out[f"approx.{mode}.s"] = (
                None
                if entries and not moded
                else sum(s.duration for s in moded if s.tags["mode"] == mode)
            )
        sampling = [s for s in entries if tree.prep_time(s) < s.duration]
        out["approx.configs"] = _tag_sum(entries, "config_count")
        out["approx.configs_per_s"] = _rate(_tag_sum(sampling, "config_count"), busy("approx"))
    else:
        for name in ("prep_s", "closed_form.s", "exact.s", "sampled.s", "configs", "configs_per_s"):
            out[f"approx.{name}"] = None

    if "pathsim" in layers:
        entries = tree.entries("pathsim")
        paths = _tag_sum(entries, "paths")
        out["pathsim.paths"] = paths
        out["pathsim.paths_per_s"] = _rate(paths, sum(s.duration for s in entries))
        ids = {s.id for s in entries}
        gens = [
            s for s in tree.spans
            if s.name == "streams.StreamKey.generator" and tree.has_ancestor(s, ids)
        ]
        if paths is None or "streams.StreamKey.generator" not in traced_names:
            out["pathsim.generators_per_path"] = None
        else:
            out["pathsim.generators_per_path"] = len(gens) / paths if paths else 0.0
    else:
        for name in ("paths", "paths_per_s", "generators_per_path"):
            out[f"pathsim.{name}"] = None

    for metric, span_name in (
        ("streams.generator", "streams.StreamKey.generator"),
        ("streams.pairwise_sum", "streams.pairwise_sum"),
    ):
        hits = [s for s in tree.spans if s.name == span_name]
        known = span_name in traced_names
        out[f"{metric}.calls"] = float(len(hits)) if known else None
        out[f"{metric}.s"] = sum(s.duration for s in hits) if known else None

    if "streams" in layers:
        schedulers = [s for s in tree.spans if s.layer == "streams" and tree.is_scheduler(s)]
        blocks = [b for s in schedulers for b in tree.callbacks(s)]
        block_busy = sum(b.duration for b in blocks)
        sched_span = sum(s.duration for s in schedulers)
        out["streams.blocks"] = float(len(blocks))
        out["streams.block.busy_s"] = block_busy
        out["streams.schedule_overhead_s"] = sum(
            s.duration - _covered(s, tree.callbacks(s)) for s in schedulers
        )
        out["streams.parallel_eff"] = (
            block_busy / (threads * sched_span) if sched_span > 0 else 0.0
        )
    else:
        for name in ("blocks", "block.busy_s", "schedule_overhead_s", "parallel_eff"):
            out[f"streams.{name}"] = None

    out["output.bytes"] = _tag_sum(tree.entries("output"), "bytes") if "output" in layers else None
    return {name: None if v is None else float(v) for name, v in out.items()}


def closure(spans: Iterable[Span]) -> tuple[float, float]:
    """(sum of all self times, root span duration) of one call.

    On a single thread every instant of the root span belongs to exactly
    one span's self time, so the two agree.
    """
    tree = CallTree(spans)
    if tree.root is None:
        raise ValueError("no root span")
    return sum(tree.self_time(s) for s in tree.spans), tree.root.duration


def median_metrics(per_call: list[dict[str, Optional[float]]]) -> dict[str, Optional[float]]:
    """Median of each metric across traced calls; absent if absent in any."""
    names = per_call[0].keys()
    out = {}
    for name in names:
        vals = [m[name] for m in per_call]
        out[name] = None if any(v is None for v in vals) else statistics.median(vals)
    return out
