"""Boundary tracer for the ruinnet package, installed from outside it.

What gets a span is found by introspecting the imported package, so a
function that is renamed or merged keeps being traced under its new name:

- a public function of one ruinnet module bound by name in another
  (``from .ruin import estimate_psi`` in ``cli``);
- a public function reached through a ruinnet module bound in another
  (``approx.mixture_probability`` called from ``cli``);
- ``StreamKey.generator``;
- every ruinnet function passed as an argument to one of the above (the
  block callbacks handed to ``map_blocks``/``map_indexed``).  The callback
  belongs to the module that defined it, and its parent is the span of the
  call it was passed to, whichever thread runs it.

Spans are kept in memory; :meth:`Tracer.install` and :meth:`Tracer.uninstall`
patch and restore the bindings, so traced and untraced calls can alternate
in one process.  A name the tracer cannot find is listed in ``missing``
and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import pickle
import pkgutil
import threading
import time
from contextlib import contextmanager
from typing import Callable

from spanmath import Span

#: Methods traced by name, as (module, class, method).
TRACED_METHODS = (("streams", "StreamKey", "generator"),)

#: Result attributes recorded as span tags when present.
RESULT_TAGS = ("mode", "config_count", "replicates")

#: Arguments whose product is the number of simulated paths of an oracle call.
PATH_ARGS = ("outer_networks", "inner_paths")


def load_layers(package) -> dict[str, object]:
    """The package's modules by short name (``cli``, ``ruin``, ...)."""
    layers = {}
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            layers[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return layers


class _ModuleView:
    """Stands in for a module bound in another module: public functions
    resolve to their traced wrappers, everything else to the module."""

    def __init__(self, module, wrappers: dict[str, Callable]):
        self._module = module
        self._wrappers = wrappers

    def __getattr__(self, name):
        wrapped = self._wrappers.get(name)
        return wrapped if wrapped is not None else getattr(self._module, name)


def _draws_key(sig: inspect.Signature, args, kwargs) -> str:
    """Digest of an estimator call's arguments other than ``threads``:
    two calls with the same key draw the same samples."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    items = sorted((k, v) for k, v in bound.arguments.items() if k != "threads")
    return hashlib.sha1(pickle.dumps(items)).hexdigest()


class Tracer:
    def __init__(self, layers: dict[str, object]):
        self.layers = layers
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.traced_names: set[str] = set()
        self._prefix = {mod.__name__: name for name, mod in layers.items()}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, Callable] = {}

    # --- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, parent):
        """Push a new span on this thread; returns (id, parent id, call id)."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else (None, 0)
        sid = next(self._ids)
        stack.append((sid, parent[1] or sid))
        return sid, parent[0], parent[1] or sid

    def _exit(self, sid, parent_id, call, name, layer, kind, t0, tags) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            Span(sid, parent_id, name, layer, kind, t0, t1, threading.get_ident(), call, tags)
        )

    @contextmanager
    def root(self, name: str):
        """Root span around one ``cli.main`` call; its spans share its id."""
        sid, parent_id, call = self._enter((None, 0))
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            self._exit(sid, parent_id, call, name, name.split(".")[0], "root", t0, {})

    # --- wrappers --------------------------------------------------------

    def _callback(self, fn: Callable, parent) -> Callable:
        layer = self._prefix[fn.__module__]
        name = f"{layer}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent_id, call = self._enter(parent)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(sid, parent_id, call, name, layer, "callback", t0, {})

        return traced

    def _is_package_function(self, obj) -> bool:
        return inspect.isfunction(obj) and obj.__module__ in self._prefix

    def _wrap(self, fn: Callable, name: str) -> Callable:
        """Traced wrapper of ``fn``, shared by every binding of it."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        layer = name.split(".")[0]
        sig = inspect.signature(fn)
        # Only estimator calls need the draws key (ruin.draws_useful_ratio);
        # pickling the arguments of every call would dominate traced time.
        keys_draws = layer == "ruin"
        counts_paths = all(p in sig.parameters for p in PATH_ARGS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tags = {}
            if keys_draws:
                tags["draws"] = _draws_key(sig, args, kwargs)
            if counts_paths:
                bound = sig.bind(*args, **kwargs).arguments
                tags["paths"] = int(bound[PATH_ARGS[0]]) * int(bound[PATH_ARGS[1]])
            sid, parent_id, call = self._enter(None)
            me = (sid, call)
            args = tuple(self._callback(a, me) if self._is_package_function(a) else a for a in args)
            kwargs = {
                k: self._callback(v, me) if self._is_package_function(v) else v
                for k, v in kwargs.items()
            }
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tags["error"] = type(exc).__name__
                raise
            finally:
                self._exit(sid, parent_id, call, name, layer, "call", t0, tags)
            for attr in RESULT_TAGS:
                if hasattr(result, attr):
                    tags[attr] = getattr(result, attr)
            if isinstance(result, str):
                tags["bytes"] = len(result.encode("utf-8"))
            return result

        self._wrappers[id(fn)] = traced
        self.traced_names.add(name)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # --- install / uninstall --------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        public = {
            layer: {
                n: v
                for n, v in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__
            }
            for layer, mod in self.layers.items()
        }
        for layer, mod in self.layers.items():
            for attr, value in list(vars(mod).items()):
                if inspect.ismodule(value) and value.__name__ in self._prefix and value is not mod:
                    other = self._prefix[value.__name__]
                    views = {n: self._wrap(f, f"{other}.{n}") for n, f in public[other].items()}
                    self._patch(mod, attr, _ModuleView(value, views))
                elif (
                    self._is_package_function(value)
                    and value.__module__ != mod.__name__
                    and not value.__name__.startswith("_")
                ):
                    other = self._prefix[value.__module__]
                    self._patch(mod, attr, self._wrap(value, f"{other}.{value.__name__}"))
        for layer, cls_name, method in TRACED_METHODS:
            cls = getattr(self.layers.get(layer), cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if not inspect.isfunction(fn):
                self.missing.append(f"{layer}.{cls_name}.{method}")
                continue
            self._patch(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Spans recorded so far, clearing the buffer."""
        spans, self.spans = self.spans, []
        return spans
