"""Per-layer span tracing for the repository benchmark.

The tracer wraps the public entry points of each layer of a sweep --
G(n,p) generation, registry dispatch, the array and batch kernels, the
CONGEST simulator and its protocol handlers, the store and the metrics
collector -- from outside ``src/``: it replaces module and class
attributes for the duration of one traced pass and restores them
afterwards.  Nothing inside the program knows it is being traced.
``run.py`` adds one more span, ``verify``, around its own check of
each returned cycle.

Each span adds its wall time to its name's *total* (outermost calls
only, so recursion through ``super()`` is not counted twice) and its
*self* time (duration minus the time of spans opened inside it).  Every
span opened during a pass is nested in the ``harness`` span, so the
self times of all names add up to the traced sweep's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: Span names whose self times partition the traced wall time, with the
#: per-layer metric each one is reported as.
SELF_METRICS = {
    "graphs.gen": "graphs.gen_ms",
    "engines.call": "engines.other_ms",
    "engines.arraywalk.walk": "engines.arraywalk.walk_ms",
    "engines.arraywalk.tree": "engines.arraywalk.tree_ms",
    "engines.arraywalk.twins": "engines.arraywalk.twins_ms",
    "engines.batchwalk.walk": "engines.batchwalk.walk_ms",
    "engines.batchwalk.tree": "engines.batchwalk.tree_ms",
    "engines.batchwalk.twins": "engines.batchwalk.twins_ms",
    "engines.batchwalk.verify": "engines.batchwalk.verify_ms",
    "congest.call": "congest.core_ms",
    "congest.handler": "congest.handler_ms",
    "congest.send": "congest.send_ms",
    "verify": "verify.ms",
    "harness.store": "harness.store_ms",
    "harness.metrics": "harness.metrics_ms",
    "harness": "harness.self_ms",
}

#: Span names also reported inclusively (the layer's whole call time).
TOTAL_METRICS = {
    "engines.call": "engines.call_ms",
    "congest.call": "congest.call_ms",
}


class Tracer:
    """In-memory span accumulator plus the attribute patches feeding it."""

    def __init__(self):
        #: name -> [self seconds, total seconds, outermost calls, open depth]
        self._acc: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0, 0])
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    @property
    def self_s(self) -> dict[str, float]:
        return {name: acc[0] for name, acc in self._acc.items()}

    @property
    def total_s(self) -> dict[str, float]:
        return {name: acc[1] for name, acc in self._acc.items()}

    @property
    def calls(self) -> dict[str, int]:
        return {name: acc[2] for name, acc in self._acc.items()}

    def wrap(self, name: str, fn):
        """``fn`` timed as one span called ``name``."""
        clock = time.perf_counter
        stack = self._stack
        acc = self._acc[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            acc[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += elapsed - stack.pop()
                acc[3] -= 1
                if not acc[3]:
                    acc[1] += elapsed
                    acc[2] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (module or class) by its traced form."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> "Tracer":
        for owner, attr, name in entry_points():
            self.patch(owner, attr, name)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def _protocol_classes() -> list[type]:
    """Every concrete CONGEST protocol class the algorithms define."""
    import repro.core  # noqa: F401  (defines the protocol classes)
    import repro.core.turau  # noqa: F401
    from repro.congest.node import Protocol

    found, todo = [], list(Protocol.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))


def entry_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every traced entry point.

    Functions that other modules bind by name at import time are
    patched in each binding module as well as where they are defined.
    """
    import repro.graphs as graphs_pkg
    from repro.congest.async_engine import AsyncNetwork
    from repro.congest.network import Network
    from repro.congest.node import Context
    from repro.engines import arraywalk, batchwalk, fast_batch
    from repro.engines.api import EngineSpec
    from repro.harness import JsonlStore, MetricsCollector, TrialRunner

    gnp_batch = importlib.import_module("repro.graphs.batch_gnp")
    points = [
        (graphs_pkg, "gnp_random_graph", "graphs.gen"),
        (graphs_pkg, "batch_gnp", "graphs.gen"),
        (EngineSpec, "call", "engines.call"),
        (EngineSpec, "call_batch", "engines.call"),
        (arraywalk.ArrayWalk, "run", "engines.arraywalk.walk"),
        (arraywalk, "build_array_tree", "engines.arraywalk.tree"),
        (arraywalk, "edge_twins", "engines.arraywalk.twins"),
        (batchwalk.BatchWalk, "run", "engines.batchwalk.walk"),
        (batchwalk.BatchWalk, "verified_cycles", "engines.batchwalk.verify"),
        (gnp_batch.GnpBatch, "stacked", "engines.batchwalk.twins"),
        (Network, "run", "congest.call"),
        (AsyncNetwork, "run", "congest.call"),
        (Context, "send", "congest.send"),
        (TrialRunner, "run", "harness"),
        (JsonlStore, "append", "harness.store"),
        (MetricsCollector, "begin", "harness.metrics"),
        (MetricsCollector, "record_trial", "harness.metrics"),
        (MetricsCollector, "finish", "harness.metrics"),
    ]
    for module in (batchwalk, fast_batch):
        points += [
            (module, "build_batch_tree", "engines.batchwalk.tree"),
            (module, "stack_graph_csrs", "engines.batchwalk.twins"),
            (module, "stacked_edge_twins", "engines.batchwalk.twins"),
        ]
    for cls in _protocol_classes():
        for method in ("on_start", "on_round"):
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                points.append((cls, method, "congest.handler"))
    return points
