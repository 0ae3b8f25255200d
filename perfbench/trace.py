"""In-memory span tracer plus the call-site wrappers that feed it.

Spans are recorded only from the benchmark's own files: :func:`instrument`
temporarily rebinds public functions under the names their callers look
them up by (``repro.api.session.scaled_dataset``, each backend module's
``drive``, ...) and restores them on exit.  Nothing under ``src/`` knows
it is being traced, and untraced runs execute the program unmodified.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

#: backend modules that import ``drive`` by name, and the mode each runs
DRIVE_SITES = (
    ("repro.pipeline.backends.event", "event"),
    ("repro.pipeline.backends.sharded", "sharded"),
    ("repro.pipeline.backends.async_prefetch", "async"),
    ("repro.pipeline.backends.gids", "gids"),
    ("repro.distributed.coordinator", "distributed"),
)

#: spans inside which a ``sampling_engine.batch_cost`` call is measuring,
#: not warming a cache
_MEASURING = ("api.batcheval.phase_costs", "pipeline.analytic.phase_costs")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str


class Tracer:
    """Nested spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span.sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def innermost(self) -> Optional[str]:
        return self.spans[self._stack[-1]].name if self._stack else None

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(s.end - s.start for s in self.spans
                         if s.name == name)

    def n_spans(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_ms(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: Dict[str, float] = {}
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.name] = out.get(s.name, 0.0) + 1e3 * (
                s.end - s.start - covered
            )
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "run": self.run_id,
                    "spans": [asdict(s) for s in self.spans],
                    "self_ms": self.self_ms(),
                    "counts": dict(self.counts),
                },
                f,
            )


def _wrap(tracer: Tracer, fn, name: str):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def _wrap_run_pipeline(tracer: Tracer, fn):
    def traced(*args, **kwargs):
        with tracer.span("pipeline.run." + kwargs.get("mode", "event")):
            return fn(*args, **kwargs)
    return traced


def _wrap_drive(tracer: Tracer, fn, mode: str):
    def traced(sim, *args, **kwargs):
        with tracer.span("sim.drive." + mode):
            before = sim.processed_events
            try:
                return fn(sim, *args, **kwargs)
            finally:
                tracer.counts["sim.events." + mode] += (
                    sim.processed_events - before
                )
    return traced


def _wrap_build_system(tracer: Tracer, fn):
    """Time ``build_system`` and the cache warm-up calls that follow it.

    The warm-up loops live inside ``Session.run`` and the batched
    evaluator; they are the returned engine's ``batch_cost`` calls made
    outside any DES drive or phase-cost measurement.
    """
    def traced(*args, **kwargs):
        with tracer.span("core.build"):
            system = fn(*args, **kwargs)
        engine = system.sampling_engine
        inner = engine.batch_cost

        def batch_cost(workload):
            current = tracer.innermost() or ""
            if current in _MEASURING or current.startswith("sim."):
                return inner(workload)
            with tracer.span("core.warm"):
                return inner(workload)

        engine.batch_cost = batch_cost
        return system
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route the program's layer boundaries through ``tracer``.

    Patches only the calling modules' bindings; every one is restored
    on exit, so a later untraced run executes the unmodified program.
    """
    from repro.graph.csr import CSRGraph

    patches = []

    def patch(module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        patches.append((module, attr, original))
        setattr(module, attr, make(original))

    session = "repro.api.session"
    patch(session, "scaled_dataset",
          lambda f: _wrap(tracer, f, "graph.dataset"))
    patch(session, "generate_workloads",
          lambda f: _wrap(tracer, f, "gnn.workloads"))
    patch(session, "build_system", lambda f: _wrap_build_system(tracer, f))
    patch(session, "run_pipeline", lambda f: _wrap_run_pipeline(tracer, f))
    patch(session, "sampling_throughput",
          lambda f: _wrap(tracer, f, "sim.sampling"))
    patch("repro.api.batcheval", "phase_costs",
          lambda f: _wrap(tracer, f, "api.batcheval.phase_costs"))
    patch("repro.api.batcheval", "combine_batch",
          lambda f: _wrap(tracer, f, "pipeline.analytic.combine"))
    patch("repro.pipeline.backends.analytic", "phase_costs",
          lambda f: _wrap(tracer, f, "pipeline.analytic.phase_costs"))
    patch("repro.pipeline.backends.analytic", "combine",
          lambda f: _wrap(tracer, f, "pipeline.analytic.combine"))
    for module_name, mode in DRIVE_SITES:
        patch(module_name, "drive",
              lambda f, m=mode: _wrap_drive(tracer, f, m))
    from_edges = CSRGraph.__dict__["from_edges"]
    csr_fn = from_edges.__func__

    def traced_from_edges(cls, *args, **kwargs):
        with tracer.span("graph.csr"):
            return csr_fn(cls, *args, **kwargs)

    CSRGraph.from_edges = classmethod(traced_from_edges)
    try:
        yield tracer
    finally:
        CSRGraph.from_edges = from_edges
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
