"""Layer spans for the traced run (``--trace 1``), recorded from this file.

:meth:`Tracer.installed` wraps the layer-boundary functions of the program
where the calling code looks them up (a module global, a class attribute)
and restores every original on exit; an untraced run never imports this
module.  A span records its name, start, end, parent span and the number of
the call (serve) or operation (cold) it belongs to.  Spans are kept in
memory and written out as JSON lines when the run ends; :func:`per_layer`
derives the per-layer metrics from them, with a layer's self time being its
span time minus the time of its child spans.

Server threads tag their spans with the number of the call in flight: the
client is closed-loop, so while call ``n`` is outstanding all server work
belongs to it (or to the tail of call ``n - 1`` finishing on another thread,
which is still work of the same phase).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.engine as engine_module
import repro.maxent.beliefs as maxent_beliefs
import repro.service.session as session_module
import repro.worlds.cache as cache_module
from repro.logic.parser import parse as _parse
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.server.app import BeliefRequestHandler
from repro.service.messages import BeliefResponse, ErrorResponse, QueryRequest
from repro.service.registry import SolverRegistry
from repro.service.session import BeliefSession
from repro.worlds.counting import BruteForceCounter, UnaryWorldCounter, _DecomposingCounter

# Dispatch probes in RandomWorlds._auto's order, with the module global or
# engine method each one is, and the result.method it answers with.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("independence", "independence_inference", "independence"),
    ("direct", "direct_inference", "direct-inference"),
    ("specificity", "specificity_inference", "specificity"),
    ("strength", "strength_inference", "strength"),
    ("combination", "combination_inference", "combination"),
    ("maxent", "_maxent", "maxent"),
    ("counting", "_counting", "counting"),
)
_PROBE_SPANS = {f"dispatch.{probe}": method for probe, _, method in PROBES}
# Marks a patched attribute the owner only inherited (restored by deleting it).
_INHERITED = object()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "child_s", "attrs")

    def __init__(self, span_id: int, name: str, start: float, parent: Optional["Span"], request: Any):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.child_s = 0.0
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent.id if self.parent is not None else None,
            "request": self.request,
            "attrs": self.attrs,
        }


def _answered(result: Any) -> bool:
    return result is not None and (result.value is not None or result.interval is not None)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request: Any = None
        self._open = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def request(self, number: Any) -> None:
        """Record what follows under ``number``: an int is a timed call or
        operation, anything else (``"setup"``) is set-up work."""
        self._request = number

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> Optional[Span]:
        if self._request is None:
            return None
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), stack[-1] if stack else None, self._request)
        stack.append(span)
        with self._lock:
            self._open += 1
        return span

    def _exit(self, span: Optional[Span], attrs: Optional[Dict[str, Any]] = None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        span.attrs = attrs
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds
        with self._lock:
            self._open -= 1
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        """Count work of the timed phase (set-up work is not counted)."""
        if not isinstance(self._request, int):
            return
        with self._lock:
            self.counts[name] += amount

    def pause(self, timeout: float = 10.0) -> None:
        """Wait for spans still open on server threads, then stop recording
        until the next :meth:`request`."""
        deadline = time.perf_counter() + timeout
        while self._open and time.perf_counter() < deadline:
            time.sleep(0.001)
        self._request = None

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, function: Callable, describe: Optional[Callable] = None, cpu: bool = False):
        """Wrap ``function`` in a span; ``describe(result)`` gives its attributes,
        ``cpu`` adds the process CPU seconds spent inside it."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = tracer._enter(name)
            if span is None:
                return function(*args, **kwargs)
            cpu_start = time.process_time() if cpu else 0.0
            attrs: Dict[str, Any] = {"raised": True}
            try:
                result = function(*args, **kwargs)
                attrs = describe(result) if describe else {}
                return result
            finally:
                if cpu:
                    attrs["cpu_s"] = time.process_time() - cpu_start
                tracer._exit(span, attrs or None)

        return wrapper

    def _enumerating(self, function: Callable) -> Callable:
        """Wrap a KB-class generator: its time inside ``next`` becomes a
        ``counting.enumerate`` span under the span that created it."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            if tracer._request is None:
                return generator
            stack = tracer._stack()
            return tracer._timed_generator(generator, stack[-1] if stack else None)

        return wrapper

    def _timed_generator(self, generator, parent: Optional[Span]):
        first = None
        elapsed = 0.0
        classes = 0
        try:
            while True:
                start = time.perf_counter()
                first = start if first is None else first
                try:
                    item = next(generator)
                except StopIteration:
                    break
                finally:
                    elapsed += time.perf_counter() - start
                classes += 1
                yield item
        finally:
            generator.close()
            first = time.perf_counter() if first is None else first
            span = Span(next(self._ids), "counting.enumerate", first, parent, self._request)
            span.end = first + elapsed
            span.attrs = {"classes": classes}
            if parent is not None:
                parent.child_s += elapsed
            with self._lock:
                self.spans.append(span)

    def _counted(self, name: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return function(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attribute: str, wrapper: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__.get(attribute, _INHERITED)))
        setattr(owner, attribute, wrapper)

    def _patch_method(self, owner: type, attribute: str, name: str, describe=None) -> None:
        original = getattr(owner, attribute)
        if isinstance(owner.__dict__.get(attribute), classmethod):
            self._patch(owner, attribute, classmethod(self._timed(name, original.__func__, describe)))
        else:
            self._patch(owner, attribute, self._timed(name, original, describe))

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            self.pause()
            for owner, attribute, original in reversed(self._patches):
                if original is _INHERITED:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)
            self._patches.clear()

    def _install(self) -> None:
        tracer = self
        # repro.server: one handle() per accepted connection.
        self._patch_method(BeliefRequestHandler, "handle", "server.connection")
        # repro.service.messages: the codec on both sides of the wire.
        for message in (QueryRequest, BeliefResponse, ErrorResponse):
            self._patch_method(message, "to_dict", "codec.encode")
            self._patch_method(message, "from_dict", "codec.decode")
        # repro.service.session: open (with its consistency check) and submit,
        # with the solver call as submit's child.
        self._patch_method(BeliefSession, "__init__", "session.open")
        self._patch_method(BeliefSession, "submit", "session.submit")
        consistency = self._timed("analysis.consistency", session_module.check_consistency)
        self._patch(session_module, "check_consistency", consistency)
        resolve = SolverRegistry.resolve

        def traced_resolve(registry, method):
            solver = resolve(registry, method)
            return dataclasses.replace(solver, solve=tracer._timed("session.solve", solver.solve))

        self._patch(SolverRegistry, "resolve", traced_resolve)
        # repro.logic.parser.parse, in every module that imported it by name.
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, "parse", None) is _parse:
                self._patch(module, "parse", self._timed("logic.parse", _parse))
        # repro.core.engine: dispatch and its probes.
        self._patch_method(
            engine_module.RandomWorlds, "dispatch", "dispatch", lambda result: {"method": result.method}
        )

        def probe_outcome(result):
            return {"returned": result is not None, "accepted": _answered(result)}

        for probe, attribute, _ in PROBES:
            if attribute.startswith("_"):
                self._patch_method(engine_module.RandomWorlds, attribute, f"dispatch.{probe}", probe_outcome)
            else:
                original = getattr(engine_module, attribute)
                self._patch(engine_module, attribute, self._timed(f"dispatch.{probe}", original, probe_outcome))
        # repro.maxent: constraint extraction and the SLSQP solve per tolerance.
        self._patch(maxent_beliefs, "solve", self._timed("maxent.solve", maxent_beliefs.solve, cpu=True))
        self._patch(
            maxent_beliefs, "extract_constraints", self._timed("maxent.extract", maxent_beliefs.extract_constraints)
        )
        # repro.worlds: class enumeration and query evaluation.
        self._patch_method(_DecomposingCounter, "_count_unmemoised", "counting.count")
        self._patch_method(_DecomposingCounter, "evaluate_query", "counting.evaluate")
        for counter in (UnaryWorldCounter, BruteForceCounter):
            self._patch(counter, "iter_kb_classes", self._enumerating(counter.iter_kb_classes))
        # repro.worlds.cache: every cache, memo and program event.
        record = cache_module._record

        def traced_record(event, amount=1):
            tracer.count(f"cache.{event}", amount)
            return record(event, amount)

        self._patch(cache_module, "_record", traced_record)
        # repro.obs: counter, gauge and histogram updates.
        for metric, methods in ((Counter, ("inc",)), (Gauge, ("set", "inc", "dec")), (Histogram, ("observe",))):
            for method in methods:
                self._patch(metric, method, self._counted("obs.updates", getattr(metric, method)))


# -- derivation ------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, phase, untraced) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of the traced phase, ``{name: (value, unit)}``."""
    answered = phase.answered
    timed = [span for span in tracer.spans if isinstance(span.request, int)]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in timed:
        by_name[span.name].append(span)
    opens = [span for span in tracer.spans if span.name == "session.open"]
    consistency = [span for span in tracer.spans if span.name == "analysis.consistency"]

    def per_request_ms(name: str) -> float:
        return 1000.0 * sum(span.self_seconds for span in by_name[name]) / answered

    metrics: Dict[str, Tuple[float, str]] = {}
    # Serve calls only: cold operations record no overhead.
    metrics["server.overhead_ms"] = (_ratio(sum(phase.overhead_ms), len(phase.overhead_ms)), "ms/call")
    metrics["server.connections_per_call"] = (
        _ratio(len(by_name["server.connection"]), len(phase.latencies_ms)),
        "count",
    )
    metrics["codec.encode_ms"] = (per_request_ms("codec.encode"), "ms")
    metrics["codec.decode_ms"] = (per_request_ms("codec.decode"), "ms")
    metrics["session.open_ms"] = (1000.0 * _ratio(sum(s.self_seconds for s in opens), len(opens)), "ms/open")
    metrics["session.self_ms"] = (per_request_ms("session.submit"), "ms")
    metrics["logic.parse_calls"] = (len(by_name["logic.parse"]) / answered, "count")
    metrics["logic.parse_ms"] = (per_request_ms("logic.parse"), "ms")
    metrics["analysis.consistency_ms"] = (
        1000.0 * _ratio(sum(s.seconds for s in consistency), len(opens)),
        "ms/open",
    )
    for probe, _, _ in PROBES:
        calls = by_name[f"dispatch.{probe}"]
        metrics[f"dispatch.{probe}.calls"] = (len(calls) / answered, "count")
        metrics[f"dispatch.{probe}.ms"] = (1000.0 * sum(s.seconds for s in calls) / answered, "ms")
        accepted = sum(1 for s in calls if s.attrs and s.attrs.get("accepted"))
        metrics[f"dispatch.{probe}.accepted"] = (_ratio(accepted, len(calls)), "ratio")
    metrics["dispatch.discarded_ms"] = (1000.0 * _discarded_seconds(timed) / answered, "ms")
    solves = by_name["maxent.solve"]
    metrics["maxent.solves"] = (len(solves) / answered, "count")
    metrics["maxent.solve_ms"] = (per_request_ms("maxent.solve"), "ms")
    metrics["maxent.extract_ms"] = (per_request_ms("maxent.extract"), "ms")
    metrics["maxent.cpu_per_wall"] = (
        _ratio(sum(s.attrs["cpu_s"] for s in solves), sum(s.seconds for s in solves)),
        "ratio",
    )
    enumerations = by_name["counting.enumerate"]
    metrics["counting.decompositions"] = (len(enumerations) / answered, "count")
    metrics["counting.classes"] = (sum(s.attrs["classes"] for s in enumerations) / answered, "count")
    metrics["counting.enumerate_ms"] = (1000.0 * sum(s.seconds for s in enumerations) / answered, "ms")
    metrics["counting.evaluate_ms"] = (
        per_request_ms("counting.count") + per_request_ms("counting.evaluate"),
        "ms",
    )
    counts = tracer.counts
    metrics["counting.compiled"] = (
        _ratio(counts["cache.compiled"], counts["cache.compiled"] + counts["cache.fallback"]),
        "ratio",
    )
    probes = counts["cache.memo_hits"] + counts["cache.memo_misses"]
    metrics["cache.memo_probes"] = (probes / answered, "count")
    metrics["cache.memo_hit_ratio"] = (_ratio(counts["cache.memo_hits"], probes), "ratio")
    metrics["obs.updates"] = (counts["obs.updates"] / answered, "count")
    metrics["trace.overhead"] = (phase.requests_per_s / untraced.requests_per_s, "ratio")
    return metrics


def _discarded_seconds(spans: List[Span]) -> float:
    """Time in dispatch probes whose result is not part of the answer returned.

    Only a dispatch's own probes count (a probe inside the independence
    probe belongs to that probe).  A probe's result is used when it returned
    one and its method is a part of the returned ``method``
    (``maxent+specificity`` uses both); an undefined counting result that is
    returned as the answer is used too."""
    returned: Dict[int, set] = {}
    for span in spans:
        if span.name == "dispatch":
            method = (span.attrs or {}).get("method")
            returned[span.id] = set(method.split("+")) if method else set()
    discarded = 0.0
    for span in spans:
        if span.name in _PROBE_SPANS and span.parent is not None and span.parent.id in returned:
            attrs = span.attrs or {}
            used = attrs.get("returned") and _PROBE_SPANS[span.name] in returned[span.parent.id]
            if not used:
                discarded += span.seconds
    return discarded
