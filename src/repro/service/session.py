"""KB-scoped sessions: the canonical entry point of the belief service.

Layer contract: this module owns per-KB lifecycle and warm state — one
normalisation, one fingerprint, one consistency check, one engine stack per
session — and delegates answering to the solver registry.  Multi-session
policy (who may open, when to evict, how much runs at once) belongs one
layer up, in :mod:`repro.server.manager`.

A :class:`BeliefSession` binds one normalised knowledge base to one engine
stack.  The KB is parsed, vocabulary-fingerprinted and consistency-checked
exactly once at :func:`open_session`; every :meth:`~BeliefSession.submit`,
:meth:`~BeliefSession.submit_many` and :meth:`~BeliefSession.stream` call
then reuses the session's :class:`~repro.worlds.cache.WorldCountCache`, query
memo table and counting backend, so a warm session amortises all per-KB work
across arbitrarily many requests (experiment E22 gates the speedup).

Requests carry a solver-registry method key, so every inference family —
random worlds, maximum entropy, the reference-class baselines, the
default-reasoning systems — answers through the same request path and
returns the same response schema.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .. import analysis as _analysis
from ..analysis.diagnostics import AnalysisError
from ..core.engine import RandomWorlds, RandomWorldsError
from ..core.knowledge_base import KnowledgeBase
from ..logic.syntax import Formula
from ..logic.tolerance import ToleranceVector
from ..obs import MetricsRegistry
from ..statics.runtime import named_lock
from ..worlds.cache import CacheEventLog, CacheInfo, tracking_cache_events, vocabulary_fingerprint
from ..worlds.counting import InconsistentKnowledgeBase
from .messages import BeliefResponse, CacheDelta, ErrorResponse, QueryRequest
from .registry import SolverRegistry, UnsupportedRequest, default_registry

RequestLike = Union[QueryRequest, Formula, str]
KnowledgeBaseLike = Union[KnowledgeBase, Formula, str]

# The pre-flight analysis modes a session accepts (see docs/ANALYSIS.md):
# "off" skips the analyzer entirely, "warn" attaches diagnostics to the
# session and per-query response metadata, "strict" additionally refuses
# error-level KBs/queries with AnalysisError.
ANALYZE_MODES = ("off", "warn", "strict")

# How many derived engines (one per distinct per-request tolerance/domain
# override pair) a session keeps warm.  Override values arrive off the wire,
# so the map must be bounded; evicting one only loses the engine shell — the
# world-count cache is shared and survives.
DERIVED_ENGINE_LIMIT = 8

# How BeliefSession.stream treats a request whose evaluation raises a
# request-scoped error: "respond" (the default) yields an ErrorResponse row
# and keeps streaming, "raise" propagates immediately (the pre-streaming
# behaviour).  Session-scoped failures propagate under either mode.
STREAM_ERROR_MODES = ("respond", "raise")


def error_code_for(error: BaseException) -> Optional[str]:
    """The wire error code for a request-scoped failure, ``None`` otherwise.

    This is the same exception→code vocabulary the HTTP layer's error
    translator uses (see docs/DEPLOYMENT.md's error model), restricted to
    failures caused by one request: a code here means "this request was bad
    or unanswerable, the session is fine"; ``None`` means the failure is not
    attributable to the request (a genuine bug, a session-scoped error) and
    must propagate.  Order matters — :class:`AnalysisError` and
    :class:`UnsupportedRequest` subclass the broad builtins caught last.
    """
    if isinstance(error, AnalysisError):
        return "analysis-failed"
    if isinstance(error, InconsistentKnowledgeBase):
        return "inconsistent-kb"
    if isinstance(error, UnsupportedRequest):
        return "unsupported-request"
    if isinstance(error, RandomWorldsError):
        return "query-failed"
    if isinstance(error, (KeyError, TypeError, ValueError)):
        return "bad-request"
    return None


def check_consistency(knowledge_base: KnowledgeBase) -> None:
    """Structurally reject obviously unsatisfiable knowledge bases.

    Catches malformed statistics (empty or out-of-range intervals) and
    directly contradictory ground facts.  Deliberately cheap — deep
    (model-theoretic) inconsistency still surfaces as
    :class:`InconsistentKnowledgeBase` from the counting engine at query
    time, exactly as on the legacy path.  The checks themselves live in the
    static analyzer (:func:`repro.analysis.consistency_diagnostics` — codes
    E204/E205/E206), so this gate and ``analyze=`` modes can never disagree;
    the first finding raises with its message.
    """
    for finding in _analysis.consistency_diagnostics(knowledge_base):
        raise InconsistentKnowledgeBase(finding.message)


def kb_fingerprint(knowledge_base: KnowledgeBase) -> str:
    """A stable hex fingerprint of the KB's vocabulary and sentences."""
    payload = repr(
        (
            vocabulary_fingerprint(knowledge_base.vocabulary),
            tuple(repr(sentence) for sentence in knowledge_base.sentences),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class BeliefSession:
    """One knowledge base bound to one warm engine stack.

    Parameters
    ----------
    knowledge_base:
        The KB (a :class:`KnowledgeBase`, a formula, or text), normalised
        once at construction.
    engine:
        An existing :class:`RandomWorlds` engine to bind (its cache, memo
        table and backend become the session's warm state).  ``None`` builds
        a private engine from ``engine_options``.
    registry:
        The solver registry to dispatch through; defaults to the shared
        :func:`~repro.service.registry.default_registry`.
    consistency_check:
        Run :func:`check_consistency` once at open (the default).
    analyze:
        Pre-flight analysis mode: ``"off"`` (default), ``"warn"`` (run
        :func:`repro.analysis.analyze` once at open, keep the report on
        ``session.analysis`` and attach per-query diagnostics to response
        metadata) or ``"strict"`` (additionally refuse error-level KBs and
        queries with :class:`~repro.analysis.AnalysisError`).
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to instrument against.  When
        supplied, every ``submit`` records its latency into
        ``repro_session_submit_latency_ms{solver=...}``, its outcome into
        ``repro_session_requests_total{solver=..., outcome=ok|error}``, its
        exact per-request cache movement into
        ``repro_session_cache_events_total{event=...}`` and its
        compiled-vs-fallback evaluation counts into
        ``repro_session_query_evaluations_total{mode=...}``.  ``None`` (the
        default) records nothing.
    engine_options:
        Passed to :class:`RandomWorlds` when no engine is supplied
        (``tolerances``, ``domain_sizes``, ``cache``, ``memo``, ``backend``,
        ``max_workers``, ``compile``, ...); pass a whole bundle at once with
        ``options=EngineOptions(...)``.
    """

    def __init__(
        self,
        knowledge_base: KnowledgeBaseLike,
        *,
        engine: Optional[RandomWorlds] = None,
        registry: Optional[SolverRegistry] = None,
        consistency_check: bool = True,
        analyze: str = "off",
        metrics: Optional[MetricsRegistry] = None,
        **engine_options: Any,
    ):
        if analyze not in ANALYZE_MODES:
            raise ValueError(f"analyze must be one of {ANALYZE_MODES}, got {analyze!r}")
        # One normalisation path for both surfaces: the engine's own.
        self._kb = RandomWorlds._as_knowledge_base(knowledge_base)
        self._registry = registry if registry is not None else default_registry()
        if engine is None:
            engine = RandomWorlds(**engine_options)
            self._owns_engine = True
        elif engine_options:
            raise ValueError("pass engine options or an engine instance, not both")
        else:
            self._owns_engine = False
        self._engine = engine
        self._fingerprint = kb_fingerprint(self._kb)
        self._analyze_mode = analyze
        self._analysis: Optional[_analysis.AnalysisReport] = None
        if analyze != "off":
            # Static only — the engine's caches stay untouched, so a strict
            # rejection costs milliseconds and zero cache misses.
            report = _analysis.analyze(
                self._kb, options=_analysis.AnalysisOptions(domain_sizes=self._engine.domain_sizes)
            )
            self._analysis = report
            if analyze == "strict" and report.has_errors:
                summary = "; ".join(f"{d.code} {d.message}" for d in report.errors)
                raise AnalysisError(
                    f"knowledge base rejected by pre-flight analysis: {summary}", report
                )
        if consistency_check:
            check_consistency(self._kb)
        self._derived: "OrderedDict[Tuple, RandomWorlds]" = OrderedDict()
        self._lock = named_lock("BeliefSession._lock")
        self._request_ids = itertools.count(1)
        self._metrics = metrics
        if metrics is not None:
            self._submit_latency = metrics.histogram(
                "session_submit_latency_ms",
                "submit() wall-clock per solver, milliseconds",
                labelnames=("solver",),
            )
            self._requests_total = metrics.counter(
                "session_requests_total",
                "submit() calls by solver and outcome",
                labelnames=("solver", "outcome"),
            )
            self._cache_events_total = metrics.counter(
                "session_cache_events_total",
                "exact per-request cache/memo/program counter movement",
                labelnames=("event",),
            )
            self._evaluations_total = metrics.counter(
                "session_query_evaluations_total",
                "query evaluations by compiled-kernel vs interpreter fallback",
                labelnames=("mode",),
            )

    # -- introspection ---------------------------------------------------------

    @property
    def knowledge_base(self) -> KnowledgeBase:
        """The session's normalised knowledge base."""
        return self._kb

    @property
    def engine(self) -> RandomWorlds:
        """The bound random-worlds engine (the session's warm state)."""
        return self._engine

    @property
    def registry(self) -> SolverRegistry:
        """The solver registry requests dispatch through."""
        return self._registry

    @property
    def fingerprint(self) -> str:
        """The KB fingerprint computed once at open."""
        return self._fingerprint

    @property
    def analyze_mode(self) -> str:
        """The pre-flight analysis mode this session runs ("off"/"warn"/"strict")."""
        return self._analyze_mode

    @property
    def analysis(self) -> Optional["_analysis.AnalysisReport"]:
        """The KB's pre-flight report (``None`` when ``analyze="off"``)."""
        return self._analysis

    def cache_info(self) -> Optional[CacheInfo]:
        """Counter totals of the session's world-count cache."""
        return self._engine.cache_info()

    def solvers_for(self, request: RequestLike) -> Tuple[str, ...]:
        """The registry keys whose ``supports`` probe accepts the request."""
        return self._registry.supporting(self._as_request(request), self._kb)

    # -- the request path ------------------------------------------------------

    def _as_request(self, request: RequestLike) -> QueryRequest:
        if isinstance(request, QueryRequest):
            return request
        return QueryRequest(query=request)

    def _with_id(self, request: QueryRequest) -> QueryRequest:
        """Assign the next sequential request id unless the caller chose one."""
        if request.request_id:
            return request
        return replace(request, request_id=f"q{next(self._request_ids)}")

    def engine_for(self, request: QueryRequest) -> RandomWorlds:
        """The engine answering this request: the base one, or a derived
        sibling sharing the session's cache and worker pool when the request
        overrides the tolerance ladder or domain-size schedule."""
        if request.tolerances is None and request.domain_sizes is None:
            return self._engine
        key = (request.tolerances, request.domain_sizes)
        with self._lock:
            derived = self._derived.get(key)
            if derived is None:
                tolerances = (
                    None
                    if request.tolerances is None
                    else [ToleranceVector.uniform(tau) for tau in request.tolerances]
                )
                derived = self._engine.derive(tolerances=tolerances, domain_sizes=request.domain_sizes)
                self._derived[key] = derived
                while len(self._derived) > DERIVED_ENGINE_LIMIT:
                    self._derived.popitem(last=False)
            else:
                self._derived.move_to_end(key)
            return derived

    def _query_analysis(self, request: QueryRequest) -> Optional[List[Dict[str, Any]]]:
        """Per-query diagnostics for warn/strict sessions (``None`` when off).

        Static only (parse + symbol + compile pass — no enumeration).  In
        strict mode an error-level finding (bad syntax, undeclared symbol)
        refuses the query before any solver runs.
        """
        if self._analyze_mode == "off":
            return None
        findings = _analysis.query_diagnostics(self._kb, request.query)
        if self._analyze_mode == "strict":
            errors = [finding for finding in findings if finding.is_error]
            if errors:
                summary = "; ".join(f"{d.code} {d.message}" for d in errors)
                raise AnalysisError(
                    f"query rejected by pre-flight analysis: {summary}",
                    _analysis.AnalysisReport(diagnostics=tuple(findings)),
                )
        return [finding.to_dict() for finding in findings] or None

    def submit(self, request: RequestLike) -> BeliefResponse:
        """Answer one request through the solver its ``method`` key names.

        The response's ``cache_delta`` is attributed exactly: the solve runs
        under a per-request :class:`~repro.worlds.cache.CacheEventLog`, so
        concurrent ``submit`` calls never charge each other's cache traffic —
        the racy before/after ``cache_info()`` snapshot pair this replaces
        did.
        """
        request = self._with_id(self._as_request(request))
        analysis_notes = self._query_analysis(request)
        if analysis_notes:
            metadata = dict(request.metadata or {})
            metadata["analysis"] = analysis_notes
            request = replace(request, metadata=metadata)
        solver = self._registry.resolve(request.method)
        log = CacheEventLog()
        start = time.perf_counter()
        try:
            with tracking_cache_events(log):
                result = solver.solve(request, self)
        except Exception:
            self._observe(solver.key, "error", (time.perf_counter() - start) * 1000.0, log)
            raise
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._observe(solver.key, "ok", elapsed_ms, log)
        delta = (
            CacheDelta(
                hits=log.hits,
                misses=log.misses,
                memo_hits=log.memo_hits,
                memo_misses=log.memo_misses,
            )
            if self._engine.world_cache is not None
            else None
        )
        return BeliefResponse(
            request_id=request.request_id,
            result=result,
            solver=solver.key,
            elapsed_ms=elapsed_ms,
            cache_delta=delta,
            metadata=request.metadata,
        )

    def _observe(self, solver_key: str, outcome: str, elapsed_ms: float, log: CacheEventLog) -> None:
        """Record one finished (or failed) submit into the metrics registry."""
        if self._metrics is None:
            return
        self._submit_latency.labels(solver=solver_key).observe(elapsed_ms)
        self._requests_total.labels(solver=solver_key, outcome=outcome).inc()
        for event in ("hits", "misses", "memo_hits", "memo_misses"):
            amount = getattr(log, event)
            if amount:
                self._cache_events_total.labels(event=event).inc(amount)
        if log.compiled:
            self._evaluations_total.labels(mode="compiled").inc(log.compiled)
        if log.fallback:
            self._evaluations_total.labels(mode="fallback").inc(log.fallback)

    def submit_many(self, requests: Sequence[RequestLike]) -> List[BeliefResponse]:
        """Answer many requests in order, sharing all per-KB warm state.

        The request loop is sequential; with the ``processes`` backend the
        counting layer shards across the engine's process pool.  Every
        request gets its id before the first one runs.
        """
        items = [self._with_id(self._as_request(request)) for request in requests]
        return [self.submit(item) for item in items]

    def stream(
        self,
        requests: Iterable[RequestLike],
        *,
        on_error: str = "respond",
    ) -> Iterator[Union[BeliefResponse, ErrorResponse]]:
        """Lazily answer an iterable of requests on the warm session.

        With ``on_error="respond"`` (the default) a request whose evaluation
        raises a request-scoped error — unparseable query, unknown method,
        unsupported or unanswerable request (see :func:`error_code_for`) —
        yields an :class:`ErrorResponse` row carrying the request's id and
        metadata, and the remaining requests still answer in submission
        order; only failures not attributable to the request propagate.
        ``on_error="raise"`` propagates every failure immediately.
        """
        if on_error not in STREAM_ERROR_MODES:
            raise ValueError(f"on_error must be one of {STREAM_ERROR_MODES}, got {on_error!r}")
        for request in requests:
            request = self._with_id(self._as_request(request))
            start = time.perf_counter()
            try:
                yield self.submit(request)
            except Exception as error:
                code = error_code_for(error)
                if on_error != "respond" or code is None:
                    raise
                yield ErrorResponse(
                    request_id=request.request_id,
                    code=code,
                    message=str(error),
                    elapsed_ms=(time.perf_counter() - start) * 1000.0,
                    metadata=request.metadata,
                )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the engine's worker pool if the session owns the engine."""
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "BeliefSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"BeliefSession(kb={len(self._kb)} sentences, fingerprint={self._fingerprint!r}, "
            f"owns_engine={self._owns_engine})"
        )


def open_session(
    knowledge_base: KnowledgeBaseLike,
    *,
    engine: Optional[RandomWorlds] = None,
    registry: Optional[SolverRegistry] = None,
    consistency_check: bool = True,
    analyze: str = "off",
    metrics: Optional[MetricsRegistry] = None,
    **engine_options: Any,
) -> BeliefSession:
    """Open a :class:`BeliefSession` over a knowledge base.

    The KB is normalised, fingerprinted and consistency-checked here, once;
    every later request reuses the session's warm caches.  ``analyze="warn"``
    additionally runs the static pre-flight analyzer and attaches
    diagnostics (``analyze="strict"`` refuses error-level KBs with
    :class:`~repro.analysis.AnalysisError`).  Close the session (or use it
    as a context manager) to release an engine-owned worker pool.
    """
    return BeliefSession(
        knowledge_base,
        engine=engine,
        registry=registry,
        consistency_check=consistency_check,
        analyze=analyze,
        metrics=metrics,
        **engine_options,
    )
