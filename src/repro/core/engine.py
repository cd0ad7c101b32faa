"""The random-worlds engine: dispatching queries to the best computation path.

``RandomWorlds.degree_of_belief`` accepts a closed query and a knowledge base
and returns a :class:`BeliefResult`.  The automatic method order is:

1. **independence** (Theorem 5.27) — split conjunctive queries across disjoint
   subvocabularies and recurse;
2. **analytic theorems** — direct inference (5.6), minimal-reference-class
   specificity (5.16), the strength rule (5.23), and evidence combination
   (5.26); these return instantly and carry the matched statistic in their
   diagnostics;
3. **maximum entropy** (Section 6) — for unary knowledge bases;
4. **exact counting** — the definitional double limit over exact finite
   counts; always available for unary vocabularies and for tiny non-unary
   problems.

Each path either produces an answer or reports that it does not apply; the
engine records which path produced the value so experiments can compare them.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, List, Optional, Sequence, Union

from ..logic.parser import parse
from ..logic.substitution import free_vars
from ..logic.syntax import Formula
from ..logic.tolerance import ToleranceVector, default_sequence
from ..logic.vocabulary import Vocabulary
from ..maxent.beliefs import degree_of_belief_maxent
from ..maxent.solver import MaxEntInfeasible
from ..statics.runtime import named_lock
from ..worlds.cache import (
    DEFAULT_MEMO_SIZE,
    CacheInfo,
    QueryMemoTable,
    WorldCountCache,
    vocabulary_fingerprint,
)
from ..worlds.counting import InconsistentKnowledgeBase
from ..worlds.degrees import DEFAULT_DOMAIN_SIZES, degree_of_belief_by_counting
from ..worlds.enumeration import EnumerationTooLarge, world_space_size
from ..worlds.parallel import BackendLike, CountingExecutor, make_executor
from ..worlds.unary import UnsupportedFormula
from .combination import combination_inference
from .direct_inference import direct_inference
from .independence import independence_inference
from .knowledge_base import KnowledgeBase
from .options import EngineOptions
from .result import BeliefResult
from .specificity import specificity_inference
from .strength import strength_inference


QueryLike = Union[Formula, str]
KnowledgeBaseLike = Union[KnowledgeBase, Formula, str]

AUTO_METHODS = ("independence", "analytic", "maxent", "counting")
# How many private shim sessions an engine keeps warm: degree_of_belief
# delegates to a per-KB BeliefSession, and this bounds the KB->session map
# (evicting one only loses its fingerprint; the world-count cache is
# engine-level and survives).
SHIM_SESSION_LIMIT = 8
BRUTE_FORCE_WORLD_LIMIT = 300_000
# Upper bound on the number of isomorphism classes the unary counter may visit
# per (domain size, tolerance) pair; larger domain sizes are skipped so a query
# over a many-predicate vocabulary degrades gracefully instead of hanging.
UNARY_CLASS_LIMIT = 250_000


class RandomWorldsError(RuntimeError):
    """Raised when no computation path can handle a query."""


class RandomWorlds:
    """Compute degrees of belief with the random-worlds method.

    Parameters
    ----------
    tolerances:
        The shrinking tolerance sequence used by the semantic engines (max
        entropy, counting).  Defaults to the library-wide sequence.
    domain_sizes:
        The domain sizes used by the exact counting engine.
    counting_fallback:
        Whether to fall back to exact counting when everything else fails.
    assume_small_overlap:
        Passed through to the evidence-combination engine (Theorem 5.26): when
        True, competing reference classes are assumed to overlap negligibly
        even without explicit ``exists!`` conjuncts.
    cache:
        The world-count cache used by the exact-counting path.  ``True`` (the
        default) gives the engine a private :class:`WorldCountCache`; a
        :class:`WorldCountCache` instance shares an existing cache between
        engines; ``False``/``None`` disables memoisation entirely, so every
        query re-enumerates the KB classes from scratch.
    memo:
        Per-query memoisation layered on the world-count cache: finished
        counts are keyed by ``(decomposition key, canonical query,
        tolerance)`` so an identical repeated query — including
        alpha-equivalent or commutatively reordered phrasings — is O(1) on a
        warm cache.  ``True`` (the default) attaches a private
        :class:`~repro.worlds.cache.QueryMemoTable` to the engine's private
        cache; ``False`` restores the PR 2 behaviour (every query re-walks
        the cached classes).  Only consulted when the engine builds its own
        cache — a caller-supplied :class:`WorldCountCache` brings (or omits)
        its own memo table.
    memo_size:
        LRU bound of the private memo table (4096 rows by default; ``None``
        for unbounded).
    backend:
        Execution backend for the exact-counting path: ``"serial"`` (the
        default), ``"processes"`` (each counting grid point's enumeration is
        sharded across a persistent process pool — true multi-core
        counting), or a :class:`~repro.worlds.parallel.CountingExecutor`
        instance shared between engines.  Answers are ``Fraction``-identical
        across backends.  ``None`` means ``"serial"``; combining it with
        ``max_workers > 1`` raises ``ValueError``.
    max_workers:
        Process-pool width for the ``"processes"`` backend.
    compile:
        Compile each counting query into a flat per-decomposition program
        (the default).  ``False`` forces the interpreted recursive evaluator
        everywhere; answers are ``Fraction``-identical either way.
    options:
        An :class:`~repro.core.options.EngineOptions` bundle carrying the
        engine knobs (``backend``, ``max_workers``, ``memo``, ``memo_size``,
        ``compile``, ``domain_sizes``, ``tolerances``) as one validated
        value.  Mutually exclusive with spelling those same knobs as
        individual keyword arguments.
    """

    def __init__(
        self,
        tolerances: Optional[Iterable[ToleranceVector]] = None,
        domain_sizes: Optional[Sequence[int]] = None,
        counting_fallback: bool = True,
        assume_small_overlap: bool = False,
        cache: Union[WorldCountCache, bool, None] = True,
        memo: Union[QueryMemoTable, bool, None] = True,
        memo_size: Optional[int] = DEFAULT_MEMO_SIZE,
        backend: BackendLike = None,
        max_workers: Optional[int] = None,
        compile: bool = True,
        options: Optional[EngineOptions] = None,
    ):
        if options is not None:
            legacy_overrides = [
                name
                for name, value, default in (
                    ("tolerances", tolerances, None),
                    ("domain_sizes", domain_sizes, None),
                    ("memo", memo, True),
                    ("backend", backend, None),
                    ("max_workers", max_workers, None),
                    ("compile", compile, True),
                )
                if value is not default
            ]
            if memo_size != DEFAULT_MEMO_SIZE:
                legacy_overrides.append("memo_size")
            if legacy_overrides:
                raise ValueError(
                    "pass engine knobs either via options=EngineOptions(...) or as "
                    f"individual keywords, not both (got options plus {legacy_overrides})"
                )
            backend = options.backend
            max_workers = options.max_workers
            memo = options.memo
            memo_size = options.memo_size
            compile = options.compile
            domain_sizes = options.domain_sizes
            tolerances = options.tolerances
            self._options = options
        else:
            # Route the legacy spellings through the same validation path
            # (this is also what rejects unknown backends and bare
            # max_workers > 1 with no explicit backend).
            self._options = EngineOptions.from_legacy(
                backend=backend,
                max_workers=max_workers,
                memo=memo,
                memo_size=memo_size,
                compile=compile,
                domain_sizes=domain_sizes,
                tolerances=tolerances,
            )
        # Bare numbers are accepted alongside ToleranceVector ladders (the
        # wire and EngineOptions speak uniform floats).
        self._tolerances = (
            tuple(
                tau if isinstance(tau, ToleranceVector) else ToleranceVector.uniform(float(tau))
                for tau in tolerances
            )
            if tolerances is not None
            else tuple(default_sequence())
        )
        self._domain_sizes = tuple(domain_sizes) if domain_sizes is not None else DEFAULT_DOMAIN_SIZES
        self._counting_fallback = counting_fallback
        self._assume_small_overlap = assume_small_overlap
        self._compile = bool(compile)
        if isinstance(cache, WorldCountCache):
            self._world_cache: Optional[WorldCountCache] = cache
        elif cache:
            self._world_cache = WorldCountCache(memo=memo, memo_size=memo_size)
        else:
            self._world_cache = None
        self._backend = backend
        self._max_workers = max_workers
        self._owned_executor: Optional[CountingExecutor] = None
        self._sessions: "OrderedDict" = OrderedDict()
        self._sessions_lock = named_lock("RandomWorlds._sessions_lock")

    # -- normalisation ---------------------------------------------------------

    @staticmethod
    def _as_query(query: QueryLike) -> Formula:
        formula = parse(query) if isinstance(query, str) else query
        if free_vars(formula):
            raise ValueError(f"queries must be closed sentences; {formula!r} has free variables")
        return formula

    @staticmethod
    def _as_knowledge_base(knowledge_base: KnowledgeBaseLike) -> KnowledgeBase:
        if isinstance(knowledge_base, KnowledgeBase):
            return knowledge_base
        if isinstance(knowledge_base, str):
            return KnowledgeBase.from_strings(knowledge_base)
        return KnowledgeBase.from_formula(knowledge_base)

    def _joint_vocabulary(self, query: Formula, knowledge_base: KnowledgeBase) -> Vocabulary:
        return knowledge_base.vocabulary.merge(Vocabulary.from_formulas([query]))

    # -- public API ------------------------------------------------------------

    def degree_of_belief(
        self,
        query: QueryLike,
        knowledge_base: KnowledgeBaseLike,
        method: str = "auto",
    ) -> BeliefResult:
        """``Pr_infinity(query | KB)`` with the requested computation method.

        A thin shim over the session API: the query flows through a private
        per-KB :class:`~repro.service.BeliefSession` bound to this engine, so
        the legacy surface and :meth:`repro.service.BeliefSession.submit`
        share one dispatch path (and one warm cache).  ``method`` accepts any
        solver-registry key — the historical ``"auto"`` / ``"independence"``
        / ``"analytic"`` / ``"maxent"`` / ``"counting"`` spellings plus e.g.
        ``"reference-class:kyburg"`` or ``"defaults:system-z"``.
        """
        from ..service.messages import QueryRequest

        kb = self._as_knowledge_base(knowledge_base)
        request = QueryRequest(query=self._as_query(query), method=method)
        return self._shim_session(kb).submit(request).result

    def dispatch(
        self,
        query: QueryLike,
        knowledge_base: KnowledgeBaseLike,
        method: str = "auto",
    ) -> BeliefResult:
        """The raw engine dispatch (no session wrapping).

        This is the computation behind the ``random-worlds*`` solver keys:
        the automatic method order of the module docstring for ``"auto"``,
        or one forced path.  Raises :class:`RandomWorldsError` when the
        requested path does not apply.
        """
        query_formula = self._as_query(query)
        kb = self._as_knowledge_base(knowledge_base)

        if method == "auto":
            return self._auto(query_formula, kb)
        if method == "independence":
            result = self._independence(query_formula, kb)
        elif method == "analytic":
            result = self._analytic(query_formula, kb)
        elif method == "maxent":
            result = self._maxent(query_formula, kb)
        elif method == "counting":
            result = self._counting(query_formula, kb)
        else:
            raise ValueError(f"unknown method {method!r}; expected one of {('auto',) + AUTO_METHODS}")
        if result is None:
            raise RandomWorldsError(f"method {method!r} does not apply to this query")
        return result

    def _shim_session(self, kb: KnowledgeBase):
        """The private per-KB session behind the legacy entry points.

        Sessions share this engine (hence its cache, memo table and worker
        pool); the map is a small LRU because evicting a session only loses
        its fingerprint, never the warm counts.  The shim skips the session
        consistency check to keep legacy error behaviour byte-identical.
        """
        from ..service.session import BeliefSession

        # KnowledgeBase equality ignores the (extensible) vocabulary, but the
        # counting and maxent paths depend on it, so the key must carry both.
        key = (kb, vocabulary_fingerprint(kb.vocabulary))
        with self._sessions_lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                return session
            session = BeliefSession(kb, engine=self, consistency_check=False)
            self._sessions[key] = session
            while len(self._sessions) > SHIM_SESSION_LIMIT:
                self._sessions.popitem(last=False)
            return session

    def degree_of_belief_batch(
        self,
        queries: Sequence[QueryLike],
        knowledge_base: KnowledgeBaseLike,
        method: str = "auto",
    ) -> List[BeliefResult]:
        """Answer many queries against one knowledge base, sharing all per-KB work.

        The knowledge base is normalised once and every query flows through
        the same dispatch (independence split, analytic theorems, max entropy,
        exact counting) with one tolerance ladder and one world-count cache:
        the first query that reaches the counting path enumerates the KB class
        decomposition at each ``(N, tau)`` grid point, and every later query
        merely re-evaluates its formula on those cached classes.

        With the engine's default ``memo=True``, the finished counts are
        additionally memoised per ``(grid point, canonical query)``: a batch
        containing repeated (or alpha-equivalent / reordered) queries answers
        the repeats in O(1) instead of re-walking the cached classes.

        The query loop is sequential.  With the ``processes`` backend the
        counting work — not each query — goes to the engine's process pool:
        cold grid points shard their *enumeration* across workers, and warm
        keys whose cached decomposition is large ship *evaluation* shards
        (contiguous class blocks plus the query) instead, which is where the
        multi-core speedup lives on a warm cache.  Results are returned in
        query order and are identical to issuing the queries one at a time
        through :meth:`degree_of_belief`.
        """
        from ..service.messages import QueryRequest

        kb = self._as_knowledge_base(knowledge_base)
        requests = [QueryRequest(query=self._as_query(query), method=method) for query in queries]
        responses = self._shim_session(kb).submit_many(requests)
        return [response.result for response in responses]

    @property
    def tolerances(self) -> Sequence[ToleranceVector]:
        """The shrinking tolerance ladder shared by every query on this engine."""
        return self._tolerances

    @property
    def domain_sizes(self) -> Sequence[int]:
        """The domain-size schedule used by the exact counting engine."""
        return self._domain_sizes

    @property
    def world_cache(self) -> Optional[WorldCountCache]:
        """The engine's world-count cache (``None`` when caching is disabled)."""
        return self._world_cache

    @property
    def backend(self) -> BackendLike:
        """The configured counting backend (``None`` means serial)."""
        return self._backend

    @property
    def max_workers(self) -> Optional[int]:
        """The configured pool width (``None`` means the backend's default)."""
        return self._max_workers

    @property
    def options(self) -> EngineOptions:
        """The engine's knobs as one :class:`~repro.core.options.EngineOptions`.

        Always populated: engines built from legacy keyword spellings
        normalise them into an equivalent options bundle on construction, so
        ``RandomWorlds(options=engine.options)`` reproduces the configuration
        (modulo live objects — executors, caches and memo tables are reduced
        to their option-level equivalents).
        """
        return self._options

    def derive(
        self,
        tolerances: Optional[Iterable[ToleranceVector]] = None,
        domain_sizes: Optional[Sequence[int]] = None,
    ) -> "RandomWorlds":
        """A sibling engine with overridden schedules but shared warm state.

        The derived engine reuses this engine's world-count cache (cache keys
        include the tolerance and domain-size fingerprints, so sharing is
        safe) and, for the ``processes`` backend, its worker pool.  Sessions
        use this for per-request tolerance/domain overrides.
        """
        backend = self._backend
        if isinstance(backend, str) and backend == "processes":
            backend = self._counting_executor() or backend
        return RandomWorlds(
            tolerances=self._tolerances if tolerances is None else tolerances,
            domain_sizes=self._domain_sizes if domain_sizes is None else domain_sizes,
            counting_fallback=self._counting_fallback,
            assume_small_overlap=self._assume_small_overlap,
            cache=self._world_cache if self._world_cache is not None else False,
            backend=backend,
            max_workers=self._max_workers,
            compile=self._compile,
        )

    def cache_info(self) -> Optional[CacheInfo]:
        """Hit/miss counters of the world-count cache, or ``None`` when disabled."""
        return self._world_cache.cache_info() if self._world_cache is not None else None

    def _counting_executor(self) -> Optional[CountingExecutor]:
        """The executor handed to the counting path (``None`` = inline streaming).

        Only shard-dispatching backends are passed down; serial counting
        streams inline.
        """
        if isinstance(self._backend, CountingExecutor):
            return self._backend if self._backend.dispatches_shards else None
        if self._backend == "processes":
            if self._owned_executor is None:
                self._owned_executor = make_executor("processes", self._max_workers)
            return self._owned_executor
        return None

    def close(self) -> None:
        """Shut down the engine-owned worker pool, if one was started.

        Only pools the engine created itself are closed; a caller-supplied
        :class:`CountingExecutor` is left running for its owner.  Safe to
        call repeatedly; the pool is re-created lazily if the engine is used
        again.
        """
        if self._owned_executor is not None:
            self._owned_executor.close()
            self._owned_executor = None

    def __enter__(self) -> "RandomWorlds":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def conditional(self, query: QueryLike, knowledge_base: KnowledgeBaseLike, evidence: QueryLike) -> BeliefResult:
        """Degree of belief in ``query`` given the KB extended with ``evidence``."""
        kb = self._as_knowledge_base(knowledge_base)
        extra = self._as_query(evidence)
        return self.degree_of_belief(query, kb.conjoin(extra))

    def entails_by_default(self, knowledge_base: KnowledgeBaseLike, query: QueryLike, slack: float = 1e-4) -> bool:
        """``KB |~rw query``: the query receives limiting degree of belief 1."""
        result = self.degree_of_belief(query, knowledge_base)
        return result.value is not None and result.value >= 1.0 - slack

    # -- dispatch ---------------------------------------------------------------

    def _auto(self, query: Formula, kb: KnowledgeBase) -> BeliefResult:
        independent = self._independence(query, kb)
        if independent is not None and independent.value is not None:
            return independent

        analytic = self._analytic(query, kb)
        if analytic is not None and analytic.is_point:
            return analytic

        semantic: Optional[BeliefResult] = None
        maxent = self._maxent(query, kb)
        if maxent is not None and maxent.value is not None:
            semantic = maxent
        elif self._counting_fallback:
            semantic = self._counting(query, kb)

        if analytic is not None and analytic.interval is not None:
            low, high = analytic.interval
            if semantic is not None and semantic.value is not None and low - 1e-6 <= semantic.value <= high + 1e-6:
                return BeliefResult(
                    value=semantic.value,
                    interval=analytic.interval,
                    exists=semantic.exists,
                    method=f"{semantic.method}+{analytic.method}",
                    diagnostics={"analytic": analytic.diagnostics, "semantic": semantic.diagnostics},
                    note=analytic.note,
                )
            if semantic is None or semantic.value is None:
                return analytic

        if semantic is not None:
            return semantic
        if analytic is not None:
            return analytic
        raise RandomWorldsError(
            "no computation path applies: the query/KB are outside the analytic patterns, "
            "the vocabulary is not unary, and brute-force enumeration would be too large"
        )

    # -- individual paths --------------------------------------------------------

    def _independence(self, query: Formula, kb: KnowledgeBase) -> Optional[BeliefResult]:
        def solve(sub_query: Formula, sub_kb: KnowledgeBase) -> Optional[BeliefResult]:
            try:
                return self._auto(sub_query, sub_kb)
            except RandomWorldsError:
                return None

        return independence_inference(query, kb, solve)

    def _analytic(self, query: Formula, kb: KnowledgeBase) -> Optional[BeliefResult]:
        candidates = []
        for inference in (
            direct_inference,
            specificity_inference,
            strength_inference,
        ):
            result = inference(query, kb)
            if result is not None:
                candidates.append(result)
        combo = combination_inference(query, kb, assume_small_overlap=self._assume_small_overlap)
        if combo is not None:
            candidates.append(combo)
        if not candidates:
            return None
        # Prefer point answers, then the tightest interval.
        points = [c for c in candidates if c.is_point and c.value is not None]
        if points:
            return points[0]
        with_intervals = [c for c in candidates if c.interval is not None]
        if with_intervals:
            return min(with_intervals, key=lambda c: c.interval[1] - c.interval[0])
        return candidates[0]

    def _maxent(self, query: Formula, kb: KnowledgeBase) -> Optional[BeliefResult]:
        vocabulary = self._joint_vocabulary(query, kb)
        if not vocabulary.is_unary:
            return None
        try:
            # The KB's prepared state solves each ladder once for all queries.
            belief = degree_of_belief_maxent(query, kb, vocabulary, tolerances=self._tolerances)
        except (UnsupportedFormula, MaxEntInfeasible):
            return None
        if belief.value is None:
            return None
        return BeliefResult(
            value=belief.value,
            exists=belief.exists,
            method="maxent",
            diagnostics={
                "per_tolerance": belief.per_tolerance,
                "atom_probabilities": belief.solution.probabilities if belief.solution else None,
                "binding": belief.solution.binding() if belief.solution else {},
            },
            note=belief.note or "maximum entropy over atom proportions (Section 6)",
        )

    def _counting(self, query: Formula, kb: KnowledgeBase) -> Optional[BeliefResult]:
        vocabulary = self._joint_vocabulary(query, kb)
        prefer_unary = vocabulary.is_unary
        if not prefer_unary:
            # Refuse hopeless brute-force enumerations up front.
            if world_space_size(vocabulary, min(self._domain_sizes)) > BRUTE_FORCE_WORLD_LIMIT:
                return None
            domain_sizes: Sequence[int] = tuple(
                n for n in self._domain_sizes if world_space_size(vocabulary, n) <= BRUTE_FORCE_WORLD_LIMIT
            )
            if not domain_sizes:
                return None
        else:
            domain_sizes = tuple(
                n for n in self._domain_sizes if _unary_class_count(vocabulary, n) <= UNARY_CLASS_LIMIT
            )
            if not domain_sizes:
                return None
        try:
            report = degree_of_belief_by_counting(
                query,
                kb.formula,
                vocabulary,
                domain_sizes=domain_sizes,
                tolerances=self._tolerances,
                prefer_unary=prefer_unary,
                cache=self._world_cache,
                backend=self._counting_executor(),
                compile_queries=self._compile,
            )
        except (InconsistentKnowledgeBase, EnumerationTooLarge, UnsupportedFormula):
            return None
        if report.value is None:
            return BeliefResult(
                value=None,
                exists=False,
                method="counting",
                diagnostics={"note": report.limit.note},
                note="the finite counts do not converge",
            )
        return BeliefResult(
            value=report.value,
            exists=report.exists,
            method="counting",
            diagnostics={
                "curves": [
                    {
                        "tolerance": curve.tolerance.max_tolerance,
                        "points": [(n, float(p)) for n, p in curve.defined_points()],
                    }
                    for curve in report.curves
                ],
                "note": report.limit.note,
            },
            note="exact world counting with limit extrapolation (Definition 4.3)",
        )


def _unary_class_count(vocabulary: Vocabulary, domain_size: int) -> int:
    """Number of isomorphism classes the unary counter would visit for one (N, tau) pair.

    Used to skip domain sizes whose exact count would be prohibitively slow for
    vocabularies with many unary predicates (the method is exponential in the
    number of predicates, as the paper notes in Section 7.4).
    """
    num_atoms = 1 << len(vocabulary.unary_predicates)
    compositions = math.comb(domain_size + num_atoms - 1, num_atoms - 1)
    num_constants = len(vocabulary.constants)
    # Placements grow like Bell(m) * A^m; for the small m used in practice the
    # simple bound m^m * A^m is adequate.
    placements = max(1, (max(num_constants, 1) ** num_constants)) * (num_atoms**num_constants)
    return compositions * placements
