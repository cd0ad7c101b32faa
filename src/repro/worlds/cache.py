"""Memoisation of world-count decompositions across queries.

The expensive part of evaluating ``Pr^tau_N(phi | KB)`` is not the query
``phi``: it is enumerating the isomorphism classes (or, for the brute-force
engine, the literal worlds) of size ``N`` that satisfy the knowledge base and
computing their exact multinomial weights.  That decomposition depends only on
``(vocabulary, KB, N, tau)`` — every query posed against the same knowledge
base re-walks exactly the same class structure.

:class:`WorldCountCache` stores these decompositions keyed by
:class:`CacheKey` so a batch of queries (or repeated interactive queries)
enumerates each ``(N, tau)`` grid point once and afterwards only re-evaluates
the query formula on the cached KB-satisfying classes.  Invalidation is
structural: changing the knowledge base, the vocabulary, the domain size or
the tolerance vector changes the key, so stale entries can never be returned.
The cache is a bounded LRU and is safe to share between threads (the HTTP
server answers concurrent requests against one session's cache).

:class:`QueryMemoTable` is the second memoisation layer: finished per-query
counts keyed by ``(decomposition key, canonical query, tolerance)``, so an
*identical repeated* query skips even the re-evaluation and returns in O(1).
:func:`query_fingerprint` supplies the canonical query form (bound variables
renamed positionally, commutative connectives sorted), so alpha-equivalent or
reordered phrasings share one row.  Memo rows are purged with their parent
decomposition and inherit the same structural invalidation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple, Union

from ..logic.syntax import (
    And,
    ApproxEq,
    ApproxLeq,
    Atom,
    Bottom,
    CondProportion,
    Const,
    Equals,
    ExactCompare,
    Exists,
    ExistsExactly,
    Forall,
    Formula,
    FuncApp,
    Iff,
    Implies,
    Not,
    Number,
    Or,
    Product,
    Proportion,
    ProportionExpr,
    Sum,
    Term,
    Top,
    Var,
)
from ..logic.tolerance import ToleranceVector
from ..logic.vocabulary import Vocabulary
from ..statics.runtime import named_lock


def vocabulary_fingerprint(vocabulary: Vocabulary) -> Tuple:
    """A hashable identity for a vocabulary (predicates, functions, constants).

    Every component is sorted: two vocabularies describing the same signature
    must fingerprint identically even when their symbols were merged in
    different orders (``Vocabulary.merge`` preserves no canonical constant
    order for directly-constructed vocabularies), otherwise equal grid points
    silently stop sharing cache entries.
    """
    return (
        tuple(sorted(vocabulary.predicates.items())),
        tuple(sorted(vocabulary.functions.items())),
        tuple(sorted(vocabulary.constants)),
    )


def tolerance_fingerprint(tolerance: ToleranceVector) -> Tuple:
    """A hashable identity for a tolerance vector.

    :class:`ToleranceVector` stores its per-index overrides in a dict and is
    therefore not hashable itself; the fingerprint flattens it canonically.
    """
    return (tolerance.default, tuple(sorted(tolerance.values.items())))


def query_fingerprint(query: Formula) -> Formula:
    """A canonical form of a query, used as its memo identity.

    Two queries that are alpha-equivalent (bound variables renamed) or differ
    only in the order of commutative connectives (``And``/``Or`` operands,
    ``Iff`` sides, ``Equals`` sides, ``Sum``/``Product`` factors) fingerprint
    identically, so they share one :class:`QueryMemoTable` row instead of
    splitting the table.  Bound variables are renamed positionally (de
    Bruijn-style, by binder depth along the path from the root), which makes
    the canonical form independent of the names the query happened to use;
    commutative operands are then sorted by their canonical ``repr``.  The
    result is itself a :class:`~repro.logic.syntax.Formula` (hashable,
    structurally comparable) that is logically equivalent to the input.
    """
    return _canonical_formula(query, {}, 0)


def _canonical_formula(formula: Formula, env: dict, depth: int) -> Formula:
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Atom):
        return Atom(formula.predicate, tuple(_canonical_term(a, env) for a in formula.args))
    if isinstance(formula, Equals):
        sides = sorted(
            (_canonical_term(formula.left, env), _canonical_term(formula.right, env)),
            key=repr,
        )
        return Equals(sides[0], sides[1])
    if isinstance(formula, Not):
        return Not(_canonical_formula(formula.operand, env, depth))
    if isinstance(formula, And):
        operands = sorted(
            (_canonical_formula(o, env, depth) for o in formula.operands), key=repr
        )
        return And(tuple(operands))
    if isinstance(formula, Or):
        operands = sorted(
            (_canonical_formula(o, env, depth) for o in formula.operands), key=repr
        )
        return Or(tuple(operands))
    if isinstance(formula, Implies):
        return Implies(
            _canonical_formula(formula.antecedent, env, depth),
            _canonical_formula(formula.consequent, env, depth),
        )
    if isinstance(formula, Iff):
        sides = sorted(
            (
                _canonical_formula(formula.left, env, depth),
                _canonical_formula(formula.right, env, depth),
            ),
            key=repr,
        )
        return Iff(sides[0], sides[1])
    if isinstance(formula, (Forall, Exists)):
        name = f"?{depth}"
        inner = {**env, formula.variable: name}
        body = _canonical_formula(formula.body, inner, depth + 1)
        return type(formula)(name, body)
    if isinstance(formula, ExistsExactly):
        name = f"?{depth}"
        inner = {**env, formula.variable: name}
        return ExistsExactly(
            formula.count, name, _canonical_formula(formula.body, inner, depth + 1)
        )
    if isinstance(formula, (ApproxEq, ApproxLeq)):
        return type(formula)(
            _canonical_expr(formula.left, env, depth),
            _canonical_expr(formula.right, env, depth),
            formula.index,
        )
    if isinstance(formula, ExactCompare):
        return ExactCompare(
            _canonical_expr(formula.left, env, depth),
            _canonical_expr(formula.right, env, depth),
            formula.op,
        )
    raise TypeError(f"unknown formula {formula!r}")


def _canonical_term(term: Term, env: dict) -> Term:
    if isinstance(term, Var):
        renamed = env.get(term.name)
        return Var(renamed) if renamed is not None else term
    if isinstance(term, Const):
        return term
    if isinstance(term, FuncApp):
        return FuncApp(term.name, tuple(_canonical_term(a, env) for a in term.args))
    raise TypeError(f"unknown term {term!r}")


def _canonical_expr(expr: ProportionExpr, env: dict, depth: int) -> ProportionExpr:
    if isinstance(expr, Number):
        return expr
    if isinstance(expr, (Proportion, CondProportion)):
        # Proportion subscripts bind their variables; rename them positionally
        # in subscript order so ``||P(x)||_x`` and ``||P(y)||_y`` coincide.
        names = tuple(f"?{depth + offset}" for offset in range(len(expr.variables)))
        inner = {**env, **dict(zip(expr.variables, names))}
        body_depth = depth + len(expr.variables)
        if isinstance(expr, Proportion):
            return Proportion(_canonical_formula(expr.formula, inner, body_depth), names)
        return CondProportion(
            _canonical_formula(expr.formula, inner, body_depth),
            _canonical_formula(expr.condition, inner, body_depth),
            names,
        )
    if isinstance(expr, (Sum, Product)):
        sides = sorted(
            (_canonical_expr(expr.left, env, depth), _canonical_expr(expr.right, env, depth)),
            key=repr,
        )
        return type(expr)(sides[0], sides[1])
    raise TypeError(f"unknown proportion expression {expr!r}")


@dataclass(frozen=True)
class CacheKey:
    """Identity of one KB class decomposition.

    ``engine`` distinguishes the unary isomorphism-class decomposition from
    the brute-force world list, which are not interchangeable payloads even
    for the same knowledge base.  ``extra`` carries engine-specific
    configuration that changes the decomposition's observable behaviour (the
    brute-force counter records its enumeration limit there, so a permissive
    counter's entry can never bypass a stricter counter's size guard).
    """

    engine: str
    vocabulary: Tuple
    knowledge_base: Formula
    domain_size: int
    tolerance: Tuple
    extra: Tuple = ()

    @classmethod
    def for_counter(
        cls,
        engine: str,
        vocabulary: Vocabulary,
        knowledge_base: Formula,
        domain_size: int,
        tolerance: ToleranceVector,
        extra: Tuple = (),
    ) -> "CacheKey":
        return cls(
            engine=engine,
            vocabulary=vocabulary_fingerprint(vocabulary),
            knowledge_base=knowledge_base,
            domain_size=domain_size,
            tolerance=tolerance_fingerprint(tolerance),
            extra=extra,
        )


@dataclass(frozen=True)
class ClassDecomposition:
    """The KB-satisfying slice of the world space at one ``(N, tau)`` point.

    ``classes`` pairs each class (a :class:`~repro.worlds.unary.UnaryStructure`
    for the unary engine, a :class:`~repro.logic.semantics.World` for the
    brute-force engine) with the exact number of worlds it stands for;
    ``kb_total`` is the sum of those weights.  Evaluating a query against a
    decomposition touches only these classes — the full enumeration, including
    every class the KB rejected, never has to be repeated.
    """

    domain_size: int
    kb_total: int
    classes: Tuple[Tuple[Any, int], ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


class OversizedSentinel:
    """Marker cached in place of a decomposition that was too large to store.

    Remembering "too big to store" matters for concurrency: without it, every
    query in a batch that misses on an oversized key re-enumerates *under the
    per-key in-flight lock*, serialising the whole pool on work the cache can
    never amortise.  The sentinel is an ordinary entry (``num_classes`` 0, so
    it costs nothing against the class budget) that tells later callers to
    stream without taking the lock.
    """

    __slots__ = ()
    num_classes = 0

    def __repr__(self) -> str:
        return "<OVERSIZED>"


OVERSIZED = OversizedSentinel()

# What the cache hands back: a real decomposition or the oversized marker.
# Callers that need the payload must isinstance-check for ClassDecomposition;
# ``found is OVERSIZED`` means "compute, but don't store and don't serialise".
CacheEntry = Union[ClassDecomposition, OversizedSentinel]


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of cache effectiveness counters.

    The ``memo_*`` fields mirror the decomposition counters for the attached
    :class:`QueryMemoTable` (all zero / ``None`` when no memo is attached): a
    memo hit answers a repeated query in O(1) without touching the
    decomposition entries at all, so the two counter families partition the
    work — ``memo_misses`` counts actual query evaluations, ``misses`` counts
    actual class enumerations.
    """

    hits: int
    misses: int
    entries: int
    maxsize: Optional[int]
    total_classes: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_entries: int = 0
    memo_maxsize: Optional[int] = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


class _InFlight:
    """Refcounted per-key lock guarding one in-flight computation.

    ``waiters`` counts every thread that holds a reference (the computer and
    everyone queued behind it).  The entry is removed from the in-flight table
    only when the last waiter leaves — popping it any earlier lets a newly
    arriving thread ``setdefault`` a *fresh* lock and enumerate the same key
    concurrently with a thread still queued on the old one.
    """

    __slots__ = ("lock", "waiters")

    def __init__(self, name: str = "_InFlight.lock") -> None:
        self.lock = named_lock(name)
        self.waiters = 0


# A memo row's identity: the parent decomposition's cache key, the canonical
# query fingerprint, and the tolerance fingerprint the query was evaluated at
# (the decomposition and the evaluation normally share one tolerance, but
# ``evaluate_query`` does not require it, so the key keeps them distinct).
MemoKey = Tuple[CacheKey, Formula, Tuple]

DEFAULT_MEMO_SIZE = 4096

_ABSENT = object()


class CacheEventLog:
    """A per-request tally of cache events, attributed exactly.

    The cache counters above are *global* (they answer "how warm is this
    cache"); attributing their movement to one request by snapshotting
    ``cache_info()`` before and after races as soon as two requests run
    concurrently — each snapshot pair absorbs whatever the other threads
    did in between.  Instead, the serving layer installs a log for the
    current thread (:func:`tracking_cache_events`) and every counter site
    also records into it, so a request is charged exactly the events its
    own evaluation caused, under any interleaving.

    The log's own lock is a leaf, so ``record`` stays safe should two
    threads ever charge the same log.
    """

    __slots__ = (
        "_lock",
        "hits",
        "misses",
        "memo_hits",
        "memo_misses",
        "program_hits",
        "program_misses",
        "compiled",
        "fallback",
    )

    EVENTS = (
        "hits",
        "misses",
        "memo_hits",
        "memo_misses",
        "program_hits",
        "program_misses",
        "compiled",
        "fallback",
    )

    def __init__(self) -> None:
        self._lock = named_lock("CacheEventLog._lock")
        for event in self.EVENTS:
            setattr(self, event, 0)

    def record(self, event: str, amount: int = 1) -> None:
        if event not in self.EVENTS:
            raise ValueError(f"unknown cache event {event!r}")
        with self._lock:
            setattr(self, event, getattr(self, event) + amount)

    def __repr__(self) -> str:
        fields = ", ".join(f"{event}={getattr(self, event)}" for event in self.EVENTS)
        return f"CacheEventLog({fields})"


_ACTIVE_EVENT_LOG = threading.local()


def active_event_log() -> Optional[CacheEventLog]:
    """The event log installed for the current thread (``None`` outside one)."""
    return getattr(_ACTIVE_EVENT_LOG, "log", None)


@contextmanager
def tracking_cache_events(log: CacheEventLog) -> Iterator[CacheEventLog]:
    """Attribute this thread's cache events to ``log`` for the block's duration.

    Re-entrant in the save/restore sense: the previous log (if any) is
    restored on exit, so nested per-request logs on one thread unwind
    correctly.
    """
    previous = active_event_log()
    _ACTIVE_EVENT_LOG.log = log
    try:
        yield log
    finally:
        _ACTIVE_EVENT_LOG.log = previous


def _record(event: str, amount: int = 1) -> None:
    """Record ``event`` into the current thread's log, if one is installed."""
    log = active_event_log()
    if log is not None:
        log.record(event, amount)


class QueryMemoTable:
    """A bounded LRU of per-query count results, layered on the class cache.

    Re-walking a cached :class:`ClassDecomposition` costs O(classes) pure
    Python per query; for *repeated* queries even that is waste.  The memo
    stores the finished ``(satisfying_kb, satisfying_both)`` counts keyed by
    :data:`MemoKey`, so an identical repeated query is O(1).  Rows are tiny
    (a key plus two integers), so the default bound is generous.

    Invalidation is structural, exactly like the decomposition cache: a KB,
    vocabulary, domain-size or tolerance change produces a different parent
    :class:`CacheKey` and therefore different memo keys — a stale answer can
    never be served.  Additionally each row is indexed by its parent key so
    :meth:`purge_parent` can drop a decomposition's rows with it (the owning
    :class:`WorldCountCache` does this on eviction and on :meth:`clear`).

    Concurrent misses on one key are serialised by the same refcounted
    per-key in-flight protocol the decomposition cache uses, so the miss
    total equals the number of evaluations actually performed — deterministic
    under any interleaving, which lets the cross-backend equality suite
    compare memo counters across serial, thread and process backends.
    """

    def __init__(self, maxsize: Optional[int] = DEFAULT_MEMO_SIZE):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self._maxsize = maxsize
        self._entries: "OrderedDict[MemoKey, Any]" = OrderedDict()
        self._parents: dict[CacheKey, set] = {}
        self._lock = named_lock("QueryMemoTable._lock")
        self._inflight: dict[MemoKey, _InFlight] = {}
        self._hits = 0
        self._misses = 0

    @property
    def maxsize(self) -> Optional[int]:
        return self._maxsize

    def _served(self, key: MemoKey) -> Any:
        """A lookup that counts a hit when present and nothing when absent."""
        with self._lock:
            found = self._entries.get(key, _ABSENT)
            if found is not _ABSENT:
                self._entries.move_to_end(key)
                self._hits += 1
        if found is not _ABSENT:
            _record("memo_hits")
        return found

    def store(self, key: MemoKey, value: Any) -> None:
        """Insert a memo row, evicting least recently used rows beyond the bound."""
        with self._lock:
            if key not in self._entries:
                self._parents.setdefault(key[0], set()).add(key)
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self._maxsize is not None:
                while len(self._entries) > self._maxsize:
                    evicted_key, _ = self._entries.popitem(last=False)
                    self._unindex_locked(evicted_key)

    def _unindex_locked(self, key: MemoKey) -> None:
        rows = self._parents.get(key[0])
        if rows is not None:
            rows.discard(key)
            if not rows:
                del self._parents[key[0]]

    def get_or_compute(self, key: MemoKey, compute: Callable[[], Any]) -> Any:
        """Return the memoised value for ``key``, computing and storing it on a miss.

        Concurrent misses on one key are serialised behind a refcounted
        per-key lock (one caller evaluates, the rest are served its stored
        result), so exactly one evaluation happens per key whichever backend
        or thread interleaving drives the calls.
        """
        found = self._served(key)
        if found is not _ABSENT:
            return found
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = _InFlight("QueryMemoTable._inflight")
                self._inflight[key] = entry
            entry.waiters += 1
        try:
            with entry.lock:
                found = self._served(key)
                if found is not _ABSENT:
                    return found
                with self._lock:
                    self._misses += 1
                _record("memo_misses")
                value = compute()  # lock-ok[C601]: entry.lock exists to serialise exactly this compute; only same-key callers wait on it
                self.store(key, value)
                return value
        finally:
            with self._lock:
                entry.waiters -= 1
                if entry.waiters == 0 and self._inflight.get(key) is entry:
                    del self._inflight[key]

    # -- maintenance ---------------------------------------------------------

    def purge_parent(self, cache_key: CacheKey) -> None:
        """Drop every memo row whose parent decomposition is ``cache_key``."""
        with self._lock:
            for key in self._parents.pop(cache_key, ()):
                self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every row (hit/miss counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()
            self._parents.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0

    # -- introspection ---------------------------------------------------------

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: MemoKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"QueryMemoTable(entries={len(self._entries)}, hits={self._hits}, "
                f"misses={self._misses}, maxsize={self._maxsize})"
            )


# A compiled program's identity: the parent decomposition's cache key plus
# the canonical query fingerprint.  No tolerance component — compiled
# programs are tolerance-independent by construction (tolerance-dependent
# connectives are never compiled), so one program serves every tolerance.
ProgramKey = Tuple[CacheKey, Formula]

DEFAULT_PROGRAM_CACHE_SIZE = 512


class CompiledProgramCache:
    """A bounded LRU of compiled query programs (including negative results).

    Compiling a query is cheap (one small tree walk) but hot paths evaluate
    the same query against the same decomposition thousands of times, so the
    per-``(CacheKey, query_fingerprint)`` program is kept alongside the memo
    table.  ``None`` — "this query is outside the compiled fragment" — is
    cached too, so uncompilable queries do not retry the compiler per count.

    Unlike the memo table there is no in-flight protocol: two threads
    racing on a miss both compile (a pure, fast computation) and the second
    store wins harmlessly.
    """

    def __init__(self, maxsize: Optional[int] = DEFAULT_PROGRAM_CACHE_SIZE):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self._maxsize = maxsize
        self._entries: "OrderedDict[ProgramKey, Any]" = OrderedDict()
        self._lock = named_lock("CompiledProgramCache._lock")
        self._hits = 0
        self._misses = 0

    def get_or_compile(self, key: ProgramKey, compile_fn: Callable[[], Any]) -> Any:
        """The cached program for ``key``, compiling (and storing) on a miss."""
        with self._lock:
            found = self._entries.get(key, _ABSENT)
            if found is not _ABSENT:
                self._entries.move_to_end(key)
                self._hits += 1
        if found is not _ABSENT:
            _record("program_hits")
            _record("compiled" if found is not None else "fallback")
            return found
        with self._lock:
            self._misses += 1
        _record("program_misses")
        program = compile_fn()
        _record("compiled" if program is not None else "fallback")
        with self._lock:
            self._entries[key] = program
            self._entries.move_to_end(key)
            if self._maxsize is not None:
                while len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
        return program

    def purge_parent(self, cache_key: CacheKey) -> None:
        """Drop every program compiled against ``cache_key``'s decomposition."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == cache_key]
            for key in stale:
                del self._entries[key]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ProgramKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"CompiledProgramCache(entries={len(self._entries)}, hits={self._hits}, "
                f"misses={self._misses}, maxsize={self._maxsize})"
            )


class WorldCountCache:
    """A bounded, thread-safe LRU cache of :class:`ClassDecomposition` values.

    Parameters
    ----------
    maxsize:
        Maximum number of decompositions kept (``None`` for unbounded).  One
        decomposition is stored per ``(vocabulary, KB, N, tau)`` grid point,
        so the default comfortably covers a full tolerance ladder times the
        default domain-size schedule for several knowledge bases.
    max_total_classes:
        Memory budget: the summed ``num_classes`` over every stored entry.
        When an insertion pushes the total past the budget, least recently
        used entries are evicted (the newest entry is always kept), so a
        long-lived engine sweeping many knowledge bases stays bounded even
        though individual decompositions vary wildly in size.  ``None``
        disables the budget.
    memo:
        Per-query memoisation layered on the decomposition entries.  ``True``
        attaches a private :class:`QueryMemoTable` (sized by ``memo_size``);
        a :class:`QueryMemoTable` instance shares an existing table; the
        default ``False``/``None`` keeps the historical behaviour — every
        query re-evaluates on the cached classes.  Memo rows are purged with
        their parent decomposition (LRU eviction, :meth:`clear`), and the
        decomposition hit/miss counters stay identical to a memo-less cache
        for workloads with no repeated queries.
    memo_size:
        LRU bound of a privately created memo table (``None`` for unbounded;
        ignored when ``memo`` is an existing instance).
    """

    def __init__(
        self,
        maxsize: Optional[int] = 256,
        max_total_classes: Optional[int] = 500_000,
        memo: Union[QueryMemoTable, bool, None] = False,
        memo_size: Optional[int] = DEFAULT_MEMO_SIZE,
    ):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        if max_total_classes is not None and max_total_classes <= 0:
            raise ValueError("max_total_classes must be positive (or None for unbounded)")
        self._maxsize = maxsize
        self._max_total_classes = max_total_classes
        if isinstance(memo, QueryMemoTable):
            self._memo: Optional[QueryMemoTable] = memo
        elif memo:
            self._memo = QueryMemoTable(memo_size)
        else:
            self._memo = None
        self._programs = CompiledProgramCache()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._total_classes = 0
        self._lock = named_lock("WorldCountCache._lock")
        self._inflight: dict[CacheKey, _InFlight] = {}
        self._hits = 0
        self._misses = 0

    @property
    def memo(self) -> Optional[QueryMemoTable]:
        """The attached per-query memo table (``None`` when memoisation is off)."""
        return self._memo

    @property
    def programs(self) -> CompiledProgramCache:
        """Compiled query programs keyed by ``(CacheKey, query_fingerprint)``.

        Always present (compiling is engine-gated, not cache-gated); programs
        live and die with their parent decomposition, like memo rows.
        """
        return self._programs

    # -- core operations -----------------------------------------------------

    def lookup(self, key: CacheKey) -> Optional[CacheEntry]:
        """Return the cached entry for ``key``, counting a hit or miss."""
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        _record("misses" if found is None else "hits")
        return found

    def peek(self, key: CacheKey) -> Optional[CacheEntry]:
        """Like :meth:`lookup` but without touching the hit/miss counters."""
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
            return found

    def touch(self, key: CacheKey) -> None:
        """Refresh ``key``'s LRU recency without counters (no-op when absent).

        The counters call this on every memoised count: a memo hit never
        reads the parent decomposition, so without the touch a grid point
        serving pure memo traffic would look idle to the LRU and age out —
        taking its hot memo rows with it.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)

    def _served(self, key: CacheKey) -> Optional[CacheEntry]:
        """An entry lookup that counts a hit when present and nothing when absent.

        :meth:`computing` records the miss only for the caller that actually
        ends up enumerating, so the miss total equals the number of
        enumerations performed — deterministic under any interleaving, which
        is what lets the cross-backend equality suite compare ``CacheInfo``
        across serial, thread and process backends.
        """
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                self._hits += 1
        if found is not None:
            _record("hits")
        return found

    @contextmanager
    def computing(self, key: CacheKey) -> Iterator[Optional[CacheEntry]]:
        """Serialise computation of ``key`` behind its per-key in-flight lock.

        Yields the cached entry when it is already present (or arrived while
        waiting for the lock) — including the :data:`OVERSIZED` sentinel,
        which is deliberately served *without* taking the lock so oversized
        grid points stream concurrently.  Yields ``None`` when the caller
        holds the lock and must compute — it may :meth:`store` the result (or
        :meth:`store_oversized`) before leaving the block.

        The in-flight entry is refcounted: it is dropped only when the last
        queued thread leaves, and released even when the computation raises,
        so failed enumerations never orphan a lock and a finishing computer
        never strands later arrivals on a stale lock.  This is the single
        home of the locking protocol; both :meth:`get_or_compute` and the
        counters' streaming ``count()`` build on it.
        """
        found = self._served(key)
        if found is not None:
            yield found
            return
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = _InFlight("WorldCountCache._inflight")
                self._inflight[key] = entry
            entry.waiters += 1
        holding = False
        try:
            entry.lock.acquire()
            holding = True
            # Another thread may have computed the value while we waited; if
            # so this caller is served (a hit), otherwise it is the computer
            # and records the enumeration as a miss.
            found = self._served(key)
            if found is not None:
                # Nothing left to serialise: release before yielding so the
                # queued waiters drain concurrently (for the OVERSIZED
                # sentinel especially, holding the lock here would serialise
                # the very enumerations the negative cache exists to unblock).
                entry.lock.release()
                holding = False
                yield found
            else:
                with self._lock:
                    self._misses += 1
                _record("misses")
                yield None
        finally:
            if holding:
                entry.lock.release()
            with self._lock:
                entry.waiters -= 1
                if entry.waiters == 0 and self._inflight.get(key) is entry:
                    del self._inflight[key]

    def store(self, key: CacheKey, value: CacheEntry) -> None:
        """Insert a decomposition, evicting least recently used entries beyond the bounds.

        Evicting an entry also purges its memo rows: a memoised answer whose
        parent decomposition was re-enumerated after eviction would still be
        structurally correct, but tying the lifetimes keeps "what the cache
        knows" to one rule and stops a large memo from outliving the
        decompositions that justified it.
        """
        evicted_keys = []
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None:
                self._total_classes -= previous.num_classes
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._total_classes += value.num_classes
            if self._maxsize is not None:
                while len(self._entries) > self._maxsize:
                    evicted_key, evicted = self._entries.popitem(last=False)
                    self._total_classes -= evicted.num_classes
                    evicted_keys.append(evicted_key)
            if self._max_total_classes is not None:
                while len(self._entries) > 1 and self._total_classes > self._max_total_classes:
                    evicted_key, evicted = self._entries.popitem(last=False)
                    self._total_classes -= evicted.num_classes
                    evicted_keys.append(evicted_key)
        for evicted_key in evicted_keys:
            if self._memo is not None:
                self._memo.purge_parent(evicted_key)
            self._programs.purge_parent(evicted_key)

    def store_oversized(self, key: CacheKey) -> None:
        """Remember that ``key``'s decomposition is too large to store.

        The :data:`OVERSIZED` sentinel occupies an ordinary LRU slot at zero
        class cost; later callers that find it stream their own enumeration
        concurrently instead of queueing on the per-key in-flight lock.
        """
        self.store(key, OVERSIZED)

    def get_or_compute(
        self,
        key: CacheKey,
        compute: Callable[[], ClassDecomposition],
        should_store: Optional[Callable[[ClassDecomposition], bool]] = None,
    ) -> ClassDecomposition:
        """Return the cached value for ``key``, computing and storing it on a miss.

        Concurrent misses on the same key are serialised by :meth:`computing`'s
        per-key in-flight lock, so one thread enumerates while the others wait
        and then re-use its result — concurrent requests never duplicate the
        expensive enumeration.  ``should_store`` lets
        callers skip storing pathologically large decompositions while still
        returning them; such keys are negative-cached (:meth:`store_oversized`)
        so later callers recompute concurrently, without the lock.
        """
        with self.computing(key) as found:
            if isinstance(found, ClassDecomposition):
                return found
            value = compute()
            if should_store is None or should_store(value):
                self.store(key, value)
            elif found is None:
                self.store_oversized(key)
            return value

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (the hit/miss counters are kept; see ``reset_stats``).

        The attached memo table (when present) is cleared with the
        decompositions: memo rows live and die with their parents.

        In-flight locks are deliberately left alone: computations that are
        mid-enumeration still hold references to them, and wiping the table
        would let a fresh caller start a duplicate, concurrent enumeration of
        a key that is already being computed.  Each in-flight entry removes
        itself when its last waiter leaves.
        """
        with self._lock:
            self._entries.clear()
            self._total_classes = 0
        if self._memo is not None:
            self._memo.clear()
        self._programs.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = 0
            self._misses = 0
        if self._memo is not None:
            self._memo.reset_stats()
        self._programs.reset_stats()

    # -- introspection ---------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        memo = self._memo
        with self._lock:
            return CacheInfo(
                self._hits,
                self._misses,
                len(self._entries),
                self._maxsize,
                self._total_classes,
                memo_hits=memo.hits if memo is not None else 0,
                memo_misses=memo.misses if memo is not None else 0,
                memo_entries=len(memo) if memo is not None else 0,
                memo_maxsize=memo.maxsize if memo is not None else None,
            )

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"WorldCountCache(entries={info.entries}, hits={info.hits}, "
            f"misses={info.misses}, maxsize={info.maxsize})"
        )
