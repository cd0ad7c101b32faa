"""The declared lock hierarchy of the serving stack.

Layer contract: this module is pure data plus order arithmetic — no AST
walking (that is :mod:`repro.statics.locks`) and no instrumentation (that is
:mod:`repro.statics.runtime`).  It declares the *intended* acquisition order
of every named lock in the codebase; the static lock graph and the runtime
sanitizer both check against it, so "the manager lock is taken before any
cache lock" is an executable claim, not a comment.

A thread holding lock ``a`` may acquire lock ``b`` only when
``LOCK_ORDER[a] < LOCK_ORDER[b]`` — ranks strictly increase along every
acquisition chain, which makes the declared order acyclic by construction
and every order-respecting execution deadlock-free.  Locks that share a rank
(the metrics leaf locks) must never nest with each other at all.

The hierarchy, top (outermost) to bottom (leaf), mirrors the serving layers
— ``docs/CONCURRENCY.md`` is the human-form table:

0. the traffic recorder's event sink (outermost: it wraps whole serving
   calls and its lock guards only the event list, never nesting),
1. the HTTP session manager,
2. the engine's shim-session map,
3. the belief session's derived-engine map, then a knowledge base's
   prepared-state memo,
4. the per-key in-flight build locks (memo before cache: a memoised query
   evaluation may trigger a class enumeration, never the reverse),
5. the world-count cache, then its memo/program sub-caches,
6. the per-request cache event log,
7. the metrics registry/family dictionaries and metric leaf locks.

Deliberately *outside* the hierarchy: :class:`~repro.server.manager`'s
per-fingerprint build gate.  It is acquired before publication (a freshly
created, uncontended lock — the acquire cannot block) and thereafter only
ever awaited bare, so it has no order to declare and stays a plain
``threading.Lock``.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Tuple

# name -> rank.  Lower rank = acquired earlier (outermost).  Names match the
# ``named_lock(...)`` site labels; ``_InFlight.lock`` is the static analyzer's
# coarse identity for both in-flight lock families (it cannot see which owner
# a given ``entry.lock`` belongs to), ranked between the two runtime names it
# covers so either view refines the same order.
LOCK_ORDER: Mapping[str, int] = {
    "TraceRecorder._lock": 5,
    "SessionManager._lock": 10,
    "RandomWorlds._sessions_lock": 20,
    "BeliefSession._lock": 30,
    "PreparedKB._lock": 35,
    "QueryMemoTable._inflight": 40,
    "_InFlight.lock": 42,
    "WorldCountCache._inflight": 44,
    "WorldCountCache._lock": 50,
    "QueryMemoTable._lock": 55,
    "CompiledProgramCache._lock": 58,
    "CacheEventLog._lock": 70,
    "MetricsRegistry._lock": 80,
    "MetricFamily._lock": 85,
    "Counter._lock": 90,
    "Gauge._lock": 90,
    "Histogram._lock": 90,
}


def rank_of(name: str, order: Optional[Mapping[str, int]] = None) -> Optional[int]:
    """The declared rank of a lock name (``None`` when undeclared)."""
    return (LOCK_ORDER if order is None else order).get(name)


def edge_problem(
    held: str, acquired: str, order: Optional[Mapping[str, int]] = None
) -> Optional[str]:
    """Why acquiring ``acquired`` while holding ``held`` breaks the order.

    Returns ``None`` for a conforming edge.  Three failure shapes: either
    lock is undeclared (the manifest must cover every observed edge), the
    edge inverts the declared ranks, or the two locks share a rank (same-rank
    locks must never nest).
    """
    table = LOCK_ORDER if order is None else order
    held_rank = table.get(held)
    acquired_rank = table.get(acquired)
    if held_rank is None or acquired_rank is None:
        missing = [name for name, rank in ((held, held_rank), (acquired, acquired_rank)) if rank is None]
        return f"edge {held} -> {acquired}: {', '.join(missing)} not declared in LOCK_ORDER"
    if held_rank > acquired_rank:
        return (
            f"edge {held} -> {acquired} inverts the declared order "
            f"(rank {held_rank} must stay below rank {acquired_rank})"
        )
    if held_rank == acquired_rank and held != acquired:
        return f"edge {held} -> {acquired}: same-rank locks (rank {held_rank}) must never nest"
    if held == acquired:
        return f"edge {held} -> {held}: a lock may never be re-acquired while held"
    return None


def order_violations(
    edges: Iterable[Tuple[str, str]], order: Optional[Mapping[str, int]] = None
) -> List[str]:
    """Every observed edge the declared order does not cover, as messages."""
    problems: List[str] = []
    for held, acquired in edges:
        problem = edge_problem(held, acquired, order)
        if problem is not None:
            problems.append(problem)
    return problems
