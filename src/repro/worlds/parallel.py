"""Pluggable execution backends for exact world counting.

Counting ``Pr^tau_N(phi | KB)`` over a grid of ``(N, tau)`` points is
embarrassingly parallel, but the counters are pure Python, so fanning the work
over threads gains nothing on CPython: the GIL serialises the arithmetic.
This module supplies a :class:`CountingExecutor` abstraction with two
interchangeable backends:

* ``serial`` — everything inline (the reference semantics);
* ``processes`` — a process pool fed picklable :class:`WorkUnit` shards, the
  backend that uses multiple cores for the counting itself.

A work unit is one ``(vocabulary, KB, N, tau)`` grid point plus a
*compositions-range shard*: the outer enumeration (atom-count compositions for
the unary engine, raw worlds for brute force) is split into contiguous index
blocks so a single large ``N`` spreads across cores.  Workers stream their
block, keep only the KB-satisfying classes, and send back a
:class:`PartialDecomposition`; the parent folds the partials — in shard order,
so class order matches a serial enumeration exactly — into one
:class:`~repro.worlds.cache.ClassDecomposition` and stores it in the shared
:class:`~repro.worlds.cache.WorldCountCache`.  Workers never touch the cache;
all cache bookkeeping (including the in-flight lock protocol and the
oversized negative-cache) happens in the parent process, so answers and
``CacheInfo`` totals are identical across both backends.

Work units come in a second flavour since PR 3: *evaluation* units ship a
contiguous block of an already-cached decomposition's classes (plus the query
formula) to workers, which send back a :class:`PartialCount`; the parent sums
the per-block ``(satisfying_kb, satisfying_both)`` pairs — plain integer
addition, so the merged count is Fraction-identical to a serial re-walk.
This is how the processes backend parallelises *warm* queries, whose cost is
the pure-Python class walk rather than the enumeration.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from ..logic.syntax import TRUE, Formula
from ..logic.tolerance import ToleranceVector
from ..logic.vocabulary import Vocabulary
from . import counting as _counting
from .cache import ClassDecomposition
from .compile import CompiledQuery

BACKENDS = ("serial", "processes")

# Grid points whose outer enumeration has fewer items than this run as a
# single shard: dispatch and pickling would cost more than the split saves.
MIN_ITEMS_PER_SHARD = 64

# Cost-weighted shard planning walks the whole outer enumeration once to
# estimate per-item work, so it is only worth doing when that walk is cheap
# relative to the enumeration itself.  Larger grids fall back to even splits.
MAX_WEIGHTED_ITEMS = 200_000

# Shards per worker beyond the first.  Contiguous composition blocks filter
# at different rates (the KB rejects some regions of the grid wholesale), so
# mild oversharding evens out the load without drowning in task overhead.
OVERSHARD = 4


@dataclass(frozen=True)
class WorkUnit:
    """A picklable shard of one counting grid point.

    Two kinds of unit share this envelope, distinguished by ``query``:

    * **enumeration** (``query is None``, the PR 2 shape) — rebuild a counter
      and stream one ``shard_index / num_shards`` block of the grid point's
      outer enumeration, returning the KB-satisfying classes found there as a
      :class:`PartialDecomposition`;
    * **evaluation** (``query`` set) — walk the already-enumerated
      ``classes`` block of a cached decomposition and count the classes
      satisfying ``query``, returning a :class:`PartialCount`.  The parent
      slices the decomposition, so ``shard_index / num_shards`` is merge
      bookkeeping only and ``knowledge_base`` is not consulted.

    Both kinds carry the engine kind, vocabulary, tolerance and the
    engine-specific ``extra`` configuration (the brute-force enumeration
    limit) so a worker can rebuild an equivalent cache-less counter.
    """

    engine: str
    vocabulary: Vocabulary
    knowledge_base: Formula
    domain_size: int
    tolerance: ToleranceVector
    extra: Tuple = ()
    shard_index: int = 0
    num_shards: int = 1
    query: Optional[Formula] = None
    classes: Optional[Tuple[Tuple[Any, int], ...]] = None
    # Cost-weighted planning overrides the even ``shard_index / num_shards``
    # split with an explicit enumeration-index range (enumeration units only).
    bounds: Optional[Tuple[int, int]] = None
    # Evaluation units optionally ship a compiled program for the query;
    # workers run exactly what they are shipped (they never recompile), and
    # ``None`` means the worker interprets the query.
    program: Optional[CompiledQuery] = None


@dataclass(frozen=True)
class PartialDecomposition:
    """The KB-satisfying classes found in one shard of a grid point."""

    shard_index: int
    num_shards: int
    domain_size: int
    kb_total: int
    classes: Tuple[Tuple[Any, int], ...]


@dataclass(frozen=True)
class PartialCount:
    """The query-satisfying weight found in one class block of a decomposition.

    ``satisfying_kb`` is the *block's* total KB weight (not the full
    decomposition's), so summing both fields over a complete shard set
    reproduces the full ``(satisfying_kb, satisfying_both)`` pair exactly —
    the merge is plain integer addition and therefore Fraction-identical to
    a serial walk.
    """

    shard_index: int
    num_shards: int
    domain_size: int
    satisfying_kb: int
    satisfying_both: int


def compute_shard(unit: WorkUnit) -> Union[PartialDecomposition, PartialCount]:
    """Compute one work unit (this is what runs inside workers).

    Enumeration units stream their block of the outer enumeration;
    evaluation units re-walk their shipped class block for the unit's query.
    """
    counter = _counting.counter_for_work_unit(unit.engine, unit.vocabulary, unit.extra)
    if unit.query is not None:
        block = unit.classes or ()
        block_decomposition = _counting.ClassDecomposition(
            domain_size=unit.domain_size,
            kb_total=sum(weight for _, weight in block),
            classes=tuple(block),
        )
        result = counter.evaluate_query(
            block_decomposition, unit.query, unit.tolerance, program=unit.program
        )
        return PartialCount(
            shard_index=unit.shard_index,
            num_shards=unit.num_shards,
            domain_size=unit.domain_size,
            satisfying_kb=result.satisfying_kb,
            satisfying_both=result.satisfying_both,
        )
    kb_total = 0
    classes: List[Tuple[Any, int]] = []
    for element, weight in counter.iter_kb_classes(
        unit.knowledge_base,
        unit.domain_size,
        unit.tolerance,
        shard=(unit.shard_index, unit.num_shards),
        bounds=unit.bounds,
    ):
        kb_total += weight
        classes.append((element, weight))
    return PartialDecomposition(
        shard_index=unit.shard_index,
        num_shards=unit.num_shards,
        domain_size=unit.domain_size,
        kb_total=kb_total,
        classes=tuple(classes),
    )


def merge_partials(partials: Sequence[PartialDecomposition]) -> ClassDecomposition:
    """Fold per-worker partials back into one decomposition.

    The partials must form a complete shard set for a single grid point;
    concatenating them in shard order reproduces the exact class order of a
    serial enumeration (shards are contiguous index blocks), so a merged
    decomposition is indistinguishable from a serially-materialised one.
    """
    if not partials:
        raise ValueError("cannot merge an empty set of partial decompositions")
    ordered = sorted(partials, key=lambda partial: partial.shard_index)
    num_shards = ordered[0].num_shards
    domain_size = ordered[0].domain_size
    if [partial.shard_index for partial in ordered] != list(range(num_shards)) or any(
        partial.num_shards != num_shards or partial.domain_size != domain_size
        for partial in ordered
    ):
        raise ValueError("partial decompositions do not form a complete shard set")
    classes: List[Tuple[Any, int]] = []
    for partial in ordered:
        classes.extend(partial.classes)
    return ClassDecomposition(
        domain_size=domain_size,
        kb_total=sum(partial.kb_total for partial in ordered),
        classes=tuple(classes),
    )


def merge_counts(partials: Sequence[PartialCount]) -> "_counting.CountResult":
    """Fold per-worker evaluation partials back into one exact count.

    The partials must form a complete shard set over one decomposition's
    classes; both totals are plain integer sums, so the merged
    :class:`~repro.worlds.counting.CountResult` is indistinguishable from a
    serial walk of the full class list.
    """
    if not partials:
        raise ValueError("cannot merge an empty set of partial counts")
    ordered = sorted(partials, key=lambda partial: partial.shard_index)
    num_shards = ordered[0].num_shards
    domain_size = ordered[0].domain_size
    if [partial.shard_index for partial in ordered] != list(range(num_shards)) or any(
        partial.num_shards != num_shards or partial.domain_size != domain_size
        for partial in ordered
    ):
        raise ValueError("partial counts do not form a complete shard set")
    return _counting.CountResult(
        domain_size=domain_size,
        satisfying_kb=sum(partial.satisfying_kb for partial in ordered),
        satisfying_both=sum(partial.satisfying_both for partial in ordered),
    )


class CountingExecutor:
    """Execution backend for exact counting (base class doubles as ``serial``).

    Subclasses override :meth:`run_units` (shard-level fan-out).
    ``dispatches_shards`` is True only for backends whose :meth:`decompose`
    actually sends work units to a pool; the counters consult it to decide
    between the streaming count path and the decompose-then-evaluate path.
    """

    name = "serial"
    dispatches_shards = False

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self._max_workers = max_workers or os.cpu_count() or 1

    @property
    def max_workers(self) -> int:
        return self._max_workers

    # -- fan-out primitives ----------------------------------------------------

    def run_units(self, units: Sequence[WorkUnit]) -> List[Union[PartialDecomposition, PartialCount]]:
        """Compute every work unit, preserving shard order."""
        return [compute_shard(unit) for unit in units]

    # -- grid-point decomposition ----------------------------------------------

    def shard_count(self, total_items: int) -> int:
        """How many shards to split an outer enumeration of ``total_items`` into."""
        if self._max_workers <= 1 or total_items < 2 * MIN_ITEMS_PER_SHARD:
            return 1
        return max(1, min(self._max_workers * OVERSHARD, total_items // MIN_ITEMS_PER_SHARD))

    def plan_units(
        self,
        counter,
        knowledge_base: Formula,
        domain_size: int,
        tolerance: ToleranceVector,
    ) -> List[WorkUnit]:
        """Split one grid point into work units sized for this backend.

        When the counter can estimate per-item cost (placements × KB
        conjuncts for the unary engine), the even index split is replaced by
        cost-weighted bounds so skewed grids balance across workers; the
        shards stay contiguous, so merge order is unaffected.
        """
        total_items = counter.enumeration_size(domain_size) if counter.SHARDABLE else 0
        num_shards = self.shard_count(total_items) if counter.SHARDABLE else 1
        bounds_list: List[Optional[Tuple[int, int]]] = [None] * num_shards
        if num_shards > 1 and total_items <= MAX_WEIGHTED_ITEMS:
            weights = counter.shard_cost_weights(knowledge_base, domain_size)
            if weights is not None:
                bounds_list = list(_counting.weighted_shard_bounds(weights, num_shards))
        return [
            WorkUnit(
                engine=counter.ENGINE,
                vocabulary=counter.vocabulary,
                knowledge_base=knowledge_base,
                domain_size=domain_size,
                tolerance=tolerance,
                extra=counter.cache_key_extra(),
                shard_index=index,
                num_shards=num_shards,
                bounds=bounds_list[index],
            )
            for index in range(num_shards)
        ]

    def decompose(
        self,
        counter,
        knowledge_base: Formula,
        domain_size: int,
        tolerance: ToleranceVector,
    ) -> ClassDecomposition:
        """Materialise a grid point through the counter's cache by fanning out shards.

        The cache protocol runs entirely in the calling process: one caller
        holds the per-key in-flight lock and dispatches shards, everyone else
        is served the merged result (or, for oversized keys, the negative
        sentinel, after which callers recompute concurrently without the
        lock).
        """
        cache = counter.cache
        if cache is None:
            return merge_partials(
                self.run_units(self.plan_units(counter, knowledge_base, domain_size, tolerance))
            )
        key = counter.cache_key(knowledge_base, domain_size, tolerance)
        with cache.computing(key) as found:
            if isinstance(found, ClassDecomposition):
                return found
            value = merge_partials(
                self.run_units(self.plan_units(counter, knowledge_base, domain_size, tolerance))
            )
            if value.num_classes <= _counting.CACHE_CLASS_LIMIT:
                cache.store(key, value)
            elif found is None:
                cache.store_oversized(key)
            return value

    # -- query evaluation -------------------------------------------------------

    def plan_evaluation_units(
        self,
        counter,
        decomposition: ClassDecomposition,
        query: Formula,
        tolerance: ToleranceVector,
        program: Optional[CompiledQuery] = None,
    ) -> List[WorkUnit]:
        """Split one decomposition's class list into evaluation work units.

        The blocks are contiguous, so the merged totals are order-independent
        integer sums.  When the counter can estimate per-class evaluation
        cost (placement size for the unary engine), the even split is
        replaced by cost-weighted bounds so a few heavy classes do not
        serialise the whole walk.  Unlike enumeration sharding there is no
        ``SHARDABLE`` gate: the classes are already materialised, so slicing
        costs nothing for either engine.  ``program`` (a compiled form of
        ``query``, or ``None`` for interpreted evaluation) is shipped
        verbatim with every unit — workers never compile queries themselves.
        """
        num_shards = self.shard_count(decomposition.num_classes)
        bounds_list: Optional[List[Tuple[int, int]]] = None
        if num_shards > 1:
            weights = counter.class_cost_weights(decomposition)
            if weights is not None:
                bounds_list = _counting.weighted_shard_bounds(weights, num_shards)
        units = []
        for index in range(num_shards):
            if bounds_list is not None:
                start, stop = bounds_list[index]
            else:
                start, stop = _counting.shard_bounds(decomposition.num_classes, index, num_shards)
            units.append(
                WorkUnit(
                    engine=counter.ENGINE,
                    vocabulary=counter.vocabulary,
                    knowledge_base=TRUE,  # unused by evaluation units
                    domain_size=decomposition.domain_size,
                    tolerance=tolerance,
                    extra=counter.cache_key_extra(),
                    shard_index=index,
                    num_shards=num_shards,
                    query=query,
                    classes=decomposition.classes[start:stop],
                    program=program,
                )
            )
        return units

    def evaluate(
        self,
        counter,
        decomposition: ClassDecomposition,
        query: Formula,
        tolerance: ToleranceVector,
        program: Any = _counting.AUTO_PROGRAM,
    ) -> "_counting.CountResult":
        """Evaluate a query on a cached decomposition, sharding when it pays.

        Shard-dispatching backends split the class list into blocks and ship
        each block (plus the query and its compiled program, when one exists)
        to the worker pool; inline backends — and decompositions too small
        for :meth:`shard_count` to split — re-walk the classes in-process.
        Either way the result is Fraction-identical to
        :meth:`~repro.worlds.counting._DecomposingCounter.evaluate_query`.

        ``program`` defaults to the :data:`~repro.worlds.counting.AUTO_PROGRAM`
        sentinel ("compile through the counter if enabled"); pass an explicit
        :class:`~repro.worlds.compile.CompiledQuery` to reuse one already in
        hand, or ``None`` to force interpreted evaluation everywhere.
        """
        if program is _counting.AUTO_PROGRAM:
            program = counter.query_program(query)
        if self.dispatches_shards:
            units = self.plan_evaluation_units(
                counter, decomposition, query, tolerance, program=program
            )
            if len(units) > 1:
                return merge_counts(self.run_units(units))
        return counter.evaluate_query(decomposition, query, tolerance, program=program)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release pool resources (idempotent; a no-op for inline backends)."""

    def __enter__(self) -> "CountingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self._max_workers})"


class SerialExecutor(CountingExecutor):
    """Everything inline, single-shard: the reference backend."""

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__(1)

    def shard_count(self, total_items: int) -> int:
        return 1


class ProcessExecutor(CountingExecutor):
    """Shard-level fan-out over a process pool: true multi-core counting.

    Work units are pickled to workers, partial decompositions are pickled
    back, and the merge + cache fold stays in the parent.
    """

    name = "processes"
    dispatches_shards = True

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__(max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def run_units(self, units: Sequence[WorkUnit]) -> List[Union[PartialDecomposition, PartialCount]]:
        if len(units) <= 1 or self._max_workers <= 1:
            return [compute_shard(unit) for unit in units]
        return list(self._ensure_pool().map(compute_shard, units))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


BackendLike = Union[str, CountingExecutor, None]


def make_executor(backend: BackendLike, max_workers: Optional[int] = None) -> CountingExecutor:
    """Build (or pass through) the executor for a backend spec."""
    if isinstance(backend, CountingExecutor):
        return backend
    if backend is None or backend == "serial":
        return SerialExecutor()
    if backend == "processes":
        return ProcessExecutor(max_workers)
    raise ValueError(f"unknown counting backend {backend!r}; expected one of {BACKENDS}")


@contextmanager
def executor_scope(
    backend: BackendLike, max_workers: Optional[int] = None
) -> Iterator[CountingExecutor]:
    """Resolve a backend spec into an executor, closing it on exit only if owned.

    A caller-supplied :class:`CountingExecutor` instance is yielded untouched
    (its owner manages the pool lifetime); a string spec builds a fresh
    executor whose pool is shut down when the scope ends.
    """
    if isinstance(backend, CountingExecutor):
        yield backend
        return
    executor = make_executor(backend, max_workers)
    try:
        yield executor
    finally:
        executor.close()
