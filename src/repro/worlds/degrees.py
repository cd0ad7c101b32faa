"""Degrees of belief by exact world counting and limit analysis.

``degree_of_belief_by_counting`` is the reference implementation of the
random-worlds definition (Section 4.2): it computes ``Pr^tau_N(phi | KB)``
exactly on a grid of domain sizes and tolerance vectors and estimates the
double limit.  It is slower than the max-entropy and closed-form engines in
:mod:`repro.core` but makes no structural assumptions beyond the vocabulary
being unary (or tiny, for the brute-force path).

All entry points accept an optional :class:`~repro.worlds.cache.WorldCountCache`
and a ``backend`` (``"serial"`` / ``"processes"``, or a
:class:`~repro.worlds.parallel.CountingExecutor` instance).  With a cache, the
KB class decomposition for each ``(N, tau)`` grid point is enumerated at most
once across every query sharing it; a cache constructed with ``memo=True``
further memoises the finished counts per ``(grid point, canonical query)`` so
identical repeated queries are O(1).  The ``processes`` backend shards each
grid point's enumeration — and, on warm caches with large decompositions, each
query's *evaluation* — across worker processes for true multi-core counting.
Answers are ``Fraction``-identical across backends and memo settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from ..logic.syntax import Formula
from ..logic.tolerance import ToleranceVector, default_sequence
from ..logic.vocabulary import Vocabulary
from .cache import WorldCountCache
from .counting import make_counter
from .limits import DoubleLimitEstimate, estimate_double_limit
from .parallel import BackendLike, executor_scope


DEFAULT_DOMAIN_SIZES: Tuple[int, ...] = (8, 12, 16, 24, 32)


@dataclass(frozen=True)
class CountingCurve:
    """``Pr^tau_N`` as a function of N for one tolerance vector."""

    tolerance: ToleranceVector
    domain_sizes: Tuple[int, ...]
    probabilities: Tuple[Optional[Fraction], ...]

    def defined_points(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple(
            (n, p) for n, p in zip(self.domain_sizes, self.probabilities) if p is not None
        )


@dataclass(frozen=True)
class CountingReport:
    """Full diagnostics for a counting-based degree-of-belief computation."""

    query: Formula
    knowledge_base: Formula
    curves: Tuple[CountingCurve, ...]
    limit: DoubleLimitEstimate

    @property
    def value(self) -> Optional[float]:
        return self.limit.value

    @property
    def exists(self) -> bool:
        return self.limit.exists


def probability_at(
    query: Formula,
    knowledge_base: Formula,
    vocabulary: Vocabulary,
    domain_size: int,
    tolerance: ToleranceVector,
    prefer_unary: bool = True,
    cache: Optional[WorldCountCache] = None,
    compile_queries: bool = True,
) -> Fraction:
    """Exact ``Pr^tau_N(query | KB)`` at a single domain size."""
    counter = make_counter(
        vocabulary, prefer_unary=prefer_unary, cache=cache, compile_queries=compile_queries
    )
    return counter.probability(query, knowledge_base, domain_size, tolerance)


def counting_curve(
    query: Formula,
    knowledge_base: Formula,
    vocabulary: Vocabulary,
    domain_sizes: Sequence[int],
    tolerance: ToleranceVector,
    prefer_unary: bool = True,
    cache: Optional[WorldCountCache] = None,
    max_workers: Optional[int] = None,
    backend: BackendLike = None,
    compile_queries: bool = True,
) -> CountingCurve:
    """``Pr^tau_N`` for several domain sizes at a fixed tolerance vector.

    ``backend`` selects the execution strategy: ``"processes"`` keeps this
    loop serial but shards each grid point's enumeration (and each warm
    query's evaluation over a large cached decomposition) across worker
    processes, and ``"serial"`` (or ``None``) runs everything inline.
    ``max_workers`` sets the process-pool width.  The counter's cache (when
    given) is thread-safe and serialises concurrent misses per grid point, so
    each decomposition is enumerated exactly once whichever backend runs; a
    cache with an attached :class:`~repro.worlds.cache.QueryMemoTable`
    additionally serves repeated queries against it in O(1).
    """
    with executor_scope(backend, max_workers) as executor:
        counter = make_counter(
            vocabulary,
            prefer_unary=prefer_unary,
            cache=cache,
            executor=executor if executor.dispatches_shards else None,
            compile_queries=compile_queries,
        )
        results = [counter.count(query, knowledge_base, n, tolerance) for n in domain_sizes]
    probabilities = tuple(result.probability if result.is_defined else None for result in results)
    return CountingCurve(tolerance, tuple(domain_sizes), probabilities)


def degree_of_belief_by_counting(
    query: Formula,
    knowledge_base: Formula,
    vocabulary: Vocabulary,
    domain_sizes: Sequence[int] = DEFAULT_DOMAIN_SIZES,
    tolerances: Iterable[ToleranceVector] | None = None,
    prefer_unary: bool = True,
    cache: Optional[WorldCountCache] = None,
    max_workers: Optional[int] = None,
    backend: BackendLike = None,
    compile_queries: bool = True,
) -> CountingReport:
    """Estimate ``Pr_infinity(query | KB)`` from exact finite counts.

    Parameters
    ----------
    query, knowledge_base:
        Closed L≈ sentences.
    vocabulary:
        The vocabulary Φ over which worlds are formed (it may be larger than
        the symbols mentioned; the degree of belief is insensitive to adding
        symbols, which is itself checked in the test-suite).
    domain_sizes:
        Increasing sequence of N values for the inner limit.
    tolerances:
        Decreasing sequence of tolerance vectors for the outer limit; defaults
        to :func:`repro.logic.tolerance.default_sequence`.
    cache:
        Optional shared :class:`WorldCountCache`; repeated queries against the
        same KB then skip the class enumeration at every grid point.
    max_workers:
        Process-pool width for the ``"processes"`` backend.
    backend:
        ``"serial"`` / ``"processes"`` or a
        :class:`~repro.worlds.parallel.CountingExecutor`; one executor (and
        process pool) is shared across the whole tolerance ladder.
    compile_queries:
        Compile each query into a flat per-decomposition program before
        walking classes (the default); ``False`` forces the interpreted
        recursive evaluator everywhere.  Answers are Fraction-identical
        either way.
    """
    tolerance_list = list(tolerances) if tolerances is not None else list(default_sequence())
    curves: List[CountingCurve] = []
    inner_sequences: List[Tuple[float, Sequence[float], Sequence[int]]] = []
    with executor_scope(backend, max_workers) as executor:
        for tolerance in tolerance_list:
            curve = counting_curve(
                query,
                knowledge_base,
                vocabulary,
                domain_sizes,
                tolerance,
                prefer_unary,
                cache=cache,
                max_workers=max_workers,
                backend=executor,
                compile_queries=compile_queries,
            )
            curves.append(curve)
            defined = curve.defined_points()
            if defined:
                sizes, values = zip(*defined)
                inner_sequences.append(
                    (tolerance.max_tolerance, [float(v) for v in values], list(sizes))
                )
    limit = estimate_double_limit(inner_sequences)
    return CountingReport(query, knowledge_base, tuple(curves), limit)
