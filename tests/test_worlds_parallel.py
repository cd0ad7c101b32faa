"""Cross-backend equality suite and tests for the counting executors.

The load-bearing property of the backend abstraction is that ``serial`` and
``processes`` are observationally identical: exact ``Fraction`` counts, class
order, and ``CacheInfo`` totals must not depend on which backend (or how many
workers) produced them, nor on whether the counts race from many threads on
one shared cache, as the HTTP server's handler threads count for a session.
This file also holds the regression tests for the cache-concurrency fixes this
abstraction leans on: the refcounted in-flight lock, the clear()-vs-in-flight
interaction, and the negative cache for oversized decompositions.

Run ``pytest tests/test_worlds_parallel.py --backend processes
--backend-workers 2`` to pin the suite to one backend (CI does this in a
dedicated matrix leg).
"""

from __future__ import annotations

import functools
import pickle
import threading
from fractions import Fraction

import pytest
from conftest import repeated_for_threads, run_concurrently
from test_worlds_cache import BENCHMARK_KBS, _pick_domain_size

from repro.core import RandomWorlds
from repro.logic.parser import parse
from repro.logic.syntax import Not
from repro.logic.tolerance import ToleranceVector
from repro.logic.vocabulary import Vocabulary
from repro.workloads import paper_kbs
from repro.worlds.cache import OVERSIZED, CacheKey, WorldCountCache
from repro.worlds.counting import (
    BruteForceCounter,
    UnaryWorldCounter,
    counter_for_work_unit,
    make_counter,
    shard_bounds,
)
from repro.worlds.degrees import counting_curve, degree_of_belief_by_counting
from repro.worlds.parallel import (
    PartialDecomposition,
    ProcessExecutor,
    SerialExecutor,
    WorkUnit,
    compute_shard,
    executor_scope,
    make_executor,
    merge_counts,
    merge_partials,
)

TAU = ToleranceVector.uniform(0.1)

# The shared_process_executor / executor_for fixtures live in conftest.py so
# the metamorphic suite shares this suite's session-wide process pool.


# ---------------------------------------------------------------------------
# Shard machinery
# ---------------------------------------------------------------------------


class TestShardMachinery:
    def test_shard_bounds_partition_the_range_exactly(self):
        for total in (0, 1, 7, 64, 1000):
            for num_shards in (1, 2, 3, 7, 16):
                blocks = [shard_bounds(total, i, num_shards) for i in range(num_shards)]
                covered = [index for start, stop in blocks for index in range(start, stop)]
                assert covered == list(range(total))

    def test_shard_bounds_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 2, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, -1, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, 0, 0)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_sharded_unary_enumeration_matches_serial_order(self, num_shards):
        kb = paper_kbs.hepatitis_simple()
        counter = UnaryWorldCounter(kb.vocabulary)
        serial = list(counter.iter_kb_classes(kb.formula, 8, TAU))
        sharded = []
        for index in range(num_shards):
            sharded.extend(
                counter.iter_kb_classes(kb.formula, 8, TAU, shard=(index, num_shards))
            )
        assert sharded == serial  # same classes, same weights, same order

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_brute_force_enumeration_matches_serial_order(self, num_shards):
        kb = paper_kbs.tall_parent()
        counter = BruteForceCounter(kb.vocabulary)
        serial = list(counter.iter_kb_classes(kb.formula, 2, TAU))
        sharded = []
        for index in range(num_shards):
            sharded.extend(
                counter.iter_kb_classes(kb.formula, 2, TAU, shard=(index, num_shards))
            )
        assert sharded == serial

    def test_work_units_are_picklable_and_computable(self):
        kb = paper_kbs.hepatitis_simple()
        unit = WorkUnit(
            engine="unary",
            vocabulary=kb.vocabulary,
            knowledge_base=kb.formula,
            domain_size=6,
            tolerance=TAU,
            shard_index=0,
            num_shards=2,
        )
        revived = pickle.loads(pickle.dumps(unit))
        partial = compute_shard(revived)
        assert isinstance(partial, PartialDecomposition)
        assert pickle.loads(pickle.dumps(partial)) == partial

    def test_merged_partials_equal_the_serial_decomposition(self):
        kb = paper_kbs.hepatitis_simple()
        counter = UnaryWorldCounter(kb.vocabulary)
        serial = counter.decompose(kb.formula, 8, TAU)
        units = [
            WorkUnit("unary", kb.vocabulary, kb.formula, 8, TAU, (), index, 3)
            for index in range(3)
        ]
        merged = merge_partials([compute_shard(unit) for unit in units])
        assert merged == serial

    def test_merge_rejects_incomplete_or_mixed_shard_sets(self):
        def partial(index, num_shards, domain_size=6):
            return PartialDecomposition(index, num_shards, domain_size, 0, ())

        with pytest.raises(ValueError):
            merge_partials([])
        with pytest.raises(ValueError):
            merge_partials([partial(0, 2)])  # shard 1 missing
        with pytest.raises(ValueError):
            merge_partials([partial(0, 2), partial(1, 3)])  # mixed shard counts
        with pytest.raises(ValueError):
            merge_partials([partial(0, 2), partial(1, 2, domain_size=7)])  # mixed N

    def test_counter_for_work_unit_restores_the_brute_force_limit(self):
        kb = paper_kbs.tall_parent()
        counter = counter_for_work_unit("brute-force", kb.vocabulary, ("limit", 10))
        assert isinstance(counter, BruteForceCounter)
        from repro.worlds.enumeration import EnumerationTooLarge

        with pytest.raises(EnumerationTooLarge):
            list(counter.iter_kb_classes(kb.formula, 3, TAU, shard=(0, 2)))

    def test_counter_for_work_unit_rejects_unknown_engines(self):
        with pytest.raises(ValueError):
            counter_for_work_unit("quantum", paper_kbs.tall_parent().vocabulary, ())


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class TestExecutors:
    def test_make_executor_resolves_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("processes", 2), ProcessExecutor)
        assert isinstance(make_executor(None), SerialExecutor)
        existing = SerialExecutor()
        assert make_executor(existing) is existing

    def test_executor_scope_closes_owned_pools_only(self):
        kb = paper_kbs.hepatitis_simple()
        units = [WorkUnit("unary", kb.vocabulary, kb.formula, 6, TAU, (), index, 2) for index in range(2)]
        with executor_scope("processes", 2) as executor:
            executor.run_units(units)
            assert executor._pool is not None
        assert executor._pool is None  # owned: closed on exit
        external = ProcessExecutor(2)
        external.run_units(units)
        with executor_scope(external) as passed_through:
            assert passed_through is external
        assert external._pool is not None  # caller-owned: left running
        external.close()

    def test_serial_executor_never_shards(self):
        executor = SerialExecutor()
        assert executor.shard_count(10_000_000) == 1
        assert not executor.dispatches_shards

    def test_shard_count_scales_with_items_and_workers(self):
        executor = ProcessExecutor(max_workers=2)
        assert executor.shard_count(10) == 1  # too small to be worth dispatching
        assert executor.shard_count(10_000) == 8  # 2 workers * OVERSHARD
        assert 1 <= executor.shard_count(150) <= 2  # bounded by items per shard
        executor.close()

    def test_brute_force_grid_points_are_never_split(self):
        # islice sharding would reconstruct every skipped World, so the
        # executor plans brute-force points as one unit regardless of size.
        kb = paper_kbs.elephant_zookeeper()  # binary predicate: brute force
        counter = BruteForceCounter(kb.vocabulary, limit=None)
        executor = ProcessExecutor(max_workers=4)
        units = executor.plan_units(counter, kb.formula, 3, TAU)
        assert len(units) == 1
        executor.close()

    def test_batch_reuses_a_caller_supplied_process_executor(self, monkeypatch):
        import repro.worlds.parallel as parallel_module

        # Even lottery(3)'s small grid points split into shards, so the
        # caller's pool really does the work.
        monkeypatch.setattr(parallel_module, "MIN_ITEMS_PER_SHARD", 1)
        kb = paper_kbs.lottery(3)
        queries = ["Winner(C)", "Ticket(C)", "not Winner(C)"]
        shared = ProcessExecutor(max_workers=2)
        engine = RandomWorlds(domain_sizes=(6, 8), backend=shared)
        expected = RandomWorlds(domain_sizes=(6, 8)).degree_of_belief_batch(queries, kb)
        batch = engine.degree_of_belief_batch(queries, kb)
        assert [r.value for r in batch] == [r.value for r in expected]
        assert shared._pool is not None  # the caller's pool did the fan-out...
        engine.close()
        assert shared._pool is not None  # ...and survives the engine
        shared.close()

    def test_oversized_waiters_are_released_before_streaming(self):
        """Waiters queued behind the first oversized enumeration must not
        serialise their own enumerations on the in-flight lock once the
        sentinel lands."""
        from repro.worlds.cache import ClassDecomposition

        cache = WorldCountCache()
        key = _key()
        first_computing = threading.Event()
        release_first = threading.Event()
        rendezvous = threading.Barrier(2, timeout=5)
        errors = []

        def first():
            with cache.computing(key) as found:
                assert found is None
                first_computing.set()
                assert release_first.wait(5)
                cache.store_oversized(key)  # learned mid-stream: too big

        def waiter():
            with cache.computing(key) as found:
                assert not isinstance(found, ClassDecomposition)
                try:
                    # both waiters must be "enumerating" at the same time
                    rendezvous.wait()
                except threading.BrokenBarrierError as error:  # pragma: no cover
                    errors.append(error)
                    raise

        t1 = threading.Thread(target=first)
        t1.start()
        assert first_computing.wait(5)
        waiters = [threading.Thread(target=waiter) for _ in range(2)]
        for thread in waiters:
            thread.start()  # both queue on the in-flight lock
        release_first.set()
        t1.join(5)
        for thread in waiters:
            thread.join(10)
        assert not errors, "queued waiters streamed one at a time under the lock"
        assert not cache._inflight

    def test_engine_close_is_idempotent_and_lazy(self):
        engine = RandomWorlds(domain_sizes=(6, 8), backend="processes", max_workers=2)
        engine.close()  # nothing started yet
        with engine:
            result = engine.degree_of_belief("Winner(C)", paper_kbs.lottery(3))
            assert result.value == pytest.approx(1 / 3, abs=1e-3)
        engine.close()

    @pytest.mark.parametrize("unknown", ['gpu', 'threads'])
    def test_engine_rejects_unknown_backend(self, unknown):
        with pytest.raises(ValueError, match="unknown counting backend"):
            RandomWorlds(backend=unknown)
        with pytest.raises(ValueError):
            make_executor(unknown)


# ---------------------------------------------------------------------------
# Cross-backend equality: every benchmark KB x query
# ---------------------------------------------------------------------------


def _assert_match_reference(results, reference) -> None:
    for result in results:
        assert result.satisfying_kb == reference.satisfying_kb
        assert result.satisfying_both == reference.satisfying_both
        if reference.is_defined:
            assert isinstance(result.probability, Fraction)
            assert result.probability == reference.probability


@pytest.mark.parametrize(
    "name,factory,query_text", BENCHMARK_KBS, ids=[entry[0] for entry in BENCHMARK_KBS]
)
def test_backend_counts_match_serial_reference(
    name, factory, query_text, counting_backend, executor_for
):
    """Counts, Fractions and CacheInfo totals are backend-independent."""
    kb = factory()
    query = parse(query_text)
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    domain_size = _pick_domain_size(vocabulary)

    reference = make_counter(vocabulary).count(query, kb.formula, domain_size, TAU)

    executor = executor_for(counting_backend)
    cache = WorldCountCache()
    counter = make_counter(
        vocabulary,
        cache=cache,
        executor=executor if executor.dispatches_shards else None,
    )
    cold = counter.count(query, kb.formula, domain_size, TAU)
    warm = counter.count(query, kb.formula, domain_size, TAU)

    _assert_match_reference((cold, warm), reference)
    info = cache.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # identical totals on every backend


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@pytest.mark.parametrize(
    "name,factory,query_text", BENCHMARK_KBS, ids=[entry[0] for entry in BENCHMARK_KBS]
)
def test_concurrent_counts_match_serial_reference(name, factory, query_text, memo):
    """Counts racing from many threads on one cache match the serial reference.

    A query and its negation are counted at once, each repeated so every
    thread has a job.  The in-flight locks make the cache and memo totals
    those of a serial run: one enumeration, and with the memo one evaluation
    per distinct query.
    """
    kb = factory()
    query = parse(query_text)
    queries = [query, Not(query)]
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    domain_size = _pick_domain_size(vocabulary)

    reference_counter = make_counter(vocabulary)
    references = [reference_counter.count(each, kb.formula, domain_size, TAU) for each in queries]

    cache = WorldCountCache(memo=memo)
    counter = make_counter(vocabulary, cache=cache)
    jobs = repeated_for_threads(list(range(len(queries))))
    results = run_concurrently(
        [functools.partial(counter.count, queries[job], kb.formula, domain_size, TAU) for job in jobs]
    )

    for job, result in zip(jobs, results):
        _assert_match_reference([result], references[job])
    info = cache.cache_info()
    if memo:
        assert (info.misses, info.hits) == (1, len(queries) - 1)
        assert (info.memo_misses, info.memo_hits, info.memo_entries) == (
            len(queries),
            len(jobs) - len(queries),
            len(queries),
        )
    else:
        assert (info.misses, info.hits) == (1, len(jobs) - 1)


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_engine_batch_identical_across_backends(backend, backend_workers):
    """The batch API returns identical answers and cache totals per backend."""
    kb = paper_kbs.lottery(3)
    queries = ["Winner(C)", "Ticket(C)", "exists x. Winner(x)", "not Winner(C)"]
    reference_engine = RandomWorlds(domain_sizes=(6, 8), cache=False)
    reference = [reference_engine.degree_of_belief(query, kb) for query in queries]

    with RandomWorlds(domain_sizes=(6, 8), backend=backend, max_workers=backend_workers) as engine:
        batch = engine.degree_of_belief_batch(queries, kb)
        info = engine.cache_info()

    assert [r.value for r in batch] == [r.value for r in reference]
    assert [r.method for r in batch] == [r.method for r in reference]
    assert [r.exists for r in batch] == [r.exists for r in reference]
    # the miss total equals the number of enumerations: one per (N, tau) grid
    # point, no matter the backend or interleaving
    grid_points = 2 * len(tuple(reference_engine.tolerances))
    assert info.misses == grid_points
    assert info.hits == grid_points * (len(queries) - 1)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
def test_engine_answers_identical_under_concurrent_calls(memo):
    """One engine answering from many threads at once matches a serial engine.

    Answers and every ``CacheInfo`` total equal those of the same calls made
    in order.
    """
    kb = paper_kbs.lottery(3)
    queries = repeated_for_threads(["Winner(C)", "Ticket(C)", "exists x. Winner(x)", "not Winner(C)"])
    serial_engine = RandomWorlds(domain_sizes=(6, 8), memo=memo)
    expected = [serial_engine.degree_of_belief(query, kb) for query in queries]

    engine = RandomWorlds(domain_sizes=(6, 8), memo=memo)
    results = run_concurrently([functools.partial(engine.degree_of_belief, query, kb) for query in queries])

    assert results == expected
    assert engine.cache_info() == serial_engine.cache_info()


def test_counting_curve_backends_agree(executor_for, counting_backend):
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric)")
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    serial = counting_curve(query, kb.formula, vocabulary, (6, 8, 10), TAU)
    other = counting_curve(
        query,
        kb.formula,
        vocabulary,
        (6, 8, 10),
        TAU,
        backend=executor_for(counting_backend),
    )
    assert other.probabilities == serial.probabilities


def test_counting_curves_agree_under_concurrent_calls():
    """Curves counted at once on one shared cache equal a cache-less curve."""
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric)")
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    serial = counting_curve(query, kb.formula, vocabulary, (6, 8, 10), TAU)
    cache = WorldCountCache(memo=True)
    # Half the curves walk the domain sizes backwards, so the threads also
    # race for the grid points in opposite orders.
    schedules = repeated_for_threads([(6, 8, 10), (10, 8, 6)])
    curves = run_concurrently(
        [
            functools.partial(counting_curve, query, kb.formula, vocabulary, sizes, TAU, cache=cache)
            for sizes in schedules
        ]
    )
    for sizes, curve in zip(schedules, curves):
        by_size = dict(zip(sizes, curve.probabilities))
        assert tuple(by_size[n] for n in (6, 8, 10)) == serial.probabilities
    info = cache.cache_info()
    assert (info.misses, info.memo_misses) == (3, 3)  # one enumeration per domain size


def test_degree_of_belief_by_counting_processes_backend(shared_process_executor):
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric)")
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    serial = degree_of_belief_by_counting(query, kb.formula, vocabulary, domain_sizes=(8, 12, 16))
    parallel = degree_of_belief_by_counting(
        query,
        kb.formula,
        vocabulary,
        domain_sizes=(8, 12, 16),
        backend=shared_process_executor,
    )
    assert parallel.value == serial.value
    assert parallel.exists == serial.exists
    for serial_curve, parallel_curve in zip(serial.curves, parallel.curves):
        assert parallel_curve.probabilities == serial_curve.probabilities


# ---------------------------------------------------------------------------
# Evaluation sharding: every benchmark KB, forced shard dispatch, memo on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,factory,query_text", BENCHMARK_KBS, ids=[entry[0] for entry in BENCHMARK_KBS]
)
def test_eval_sharding_matches_serial_reference(
    name, factory, query_text, counting_backend, executor_for, monkeypatch
):
    """Sharded warm evaluation + memo reproduce the serial Fractions and counters.

    ``MIN_ITEMS_PER_SHARD`` is forced to 1 so even the small benchmark
    decompositions genuinely split into multiple evaluation work units on the
    process backend (instead of falling back to the inline walk), and the
    memo counters must come out identical on every backend.
    """
    import repro.worlds.parallel as parallel_module

    monkeypatch.setattr(parallel_module, "MIN_ITEMS_PER_SHARD", 1)
    kb = factory()
    query = parse(query_text)
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    domain_size = _pick_domain_size(vocabulary)

    reference = make_counter(vocabulary).count(query, kb.formula, domain_size, TAU)

    executor = executor_for(counting_backend)
    cache = WorldCountCache(memo=True)
    counter = make_counter(
        vocabulary,
        cache=cache,
        executor=executor if executor.dispatches_shards else None,
    )
    cold = counter.count(query, kb.formula, domain_size, TAU)
    warm = counter.count(query, kb.formula, domain_size, TAU)  # memo O(1) hit

    _assert_match_reference((cold, warm), reference)
    info = cache.cache_info()
    # deterministic on every backend: one enumeration, one evaluation, one
    # memo row; the repeat never reaches the decomposition entries at all
    assert (info.misses, info.hits) == (1, 0)
    assert (info.memo_misses, info.memo_hits, info.memo_entries) == (1, 1, 1)


def test_evaluation_units_split_and_merge_exactly(shared_process_executor, monkeypatch):
    """Forced evaluation shards partition the class list and sum to the serial count."""
    import repro.worlds.parallel as parallel_module

    monkeypatch.setattr(parallel_module, "MIN_ITEMS_PER_SHARD", 1)
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric) or Jaun(Eric)")
    counter = UnaryWorldCounter(kb.vocabulary, cache=WorldCountCache())
    decomposition = counter.decompose(kb.formula, 8, TAU)
    serial = counter.evaluate_query(decomposition, query, TAU)

    units = shared_process_executor.plan_evaluation_units(counter, decomposition, query, TAU)
    assert len(units) > 1
    assert sum(len(unit.classes) for unit in units) == decomposition.num_classes
    partials = [compute_shard(unit) for unit in units]
    merged = merge_counts(partials)
    assert merged == serial
    # per-shard kb weights partition the decomposition's total exactly
    assert sum(partial.satisfying_kb for partial in partials) == decomposition.kb_total


def test_evaluate_query_shard_blocks_partition_the_walk():
    kb = paper_kbs.hepatitis_simple()
    counter = UnaryWorldCounter(kb.vocabulary, cache=WorldCountCache())
    decomposition = counter.decompose(kb.formula, 8, TAU)
    query = parse("Hep(Eric)")
    full = counter.evaluate_query(decomposition, query, TAU)
    for num_shards in (1, 2, 3, 5):
        blocks = [
            counter.evaluate_query(decomposition, query, TAU, shard=(index, num_shards))
            for index in range(num_shards)
        ]
        assert sum(block.satisfying_kb for block in blocks) == full.satisfying_kb
        assert sum(block.satisfying_both for block in blocks) == full.satisfying_both


def test_merge_counts_rejects_incomplete_or_mixed_shard_sets():
    from repro.worlds.parallel import PartialCount

    def partial(index, num_shards, domain_size=6):
        return PartialCount(index, num_shards, domain_size, 0, 0)

    with pytest.raises(ValueError):
        merge_counts([])
    with pytest.raises(ValueError):
        merge_counts([partial(0, 2)])  # shard 1 missing
    with pytest.raises(ValueError):
        merge_counts([partial(0, 2), partial(1, 3)])  # mixed shard counts
    with pytest.raises(ValueError):
        merge_counts([partial(0, 2), partial(1, 2, domain_size=7)])  # mixed N


def test_evaluation_work_units_are_picklable(shared_process_executor):
    kb = paper_kbs.hepatitis_simple()
    counter = UnaryWorldCounter(kb.vocabulary, cache=WorldCountCache())
    decomposition = counter.decompose(kb.formula, 6, TAU)
    units = shared_process_executor.plan_evaluation_units(
        counter, decomposition, parse("Hep(Eric)"), TAU
    )
    for unit in units:
        revived = pickle.loads(pickle.dumps(unit))
        assert compute_shard(revived) == compute_shard(unit)


def test_engine_batch_memo_counters_identical_across_backends(backend_workers):
    """Memo counters, like the decomposition counters, are backend-independent."""
    kb = paper_kbs.lottery(3)
    queries = ["Winner(C)", "Ticket(C)", "Winner(C)", "not Winner(C)", "Ticket(C)"]
    infos = {}
    for backend in ("serial", "processes"):
        with RandomWorlds(domain_sizes=(6, 8), backend=backend, max_workers=backend_workers) as engine:
            engine.degree_of_belief_batch(queries, kb)
            infos[backend] = engine.cache_info()
    assert infos["serial"] == infos["processes"]
    grid_points = 2 * len(tuple(RandomWorlds(domain_sizes=(6, 8)).tolerances))
    distinct = 3
    info = infos["serial"]
    assert info.memo_misses == distinct * grid_points
    assert info.memo_hits == (len(queries) - distinct) * grid_points


# ---------------------------------------------------------------------------
# In-flight lock refcounting (regression + stress)
# ---------------------------------------------------------------------------


def _key(tag: str = "k") -> CacheKey:
    return CacheKey(engine=tag, vocabulary=(), knowledge_base=None, domain_size=1, tolerance=())


class TestInflightRefcount:
    def test_finisher_does_not_strand_queued_waiters(self):
        """Regression for the computing() pop race.

        Thread A computes and exits *without storing* while thread B is
        queued on the same in-flight lock.  Pre-fix, A popped the lock from
        the table, so a later thread C ``setdefault``-ed a fresh lock and
        enumerated concurrently with B.  Post-fix the entry survives until
        the last waiter leaves: C must queue behind B and, because B stores
        its result, C is served it instead of computing.
        """
        from repro.worlds.cache import ClassDecomposition

        cache = WorldCountCache()
        key = _key()
        a_inside = threading.Event()
        a_release = threading.Event()
        b_inside = threading.Event()
        b_release = threading.Event()
        c_entered = threading.Event()
        outcomes = {}

        def thread_a():
            with cache.computing(key) as found:
                assert found is None
                a_inside.set()
                assert a_release.wait(5)
                # exits without storing (e.g. a failed/oversized enumeration)

        def thread_b():
            with cache.computing(key) as found:
                assert found is None  # A stored nothing, so B computes
                b_inside.set()
                assert b_release.wait(5)
                cache.store(key, ClassDecomposition(1, 1, ()))

        def thread_c():
            with cache.computing(key) as found:
                outcomes["c_found"] = found
                c_entered.set()

        ta = threading.Thread(target=thread_a)
        tb = threading.Thread(target=thread_b)
        ta.start()
        assert a_inside.wait(5)
        tb.start()  # B queues on the in-flight lock behind A
        deadline = threading.Event()
        for _ in range(5000):  # wait until B is registered as a waiter
            if any(entry.waiters == 2 for entry in list(cache._inflight.values())):
                break
            deadline.wait(0.001)
        a_release.set()
        ta.join(5)
        assert b_inside.wait(5)  # B took over the computation
        tc = threading.Thread(target=thread_c)
        tc.start()  # pre-fix: fresh lock, C computes concurrently with B
        if c_entered.wait(0.5):
            # C got in while B was still computing: only legitimate if it was
            # served a value.  Pre-fix it slipped in with found=None.
            assert outcomes["c_found"] is not None
        b_release.set()
        tb.join(5)
        tc.join(5)
        # C must have been served B's stored decomposition, not a None that
        # would have let it re-enumerate concurrently.
        assert outcomes["c_found"] is not None
        assert not cache._inflight  # fully drained

    def test_clear_leaves_inflight_computations_alone(self):
        """Regression: clear() used to wipe _inflight under live computations."""
        cache = WorldCountCache()
        key = _key()
        computing = threading.Event()
        release = threading.Event()
        overlaps = []

        def first():
            with cache.computing(key) as found:
                assert found is None
                computing.set()
                assert release.wait(5)

        def second():
            with cache.computing(key) as found:
                # pre-fix, clear() dropped the in-flight entry so this ran
                # concurrently with first(); post-fix it waits its turn
                overlaps.append(computing.is_set() and not release.is_set())
                assert found is None

        t1 = threading.Thread(target=first)
        t1.start()
        assert computing.wait(5)
        cache.clear()  # must not break the in-flight protocol
        t2 = threading.Thread(target=second)
        t2.start()
        # give t2 a moment: it must be blocked on the in-flight lock
        t2.join(0.2)
        assert t2.is_alive(), "second caller should be queued, not computing"
        release.set()
        t1.join(5)
        t2.join(5)
        assert overlaps == [False]
        assert not cache._inflight

    def test_stress_many_threads_one_enumeration_per_key(self):
        """Stress the refcounted protocol: N threads x M keys x R rounds."""
        from repro.worlds.cache import ClassDecomposition

        cache = WorldCountCache()
        computed = []
        computed_lock = threading.Lock()
        num_threads, num_keys, rounds = 8, 4, 5
        barrier = threading.Barrier(num_threads, timeout=10)

        def worker():
            for round_index in range(rounds):
                barrier.wait()
                for key_index in range(num_keys):
                    key = _key(f"{round_index}:{key_index}")

                    def compute(key_index=key_index):
                        with computed_lock:
                            computed.append(key_index)
                        return ClassDecomposition(1, 1, ())

                    cache.get_or_compute(key, compute)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(computed) == num_keys * rounds  # exactly one enumeration per key
        assert not cache._inflight  # no leaked in-flight entries


# ---------------------------------------------------------------------------
# Oversized negative cache (regression)
# ---------------------------------------------------------------------------


class TestOversizedNegativeCache:
    def test_oversized_queries_stream_concurrently_without_the_lock(self, monkeypatch):
        """Regression: a batch over an oversized key used to serialise.

        Two threads counting an oversized grid point must both be inside the
        enumeration at the same time.  Pre-fix, the second thread queued on
        the per-key in-flight lock for the full duration of the first
        enumeration, so the rendezvous below timed out.
        """
        import repro.worlds.counting as counting_module

        monkeypatch.setattr(counting_module, "CACHE_CLASS_LIMIT", 1)
        kb = paper_kbs.hepatitis_simple()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(kb.vocabulary, cache=cache)
        query = parse("Hep(Eric)")

        # learn that the key is oversized (stores the negative sentinel)
        expected = counter.count(query, kb.formula, 6, TAU)
        assert cache.peek(counter.cache_key(kb.formula, 6, TAU)) is OVERSIZED

        rendezvous = threading.Barrier(2, timeout=5)
        original = counter.iter_kb_classes
        errors = []

        def rendezvous_iter(*args, **kwargs):
            try:
                rendezvous.wait()  # both threads must be enumerating at once
            except threading.BrokenBarrierError as error:  # pragma: no cover
                errors.append(error)
                raise
            return original(*args, **kwargs)

        counter.iter_kb_classes = rendezvous_iter
        results = []

        def run():
            results.append(counter.count(query, kb.formula, 6, TAU))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not errors, "oversized queries serialised on the in-flight lock"
        assert len(results) == 2
        assert all(result == expected for result in results)

    def test_executor_decompose_negative_caches_oversized_keys(
        self, monkeypatch, shared_process_executor
    ):
        import repro.worlds.counting as counting_module

        monkeypatch.setattr(counting_module, "CACHE_CLASS_LIMIT", 1)
        kb = paper_kbs.hepatitis_simple()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(
            kb.vocabulary, cache=cache, executor=shared_process_executor
        )
        serial_reference = UnaryWorldCounter(kb.vocabulary).decompose(kb.formula, 6, TAU)
        first = counter.decompose(kb.formula, 6, TAU)
        assert first == serial_reference
        assert cache.peek(counter.cache_key(kb.formula, 6, TAU)) is OVERSIZED
        second = counter.decompose(kb.formula, 6, TAU)
        assert second == serial_reference


# ---------------------------------------------------------------------------
# Vocabulary fingerprint order-independence (regression)
# ---------------------------------------------------------------------------


class TestVocabularyFingerprint:
    def test_constant_merge_order_does_not_change_the_fingerprint(self):
        from repro.worlds.cache import vocabulary_fingerprint

        first = Vocabulary({"P": 1}, {}, ("B", "A"))
        second = Vocabulary({"P": 1}, {}, ("A", "B"))
        assert vocabulary_fingerprint(first) == vocabulary_fingerprint(second)

    def test_merge_orders_share_cache_entries(self):
        # Regression: equal vocabularies whose constants arrived in different
        # orders used to fingerprint differently and never share entries.
        kb = parse("P(A) or P(B)")
        query = parse("P(A)")
        one_way = Vocabulary({"P": 1}, {}, ("A", "B"))
        other_way = Vocabulary({"P": 1}, {}, ("B", "A"))

        cache = WorldCountCache()
        UnaryWorldCounter(one_way, cache=cache).count(query, kb, 4, TAU)
        UnaryWorldCounter(other_way, cache=cache).count(query, kb, 4, TAU)
        assert (cache.misses, cache.hits) == (1, 1)  # second merge order hit the first's entry
