"""Tests for the world-count cache and the batched query engine.

Covers hit/miss accounting, structural invalidation (KB, tolerance, domain
size, vocabulary), LRU eviction, and — the load-bearing property — exact
``Fraction`` equality of cached versus uncached counts across every knowledge
base the benchmark suite exercises.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import pytest
from conftest import repeated_for_threads, run_concurrently

from repro.core import KnowledgeBase, RandomWorlds
from repro.core.engine import _unary_class_count
from repro.logic.parser import parse
from repro.logic.tolerance import ToleranceVector
from repro.logic.vocabulary import Vocabulary
from repro.worlds.cache import CacheKey, QueryMemoTable, WorldCountCache, query_fingerprint
from repro.worlds.counting import BruteForceCounter, UnaryWorldCounter, make_counter
from repro.worlds.enumeration import world_space_size
from repro.workloads import paper_kbs


TAU = ToleranceVector.uniform(0.1)
TAU_FINER = ToleranceVector.uniform(0.05)


def _hepatitis_setup():
    kb = paper_kbs.hepatitis_simple()
    vocabulary = kb.vocabulary
    return kb.formula, vocabulary


# ---------------------------------------------------------------------------
# Hit/miss accounting and invalidation
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_first_count_misses_then_hits(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(vocabulary, cache=cache)

        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert (cache.misses, cache.hits) == (1, 0)

        counter.count(parse("Jaun(Eric)"), kb_formula, 6, TAU)
        assert (cache.misses, cache.hits) == (1, 1)

        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert (cache.misses, cache.hits) == (1, 2)

    def test_domain_size_is_part_of_the_key(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        counter.count(parse("Hep(Eric)"), kb_formula, 8, TAU)
        assert cache.misses == 2 and len(cache) == 2

    def test_kb_change_invalidates(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        extended = paper_kbs.hepatitis_simple().conjoin("Hep(Eric) or Jaun(Eric)")
        counter.count(parse("Hep(Eric)"), extended.formula, 6, TAU)
        assert cache.misses == 2 and cache.hits == 0

    def test_tolerance_change_invalidates(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU_FINER)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU.with_index(1, 0.2))
        assert cache.misses == 3 and cache.hits == 0

    def test_vocabulary_is_part_of_the_key(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache()
        UnaryWorldCounter(vocabulary, cache=cache).count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        wider = vocabulary.extend(predicates={"Tall": 1})
        UnaryWorldCounter(wider, cache=cache).count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert cache.misses == 2

    def test_clear_and_reset(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert cache.misses == 2  # re-enumerated after clear
        cache.reset_stats()
        info = cache.cache_info()
        assert (info.hits, info.misses) == (0, 0) and info.entries == 1

    def test_lru_eviction(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(maxsize=2)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        for domain_size in (4, 5, 6):
            counter.count(parse("Hep(Eric)"), kb_formula, domain_size, TAU)
        assert len(cache) == 2
        counter.count(parse("Hep(Eric)"), kb_formula, 4, TAU)  # evicted -> miss again
        assert cache.misses == 4

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            WorldCountCache(maxsize=0)
        with pytest.raises(ValueError):
            WorldCountCache(max_total_classes=0)

    def test_total_classes_budget_evicts_old_entries(self):
        kb_formula, vocabulary = _hepatitis_setup()
        probe = UnaryWorldCounter(vocabulary, cache=WorldCountCache())
        per_entry = probe.decompose(kb_formula, 6, TAU).num_classes
        assert per_entry > 0
        # Budget for two entries' worth of classes, far below four entries.
        cache = WorldCountCache(max_total_classes=2 * per_entry)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        for domain_size in (5, 6, 7, 8):
            counter.count(parse("Hep(Eric)"), kb_formula, domain_size, TAU)
        info = cache.cache_info()
        assert info.total_classes <= 3 * per_entry  # N=7/8 entries are larger than N=6's
        assert info.entries < 4
        # the newest entry always survives, even under a tiny budget
        tiny = WorldCountCache(max_total_classes=1)
        survivor = UnaryWorldCounter(vocabulary, cache=tiny)
        survivor.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert len(tiny) == 1

    def test_concurrent_misses_enumerate_once(self):
        from concurrent.futures import ThreadPoolExecutor

        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        enumerations = []
        original = counter.iter_kb_classes

        def counted(*args):
            enumerations.append(1)
            return original(*args)

        counter.iter_kb_classes = counted
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(
                    lambda _: counter.count(parse("Hep(Eric)"), kb_formula, 8, TAU).probability,
                    range(4),
                )
            )
        assert len(set(results)) == 1
        # the per-key in-flight lock serialised the racing misses: one enumeration
        assert len(enumerations) == 1
        assert len(cache) == 1

    def test_oversized_decomposition_streams_and_is_negative_cached(self, monkeypatch):
        from repro.worlds.cache import OVERSIZED

        import repro.worlds.counting as counting_module

        monkeypatch.setattr(counting_module, "CACHE_CLASS_LIMIT", 1)
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        first = counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        # the decomposition itself is too large to store; the key is
        # negative-cached so later queries stream lock-free
        key = counter.cache_key(kb_formula, 6, TAU)
        assert cache.peek(key) is OVERSIZED
        assert cache.cache_info().total_classes == 0  # sentinel costs nothing
        second = counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert cache.misses == 1 and cache.hits == 1  # sentinel served as a hit
        assert first == second
        plain = UnaryWorldCounter(vocabulary).count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert first.probability == plain.probability

    def test_failed_enumeration_releases_inflight_lock(self):
        from repro.worlds.enumeration import EnumerationTooLarge

        kb = paper_kbs.tall_parent()
        cache = WorldCountCache()
        strict = BruteForceCounter(kb.vocabulary, limit=10, cache=cache)
        for _ in range(2):
            with pytest.raises(EnumerationTooLarge):
                strict.count(parse("Tall(Alice)"), kb.formula, 3, TAU)
        assert len(cache._inflight) == 0  # no orphaned per-key locks

    def test_hit_rate(self):
        cache = WorldCountCache()
        assert cache.cache_info().hit_rate == 0.0
        kb_formula, vocabulary = _hepatitis_setup()
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert cache.cache_info().hit_rate == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------


class TestDecomposition:
    def test_decomposition_totals_match_streaming_count(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cached = UnaryWorldCounter(vocabulary, cache=WorldCountCache())
        streaming = UnaryWorldCounter(vocabulary)
        decomposition = cached.decompose(kb_formula, 6, TAU)
        assert decomposition.kb_total == sum(weight for _, weight in decomposition.classes)
        result = streaming.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert decomposition.kb_total == result.satisfying_kb

    def test_query_evaluation_on_cached_classes(self):
        kb_formula, vocabulary = _hepatitis_setup()
        counter = UnaryWorldCounter(vocabulary, cache=WorldCountCache())
        decomposition = counter.decompose(kb_formula, 6, TAU)
        tautology = counter.evaluate_query(decomposition, parse("Hep(Eric) or not Hep(Eric)"), TAU)
        assert tautology.probability == Fraction(1)
        contradiction = counter.evaluate_query(decomposition, parse("Hep(Eric) and not Hep(Eric)"), TAU)
        assert contradiction.probability == Fraction(0)

    def test_brute_force_counter_uses_the_cache(self):
        kb = paper_kbs.tall_parent()
        vocabulary = kb.vocabulary
        cache = WorldCountCache()
        counter = BruteForceCounter(vocabulary, cache=cache)
        first = counter.count(parse("Tall(Alice)"), kb.formula, 3, TAU)
        second = counter.count(parse("not Tall(Alice)"), kb.formula, 3, TAU)
        assert cache.misses == 1 and cache.hits == 1
        assert first.probability + second.probability == Fraction(1)

    def test_unary_and_brute_force_keys_do_not_collide(self):
        kb = KnowledgeBase.from_strings("P(C)")
        cache = WorldCountCache()
        UnaryWorldCounter(kb.vocabulary, cache=cache).count(parse("P(C)"), kb.formula, 3, TAU)
        BruteForceCounter(kb.vocabulary, cache=cache).count(parse("P(C)"), kb.formula, 3, TAU)
        assert cache.misses == 2 and len(cache) == 2

    def test_brute_force_limit_is_part_of_the_key(self):
        # a permissive counter's cached decomposition must not bypass a
        # stricter counter's EnumerationTooLarge guard
        kb = paper_kbs.tall_parent()
        cache = WorldCountCache()
        permissive = BruteForceCounter(kb.vocabulary, limit=None, cache=cache)
        permissive.count(parse("Tall(Alice)"), kb.formula, 2, TAU)
        strict = BruteForceCounter(kb.vocabulary, limit=10, cache=cache)
        from repro.worlds.enumeration import EnumerationTooLarge

        with pytest.raises(EnumerationTooLarge):
            strict.count(parse("Tall(Alice)"), kb.formula, 2, TAU)
        assert cache.misses == 2  # distinct keys, no stale reuse

    def test_cache_key_is_hashable_and_stable(self):
        kb = KnowledgeBase.from_strings("P(C)")
        key_a = CacheKey.for_counter("unary", kb.vocabulary, kb.formula, 3, TAU)
        key_b = CacheKey.for_counter("unary", kb.vocabulary, kb.formula, 3, ToleranceVector.uniform(0.1))
        assert key_a == key_b and hash(key_a) == hash(key_b)


# ---------------------------------------------------------------------------
# The query memo table
# ---------------------------------------------------------------------------


class TestQueryMemo:
    def test_repeated_query_is_served_from_the_memo(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(memo=True)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        first = counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        second = counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert first == second
        info = cache.cache_info()
        # the repeat is answered by the memo and never reaches the
        # decomposition entries (contrast the memo-less accounting tests)
        assert (info.misses, info.hits) == (1, 0)
        assert (info.memo_misses, info.memo_hits, info.memo_entries) == (1, 1, 1)

    def test_memo_answers_are_fraction_identical(self):
        kb_formula, vocabulary = _hepatitis_setup()
        plain = UnaryWorldCounter(vocabulary)
        memoised = UnaryWorldCounter(vocabulary, cache=WorldCountCache(memo=True))
        for query_text in ("Hep(Eric)", "Jaun(Eric)", "Hep(Eric) and Jaun(Eric)"):
            query = parse(query_text)
            expected = plain.count(query, kb_formula, 6, TAU)
            for _ in range(2):
                result = memoised.count(query, kb_formula, 6, TAU)
                assert result == expected
                assert result.probability == expected.probability
                assert isinstance(result.probability, Fraction)

    def test_lru_bound_is_respected(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(memo=True, memo_size=2)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        queries = [parse(q) for q in ("Hep(Eric)", "Jaun(Eric)", "Hep(Eric) or Jaun(Eric)")]
        for query in queries:
            counter.count(query, kb_formula, 6, TAU)
        info = cache.cache_info()
        assert info.memo_entries == 2 and info.memo_maxsize == 2
        # the first query's row was evicted: counting it again re-evaluates
        counter.count(queries[0], kb_formula, 6, TAU)
        assert cache.cache_info().memo_misses == 4

    def test_clear_drops_memo_rows_with_their_parents(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(memo=True)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        assert cache.cache_info().memo_entries == 1
        cache.clear()
        assert cache.cache_info().memo_entries == 0
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        info = cache.cache_info()
        assert info.memo_misses == 2  # re-evaluated after clear, not served stale

    def test_parent_eviction_purges_its_memo_rows(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(maxsize=1, memo=True)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        counter.count(parse("Hep(Eric)"), kb_formula, 5, TAU)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)  # evicts the N=5 entry
        info = cache.cache_info()
        assert info.entries == 1
        assert info.memo_entries == 1  # the N=5 row left with its parent
        counter.count(parse("Hep(Eric)"), kb_formula, 5, TAU)
        assert cache.cache_info().memo_misses == 3  # N=5 was re-evaluated

    def test_kb_change_never_serves_a_stale_answer(self):
        vocabulary = Vocabulary({"P": 1}, {}, ("C",))
        cache = WorldCountCache(memo=True)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        query = parse("P(C)")
        positive = counter.count(query, parse("P(C)"), 4, TAU)
        negative = counter.count(query, parse("not P(C)"), 4, TAU)
        assert positive.probability == Fraction(1)
        assert negative.probability == Fraction(0)  # not the memoised 1
        assert cache.cache_info().memo_entries == 2  # distinct parents, distinct rows

    def test_tolerance_change_is_a_distinct_memo_row(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(memo=True)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU)
        counter.count(parse("Hep(Eric)"), kb_formula, 6, TAU_FINER)
        info = cache.cache_info()
        assert info.memo_misses == 2 and info.memo_hits == 0

    def test_memo_table_validates_maxsize(self):
        with pytest.raises(ValueError):
            QueryMemoTable(maxsize=0)

    def test_concurrent_misses_evaluate_once(self):
        from concurrent.futures import ThreadPoolExecutor

        memo = QueryMemoTable()
        evaluations = []

        def compute():
            evaluations.append(1)
            return 42

        key = (CacheKey("unary", (), None, 1, ()), parse("P(C)"), ())
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: memo.get_or_compute(key, compute), range(8)))
        assert results == [42] * 8
        assert len(evaluations) == 1  # the per-key in-flight lock serialised the race
        assert (memo.misses, memo.hits) == (1, 7)
        assert not memo._inflight

    def test_engine_memo_param_controls_the_private_cache(self):
        memoised = RandomWorlds()
        memoless = RandomWorlds(memo=False)
        sized = RandomWorlds(memo_size=7)
        unbounded = RandomWorlds(memo_size=None)
        assert memoised.world_cache.memo is not None
        assert memoless.world_cache.memo is None
        assert sized.world_cache.memo.maxsize == 7
        assert unbounded.world_cache.memo.maxsize is None
        # a caller-supplied cache brings its own memo configuration
        shared = WorldCountCache()
        assert RandomWorlds(cache=shared).world_cache.memo is None

    def test_memo_traffic_keeps_the_parent_decomposition_warm(self):
        """Regression: a memo hit must refresh the parent's LRU recency.

        Without the touch, a grid point serving pure repeated-query traffic
        looks idle to the decomposition LRU, ages out under eviction
        pressure, and its eviction purges the hot memo rows with it.
        """
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(maxsize=2, memo=True)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        hot = parse("Hep(Eric)")
        counter.count(hot, kb_formula, 4, TAU)  # the hot grid point
        for cold_size in (5, 6, 7):
            counter.count(hot, kb_formula, 4, TAU)  # pure memo traffic
            counter.count(parse("Hep(Eric)"), kb_formula, cold_size, TAU)  # eviction pressure
        # the hot parent survived every eviction round, so its memo row was
        # never purged: exactly one evaluation of the hot query ever happened
        info = cache.cache_info()
        assert cache.peek(counter.cache_key(kb_formula, 4, TAU)) is not None
        assert info.memo_misses == 4  # one per distinct grid point, none repeated
        assert info.memo_hits == 3  # every hot repeat served from the memo


# ---------------------------------------------------------------------------
# Query fingerprints: alpha-equivalence and commutative reordering
# ---------------------------------------------------------------------------


class TestQueryFingerprint:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("Hep(Eric) and Jaun(Eric)", "Jaun(Eric) and Hep(Eric)"),
            ("Hep(Eric) or Jaun(Eric)", "Jaun(Eric) or Hep(Eric)"),
            ("exists x. Hep(x)", "exists y. Hep(y)"),
            ("forall x. (Hep(x) or Jaun(x))", "forall z. (Jaun(z) or Hep(z))"),
            ("exists x. exists y. (Hep(x) and Jaun(y))", "exists u. exists v. (Jaun(v) and Hep(u))"),
            ("Eric = Tom", "Tom = Eric"),
            ("not (Hep(Eric) and Jaun(Eric))", "not (Jaun(Eric) and Hep(Eric))"),
        ],
    )
    def test_equivalent_queries_share_a_fingerprint(self, left, right):
        assert query_fingerprint(parse(left)) == query_fingerprint(parse(right))

    @pytest.mark.parametrize(
        "left,right",
        [
            ("Hep(Eric) and Jaun(Eric)", "Hep(Eric) or Jaun(Eric)"),
            ("Hep(Eric)", "Jaun(Eric)"),
            ("exists x. Hep(x)", "forall x. Hep(x)"),
            ("Hep(Eric)", "not Hep(Eric)"),
            ("Hep(Eric) -> Jaun(Eric)", "Jaun(Eric) -> Hep(Eric)"),  # not commutative
        ],
    )
    def test_distinct_queries_keep_distinct_fingerprints(self, left, right):
        assert query_fingerprint(parse(left)) != query_fingerprint(parse(right))

    def test_proportion_subscripts_are_alpha_renamed(self):
        from fractions import Fraction as F

        from repro.logic.syntax import ApproxEq, Atom, CondProportion, Number, Var

        def statistical(var):
            return ApproxEq(
                CondProportion(Atom("Hep", (Var(var),)), Atom("Jaun", (Var(var),)), (var,)),
                Number(F(4, 5)),
                1,
            )

        assert query_fingerprint(statistical("x")) == query_fingerprint(statistical("y"))

    def test_reordered_queries_share_one_memo_row(self):
        """Regression: commuted conjunctions must not split the memo table."""
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(memo=True)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        first = counter.count(parse("Hep(Eric) and Jaun(Eric)"), kb_formula, 6, TAU)
        second = counter.count(parse("Jaun(Eric) and Hep(Eric)"), kb_formula, 6, TAU)
        third = counter.count(parse("Hep(Eric) and Jaun(Eric)"), kb_formula, 6, TAU)
        assert first == second == third
        info = cache.cache_info()
        assert (info.memo_misses, info.memo_hits, info.memo_entries) == (1, 2, 1)

    def test_alpha_equivalent_queries_share_one_memo_row(self):
        kb_formula, vocabulary = _hepatitis_setup()
        cache = WorldCountCache(memo=True)
        counter = UnaryWorldCounter(vocabulary, cache=cache)
        first = counter.count(parse("exists x. Hep(x)"), kb_formula, 6, TAU)
        second = counter.count(parse("exists y. Hep(y)"), kb_formula, 6, TAU)
        assert first == second
        info = cache.cache_info()
        assert (info.memo_misses, info.memo_hits, info.memo_entries) == (1, 1, 1)


# ---------------------------------------------------------------------------
# Cached versus uncached Fractions on every benchmark KB
# ---------------------------------------------------------------------------

# (name, KB factory, query) for every knowledge base the e01-e18 benchmarks
# exercise, shared with experiment E24 via the workloads module.  The domain
# size is chosen per-KB so the exact count stays small.
BENCHMARK_KBS = paper_kbs.benchmark_suite()

UNARY_CLASS_BUDGET = 5_000
BRUTE_WORLD_BUDGET = 20_000


def _pick_domain_size(vocabulary: Vocabulary) -> int:
    """The largest small domain size whose exact count stays within budget."""
    for domain_size in (10, 8, 6, 5, 4, 3, 2, 1):
        if vocabulary.is_unary:
            if _unary_class_count(vocabulary, domain_size) <= UNARY_CLASS_BUDGET:
                return domain_size
        elif world_space_size(vocabulary, domain_size) <= BRUTE_WORLD_BUDGET:
            return domain_size
    raise AssertionError(f"no feasible domain size for {vocabulary!r}")


@pytest.mark.parametrize("name,factory,query_text", BENCHMARK_KBS, ids=[b[0] for b in BENCHMARK_KBS])
def test_cached_counts_are_fraction_identical(name, factory, query_text):
    kb = factory()
    query = parse(query_text)
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    domain_size = _pick_domain_size(vocabulary)

    cache = WorldCountCache()
    cached_counter = make_counter(vocabulary, cache=cache)
    plain_counter = make_counter(vocabulary)

    uncached = plain_counter.count(query, kb.formula, domain_size, TAU)
    cold = cached_counter.count(query, kb.formula, domain_size, TAU)  # populates the cache
    warm = cached_counter.count(query, kb.formula, domain_size, TAU)  # served from it

    assert cache.misses == 1 and cache.hits == 1
    for cached_result in (cold, warm):
        assert cached_result.satisfying_kb == uncached.satisfying_kb
        assert cached_result.satisfying_both == uncached.satisfying_both
        if uncached.is_defined:
            assert isinstance(cached_result.probability, Fraction)
            assert cached_result.probability == uncached.probability


# ---------------------------------------------------------------------------
# The batch API
# ---------------------------------------------------------------------------


BATCH_QUERIES = ["Winner(C)", "Ticket(C)", "exists x. Winner(x)", "not Winner(C)"]


class TestBatch:
    def test_batch_matches_sequential_uncached(self):
        kb = paper_kbs.lottery(3)
        batch_engine = RandomWorlds(domain_sizes=(6, 8, 10))
        uncached_engine = RandomWorlds(domain_sizes=(6, 8, 10), cache=False)
        batch = batch_engine.degree_of_belief_batch(BATCH_QUERIES, kb)
        sequential = [uncached_engine.degree_of_belief(query, kb) for query in BATCH_QUERIES]
        assert [r.value for r in batch] == [r.value for r in sequential]
        assert [r.method for r in batch] == [r.method for r in sequential]
        assert [r.exists for r in batch] == [r.exists for r in sequential]

    def test_concurrent_batches_match_sequential(self):
        kb = paper_kbs.lottery(3)
        callers = repeated_for_threads([BATCH_QUERIES])
        sequential = RandomWorlds(domain_sizes=(6, 8, 10))
        expected = [sequential.degree_of_belief_batch(queries, kb) for queries in callers]
        shared = RandomWorlds(domain_sizes=(6, 8, 10))
        batches = run_concurrently(
            [functools.partial(shared.degree_of_belief_batch, queries, kb) for queries in callers]
        )
        assert batches == expected
        assert shared.cache_info() == sequential.cache_info()

    def test_batch_shares_one_enumeration(self):
        kb = paper_kbs.lottery(3)
        engine = RandomWorlds(domain_sizes=(6, 8))
        engine.degree_of_belief_batch(BATCH_QUERIES, kb)
        info = engine.cache_info()
        grid_points = 2 * len(tuple(engine.tolerances))
        assert info is not None and info.misses == grid_points
        assert info.hits == grid_points * (len(BATCH_QUERIES) - 1)

    def test_shared_cache_between_engines(self):
        shared = WorldCountCache()
        kb = paper_kbs.lottery(3)
        first = RandomWorlds(domain_sizes=(6, 8), cache=shared)
        second = RandomWorlds(domain_sizes=(6, 8), cache=shared)
        first.degree_of_belief("Winner(C)", kb)
        misses_after_first = shared.misses
        second.degree_of_belief("Winner(C)", kb)
        assert shared.misses == misses_after_first  # second engine re-used every entry
        assert first.world_cache is shared and second.world_cache is shared

    def test_cache_disabled_engine_reports_no_info(self):
        engine = RandomWorlds(cache=False)
        assert engine.world_cache is None and engine.cache_info() is None

    def test_batch_accepts_formula_objects(self):
        kb = paper_kbs.hepatitis_simple()
        engine = RandomWorlds()
        results = engine.degree_of_belief_batch([parse("Hep(Eric)"), "not Hep(Eric)"], kb)
        assert results[0].approximately(0.8)
        assert results[1].approximately(0.2)

    def test_math_sanity_of_unary_class_bound(self):
        # the helper the domain-size picker relies on: exact for compositions
        vocabulary = paper_kbs.hepatitis_simple().vocabulary
        num_atoms = 1 << len(vocabulary.unary_predicates)
        assert _unary_class_count(vocabulary, 4) >= math.comb(4 + num_atoms - 1, num_atoms - 1)
