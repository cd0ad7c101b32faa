"""The prepared knowledge base: per-KB state derived once, on first use.

Three things are checked:

* solve accounting — a session solves each maximum-entropy ladder of its KB
  once, whatever the number of queries, and the ladder table stays bounded;
* warm-vs-fresh identity — a session's second answer equals a fresh
  session's first, on every paper KB and a small corpus grid, errors
  included;
* thread safety — concurrent first uses of one session's prepared state give
  the serial answers.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

import repro.maxent.beliefs as maxent_beliefs
from repro.core import KnowledgeBase
from repro.core.prepared import LADDER_LIMIT
from repro.logic.tolerance import default_sequence
from repro.service import QueryRequest, open_session
from repro.workloads import corpus, paper_kbs

# Small enough that the counting-route KBs stay fast; both sides of every
# comparison use the same options.
DOMAIN_SIZES = (4, 6)
LADDER = len(list(default_sequence()))


def _negation(query: str) -> str:
    return query[len("not "):] if query.startswith("not ") else f"not ({query})"


def _row(session, query: str, method: str):
    """A response without its volatile fields, or the error's type and message."""
    try:
        payload = session.submit(QueryRequest(query=query, method=method)).to_dict()
    except Exception as error:  # the comparison covers failures too
        return ("error", type(error).__name__, str(error))
    for volatile in ("elapsed_ms", "cache_delta", "request_id"):
        payload.pop(volatile, None)
    return ("ok", payload)


@pytest.fixture
def solve_calls(monkeypatch):
    """Count the maxent solves, where the ladder looks ``solve`` up."""
    calls = []
    original = maxent_beliefs.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(maxent_beliefs, "solve", counted)
    return calls


# ---------------------------------------------------------------------------
# Solve accounting
# ---------------------------------------------------------------------------


class TestSolveAccounting:
    def test_two_queries_asked_twice_solve_one_ladder(self, solve_calls):
        session = open_session(paper_kbs.hepatitis_simple())
        for _ in range(2):
            for query in ("Hep(Eric)", "Jaun(Eric)"):
                session.submit(QueryRequest(query=query, method="maxent"))
        assert len(solve_calls) == LADDER

    def test_a_tolerance_override_adds_one_ladder(self, solve_calls):
        session = open_session(paper_kbs.hepatitis_simple())
        session.submit(QueryRequest(query="Hep(Eric)", method="maxent"))
        override = (0.1, 0.05, 0.02)
        for query in ("Hep(Eric)", "Jaun(Eric)"):
            session.submit(QueryRequest(query=query, method="maxent", tolerances=override))
        assert len(solve_calls) == LADDER + len(override)

    def test_an_extra_predicate_adds_one_ladder(self, solve_calls):
        session = open_session(paper_kbs.hepatitis_simple())
        session.submit(QueryRequest(query="Hep(Eric)", method="maxent"))
        for query in ("Hep(Eric) or Tall(Eric)", "Tall(Eric)"):
            session.submit(QueryRequest(query=query, method="maxent"))
        assert len(solve_calls) == 2 * LADDER

    def test_the_ladder_table_stays_at_its_bound(self, solve_calls):
        session = open_session(paper_kbs.hepatitis_simple())
        overrides = [(0.1 / (2 + index), 0.01 / (2 + index)) for index in range(LADDER_LIMIT + 3)]
        for override in overrides:
            session.submit(QueryRequest(query="Hep(Eric)", method="maxent", tolerances=override))
        assert len(solve_calls) == 2 * len(overrides)
        assert len(session.knowledge_base.prepared._ladders) == LADDER_LIMIT
        # The most recent ladders stayed; the oldest was evicted and re-solves.
        session.submit(QueryRequest(query="Jaun(Eric)", method="maxent", tolerances=overrides[-1]))
        assert len(solve_calls) == 2 * len(overrides)
        session.submit(QueryRequest(query="Jaun(Eric)", method="maxent", tolerances=overrides[0]))
        assert len(solve_calls) == 2 * len(overrides) + 2

    def test_a_refused_query_solves_nothing(self, solve_calls):
        """The query is checked before any rung is solved."""
        session = open_session(paper_kbs.hepatitis_simple())
        with pytest.raises(Exception, match="does not apply"):
            session.submit(QueryRequest(query="exists x. Hep(x)", method="maxent"))
        assert solve_calls == []

    def test_analytic_state_is_bounded_by_the_kb(self):
        """Queries about constants the KB does not mention add no entries."""
        session = open_session(paper_kbs.tweety_warm_blooded())

        def ask(constant):
            return _row(session, f"WarmBlooded({constant})", "analytic")

        assert ask("Tweety")[0] == "ok"
        assert ask("Bird0")[0] == "error"
        prepared = session.knowledge_base.prepared
        entries = len(prepared._memo)
        for index in range(1, 20):
            assert ask(f"Bird{index}")[0] == "error"
        assert len(prepared._memo) == entries


class TestKnowledgeBaseLifetime:
    def test_construction_prepares_nothing(self):
        kb = paper_kbs.hepatitis_simple()
        assert "_prepared" not in vars(kb)
        prepared = kb.prepared
        assert kb.prepared is prepared

    def test_equality_hash_and_pickling_ignore_prepared_state(self):
        kb = paper_kbs.hepatitis_full()
        twin = paper_kbs.hepatitis_full()
        open_session(kb).submit(QueryRequest(query="Hep(Eric)", method="maxent"))
        assert kb == twin and hash(kb) == hash(twin)
        revived = pickle.loads(pickle.dumps(kb))
        assert "_prepared" not in vars(revived)
        assert revived == kb and revived.statistics() == kb.statistics()


# ---------------------------------------------------------------------------
# Warm vs fresh identity
# ---------------------------------------------------------------------------


def _warm_equals_fresh(factory, queries, methods):
    warm = open_session(factory(), consistency_check=False, domain_sizes=DOMAIN_SIZES)
    asks = [(query, method) for query in queries for method in methods]
    for query, method in asks:
        _row(warm, query, method)
    for query, method in asks:
        fresh = open_session(factory(), consistency_check=False, domain_sizes=DOMAIN_SIZES)
        assert _row(warm, query, method) == _row(fresh, query, method), (query, method)


@pytest.mark.parametrize(
    "name,factory,query", paper_kbs.benchmark_suite(), ids=[entry[0] for entry in paper_kbs.benchmark_suite()]
)
def test_warm_answers_equal_fresh_answers_on_paper_kbs(name, factory, query):
    _warm_equals_fresh(factory, (query, _negation(query)), ("auto", "maxent", "analytic"))


CORPUS_GRID = (
    ("deep_taxonomy", 0, {"depth": 3}),
    ("branching_taxonomy", 14, {"branching": 2}),
    ("diagnosis_network", 0, {"diseases": 1, "symptoms": 2}),
    ("competing_grid", 0, {"classes": 3}),
    ("near_inconsistent", 0, {"pairs": 1, "band": 64}),
)


@pytest.mark.parametrize("family,seed,knobs", CORPUS_GRID, ids=[entry[0] for entry in CORPUS_GRID])
def test_warm_answers_equal_fresh_answers_on_the_corpus(family, seed, knobs):
    scenario = corpus.build(family, seed, **knobs)
    sentences = scenario.knowledge_base.sentences
    vocabulary = scenario.knowledge_base.vocabulary
    _warm_equals_fresh(lambda: KnowledgeBase(sentences, vocabulary=vocabulary), scenario.queries, ("auto", "maxent"))


# ---------------------------------------------------------------------------
# Thread stress
# ---------------------------------------------------------------------------


def test_concurrent_first_uses_give_the_serial_answers():
    factory = paper_kbs.hepatitis_full
    asks = [
        ("Hep(Eric)", "maxent"),
        ("not Hep(Eric)", "maxent"),
        ("Fever(Eric)", "maxent"),
        ("Hep(Eric)", "analytic"),
        ("Hep(Eric)", "auto"),
        ("Jaun(Eric)", "auto"),
    ]
    serial_session = open_session(factory(), domain_sizes=DOMAIN_SIZES)
    serial = {ask: _row(serial_session, *ask) for ask in asks}

    session = open_session(factory(), domain_sizes=DOMAIN_SIZES)
    threads_count = 8
    start = threading.Barrier(threads_count)
    answers = [[] for _ in range(threads_count)]

    def worker(index):
        start.wait()
        for offset in range(len(asks) * 2):
            ask = asks[(index + offset) % len(asks)]
            answers[index].append((ask, _row(session, *ask)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index,), daemon=True) for index in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rows in answers:
        assert len(rows) == len(asks) * 2
        for ask, row in rows:
            assert row == serial[ask], ask
