"""Session API tests: legacy equivalence, lifecycle, overrides, deprecation.

The heart of the file is the equivalence suite: on every benchmark KB, for
every counting backend and with the query memo on and off,
``BeliefSession.submit_many`` must produce exactly the answers — and exactly
the cache counters — of the legacy ``degree_of_belief_batch``.  (Both
surfaces now share one dispatch path; this suite is what keeps that true.)
Its concurrent leg submits the same requests at once from a thread pool, as
the HTTP server's handler threads do, and must answer and count exactly as
submitting them in order does.
"""

from __future__ import annotations

import functools
import warnings

import pytest
from conftest import repeated_for_threads, run_concurrently
from test_worlds_cache import BENCHMARK_KBS

from repro.core import EngineOptions, RandomWorlds, RandomWorldsError
from repro.service import (
    BeliefResponse,
    QueryRequest,
    UnsupportedRequest,
    default_registry,
    open_session,
)
from repro.workloads import paper_kbs
from repro.worlds.counting import InconsistentKnowledgeBase

# Small enough that the counting-path KBs (lottery, lifschitz_names, ...)
# stay fast; both sides of every comparison use the same schedule, so the
# equality statements are independent of the choice.
DOMAIN_SIZES = (4, 6)


# ---------------------------------------------------------------------------
# Session/legacy equivalence on every benchmark KB
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@pytest.mark.parametrize("name,factory,query_text", BENCHMARK_KBS, ids=[b[0] for b in BENCHMARK_KBS])
def test_session_matches_legacy_batch(
    name, factory, query_text, memo, counting_backend, backend_workers, executor_for
):
    kb = factory()
    # A repeat and a negation: exercises the memo row and the evaluate path.
    queries = [query_text, f"not ({query_text})", query_text]

    legacy_engine = RandomWorlds(
        domain_sizes=DOMAIN_SIZES,
        memo=memo,
        backend=executor_for(counting_backend),
        max_workers=backend_workers,
    )
    try:
        expected = legacy_engine.degree_of_belief_batch(queries, kb)
        legacy_error = None
    except RandomWorldsError as error:
        # On a few non-unary KBs the negated query has no computation path;
        # the session surface must then fail identically, not differently.
        expected = None
        legacy_error = str(error)

    session = open_session(
        kb,
        domain_sizes=DOMAIN_SIZES,
        memo=memo,
        backend=executor_for(counting_backend),
        max_workers=backend_workers,
    )
    requests = [QueryRequest(query=text) for text in queries]
    if legacy_error is not None:
        with pytest.raises(RandomWorldsError) as excinfo:
            session.submit_many(requests)
        assert str(excinfo.value) == legacy_error
        return

    responses = session.submit_many(requests)
    assert [r.result for r in responses] == expected
    assert session.cache_info() == legacy_engine.cache_info()
    assert [r.request_id for r in responses] == ["q1", "q2", "q3"]
    assert all(r.solver == "random-worlds" for r in responses)


def _outcome(session, text):
    """The answer to one submit, or the message of its ``RandomWorldsError``."""
    try:
        return session.submit(QueryRequest(query=text)).result
    except RandomWorldsError as error:
        return str(error)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@pytest.mark.parametrize("name,factory,query_text", BENCHMARK_KBS, ids=[b[0] for b in BENCHMARK_KBS])
def test_concurrent_submits_match_serial_submits(name, factory, query_text, memo):
    kb = factory()
    texts = repeated_for_threads([query_text, f"not ({query_text})"])

    serial = open_session(kb, domain_sizes=DOMAIN_SIZES, memo=memo)
    expected = [_outcome(serial, text) for text in texts]

    session = open_session(kb, domain_sizes=DOMAIN_SIZES, memo=memo)
    actual = run_concurrently([functools.partial(_outcome, session, text) for text in texts])
    assert actual == expected
    assert session.cache_info() == serial.cache_info()


# ---------------------------------------------------------------------------
# Session lifecycle and warm state
# ---------------------------------------------------------------------------


class TestSessionLifecycle:
    def test_open_session_fingerprints_once(self):
        session = open_session(paper_kbs.hepatitis_simple())
        assert session.fingerprint == open_session(paper_kbs.hepatitis_simple()).fingerprint
        assert session.fingerprint != open_session(paper_kbs.tweety_fly()).fingerprint

    def test_consistency_check_rejects_contradictory_facts(self):
        with pytest.raises(InconsistentKnowledgeBase):
            open_session("Jaun(Eric) and not Jaun(Eric)")

    def test_consistency_check_rejects_empty_interval_statistic(self):
        kb = paper_kbs.hepatitis_simple().conjoin("0.9 <~[2] %(Hep(x); x)", "%(Hep(x); x) <~[3] 0.1")
        with pytest.raises(InconsistentKnowledgeBase):
            open_session(kb)
        # The check is opt-out for callers that want legacy lenience.
        open_session(kb, consistency_check=False)

    def test_warm_session_reuses_the_cache(self):
        session = open_session(paper_kbs.lottery(5), domain_sizes=DOMAIN_SIZES)
        first = session.submit("Winner(C)")
        second = session.submit("Winner(C)")
        assert first.result == second.result
        assert first.cache_delta is not None and first.cache_delta.misses > 0
        assert second.cache_delta is not None and second.cache_delta.misses == 0
        info = session.cache_info()
        assert info is not None and info.memo_hits > 0

    def test_stream_answers_lazily_in_order(self):
        session = open_session(paper_kbs.hepatitis_simple())
        texts = ["Hep(Eric)", "Jaun(Eric)", "not Hep(Eric)"]
        streamed = list(session.stream(texts))
        assert [r.result for r in streamed] == [session.submit(t).result for t in texts]

    def test_context_manager_closes_owned_engine(self):
        with open_session(paper_kbs.hepatitis_simple(), backend="processes", max_workers=2) as session:
            session.submit("Hep(Eric)")
        # Owned pool released; the engine rebuilds it lazily if reused.
        assert session.engine._owned_executor is None

    def test_bound_engine_is_shared_not_owned(self):
        engine = RandomWorlds(domain_sizes=DOMAIN_SIZES)
        session = open_session(paper_kbs.hepatitis_simple(), engine=engine)
        assert session.engine is engine
        with pytest.raises(ValueError):
            open_session(paper_kbs.hepatitis_simple(), engine=engine, domain_sizes=DOMAIN_SIZES)

    def test_shim_sessions_distinguish_vocabulary_variants(self):
        """KnowledgeBase equality ignores vocabulary; the shim-session map must not.

        Regression: two formula-equal KBs whose vocabularies differ (the
        second carries eight extra predicates, pushing exact counting past
        the unary class limit) must not share a private session — the second
        KB has to fail exactly as it does on a fresh engine.
        """
        from repro.core import KnowledgeBase

        kb1 = KnowledgeBase.from_strings("%(P(x); x) ~=[1] 0.3", "P(C)")
        extra = " and ".join(f"Q{i}(C)" for i in range(8))
        kb2 = kb1.with_vocabulary_of(extra)
        assert kb1 == kb2  # equality ignores the vocabulary, by design

        engine = RandomWorlds()
        assert engine.degree_of_belief("P(C)", kb1, method="counting").value is not None
        with pytest.raises(RandomWorldsError):
            engine.degree_of_belief("P(C)", kb2, method="counting")

    def test_request_id_and_metadata_echo(self):
        session = open_session(paper_kbs.hepatitis_simple())
        response = session.submit(QueryRequest(query="Hep(Eric)", request_id="corr-7", metadata={"k": 1}))
        assert response.request_id == "corr-7"
        assert response.metadata == {"k": 1}


# ---------------------------------------------------------------------------
# Per-request overrides
# ---------------------------------------------------------------------------


class TestRequestOverrides:
    def test_domain_size_override_uses_derived_engine(self):
        session = open_session(paper_kbs.lottery(5), domain_sizes=(8, 12, 16, 20))
        default = session.submit(QueryRequest(query="Winner(C)"))
        overridden = session.submit(QueryRequest(query="Winner(C)", domain_sizes=(4, 6)))
        assert default.result.value == pytest.approx(overridden.result.value, abs=0.05)
        # The derived engine is cached and shares the session cache.
        again = session.submit(QueryRequest(query="Winner(C)", domain_sizes=(4, 6)))
        assert again.result == overridden.result
        assert again.cache_delta is not None and again.cache_delta.misses == 0

    def test_tolerance_override_answers(self):
        session = open_session(paper_kbs.lottery(5), domain_sizes=(4, 6))
        response = session.submit(QueryRequest(query="Winner(C)", tolerances=(0.05, 0.02)))
        assert response.result.value is not None


# ---------------------------------------------------------------------------
# Registry behaviour through the session
# ---------------------------------------------------------------------------


class TestRegistryDispatch:
    def test_unknown_method_raises_value_error(self):
        session = open_session(paper_kbs.hepatitis_simple())
        with pytest.raises(ValueError, match="unknown method"):
            session.submit(QueryRequest(query="Hep(Eric)", method="magic"))

    def test_legacy_method_names_are_aliases(self):
        registry = default_registry()
        assert registry.resolve("auto").key == "random-worlds"
        assert registry.resolve("maxent").key == "random-worlds:maxent"
        assert registry.resolve("counting").key == "random-worlds:counting"

    def test_every_family_shares_the_submit_path(self):
        session = open_session(paper_kbs.tweety_fly())
        for method in ("auto", "reference-class:reichenbach", "reference-class:kyburg", "defaults:system-z"):
            response = session.submit(QueryRequest(query="Fly(Tweety)", method=method))
            assert isinstance(response, BeliefResponse)
            assert response.result.value == 0.0

    def test_defaults_solver_rejects_non_default_kb(self):
        session = open_session(paper_kbs.hepatitis_simple())
        with pytest.raises(UnsupportedRequest):
            session.submit(QueryRequest(query="Hep(Eric)", method="defaults:system-z"))

    def test_defaults_solver_wraps_non_propositional_kbs(self):
        """A binary ground fact about the query constant must surface as the
        documented UnsupportedRequest, not leak NotPropositional."""
        from repro.core import KnowledgeBase

        kb = KnowledgeBase.from_strings("%(Fly(x) | Bird(x); x) ~=[1] 1", "Likes(Tweety, Opus)")
        session = open_session(kb)
        assert "defaults:system-z" not in session.solvers_for("Fly(Tweety)")
        with pytest.raises(UnsupportedRequest):
            session.submit(QueryRequest(query="Fly(Tweety)", method="defaults:system-z"))

    def test_defaults_solvers_memoise_kb_work_per_session(self, monkeypatch):
        """The rule set and Z-ranking are derived from the KB once per session
        (they live on the session KB's prepared state)."""
        from repro.service import registry

        builds = {"rule-set": 0, "ranking": 0}
        kb_rule_set, z_ranking = registry._kb_rule_set, registry.z_ranking

        def counted_rule_set(knowledge_base):
            builds["rule-set"] += 1
            return kb_rule_set(knowledge_base)

        def counted_ranking(rule_set):
            builds["ranking"] += 1
            return z_ranking(rule_set)

        monkeypatch.setattr(registry, "_kb_rule_set", counted_rule_set)
        monkeypatch.setattr(registry, "z_ranking", counted_ranking)
        session = open_session(paper_kbs.tweety_fly())
        for _ in range(3):
            session.submit(QueryRequest(query="Fly(Tweety)", method="defaults:system-z"))
            session.submit(QueryRequest(query="Fly(Tweety)", method="defaults:epsilon"))
        assert builds == {"rule-set": 1, "ranking": 1}

    def test_defaults_solvers_refuse_unsatisfiable_contexts(self):
        """An impossible context vacuously entails everything; the solver must
        answer undecided (None) rather than Pr(query) = Pr(not query) = 1."""
        from repro.core import KnowledgeBase

        kb = KnowledgeBase.from_strings(
            "%(Fly(x) | Bird(x); x) ~=[1] 1",
            "forall x. (Penguin(x) -> not Fly(x))",
            "Penguin(Tweety)",
            "Fly(Tweety)",
        )
        session = open_session(kb, consistency_check=False)
        for method in ("defaults:system-z", "defaults:epsilon"):
            for query in ("Fly(Tweety)", "not Fly(Tweety)"):
                response = session.submit(QueryRequest(query=query, method=method))
                assert response.result.value is None, (method, query)
                assert "unsatisfiable" in response.result.note

    def test_solvers_for_probes_applicability(self):
        session = open_session(paper_kbs.tweety_fly())
        keys = session.solvers_for("Fly(Tweety)")
        assert "defaults:system-z" in keys and "reference-class:kyburg" in keys
        hep = open_session(paper_kbs.hepatitis_simple())
        assert "defaults:system-z" not in hep.solvers_for("Hep(Eric)")

    def test_reference_class_vacuous_interval_is_preserved(self):
        session = open_session(paper_kbs.nixon_diamond())
        response = session.submit(QueryRequest(query="Pacifist(Nixon)", method="reference-class:reichenbach"))
        assert response.result.interval == (0.0, 1.0)
        assert response.result.diagnostics["vacuous"] is True


# ---------------------------------------------------------------------------
# The threads backend and the bare max_workers spelling are gone
# ---------------------------------------------------------------------------


class TestLegacyThreadsRemoval:
    KB = "Jaun(Eric) and %(Hep(x) | Jaun(x); x) ~=[1] 0.8"

    def test_constructor_spelling_raises(self):
        with pytest.raises(ValueError, match='backend="processes"'):
            RandomWorlds(max_workers=3)
        with pytest.raises(ValueError, match="unknown counting backend 'threads'"):
            open_session(self.KB, backend='threads')

    def test_engine_options_spelling_raises(self):
        with pytest.raises(ValueError, match='backend="processes"'):
            EngineOptions(max_workers=3)
        with pytest.raises(ValueError, match="unknown counting backend 'threads'"):
            EngineOptions(backend='threads')

    def test_no_spurious_deprecation_warnings_remain(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with RandomWorlds(backend="processes", max_workers=3) as engine:
                engine.degree_of_belief_batch(["Hep(Eric)", "Jaun(Eric)"], self.KB)
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []


# ---------------------------------------------------------------------------
# Per-request cache attribution under concurrency (regression)
# ---------------------------------------------------------------------------


class TestCacheDeltaAttribution:
    def test_concurrent_submit_does_not_steal_cache_deltas(self):
        """A blocked request must not absorb another request's cache traffic.

        Regression: ``cache_delta`` used to be computed from before/after
        ``cache_info()`` snapshots, so a request that overlapped another
        request's cold enumeration reported *its* hits and misses.  The gate
        solver below does no cache work at all while a cold counting query
        runs to completion on the main thread — its delta must be all zeros.
        """
        import threading

        from repro.core import BeliefResult
        from repro.service import CacheDelta, Solver, build_default_registry

        started = threading.Event()
        release = threading.Event()

        def gate_solve(request, session):
            started.set()
            assert release.wait(timeout=30), "test deadlock: gate never released"
            return BeliefResult(value=1.0, method="gate")

        registry = build_default_registry()
        registry.register(Solver(key="gate", solve=gate_solve, supports=lambda request, kb: True))
        session = open_session(paper_kbs.lottery(5), registry=registry, domain_sizes=DOMAIN_SIZES)

        gate_response = []
        thread = threading.Thread(
            target=lambda: gate_response.append(session.submit(QueryRequest(query="Winner(C)", method="gate")))
        )
        thread.start()
        assert started.wait(timeout=30)
        try:
            # A cold enumeration completes entirely inside the gate's window.
            cold = session.submit("Winner(C)")
            assert cold.cache_delta is not None and cold.cache_delta.misses > 0
        finally:
            release.set()
            thread.join(timeout=30)
        assert gate_response and gate_response[0].cache_delta == CacheDelta()


# ---------------------------------------------------------------------------
# Streaming with per-request error responses
# ---------------------------------------------------------------------------


class TestStreamErrorHandling:
    def test_poisoned_query_mid_batch_yields_error_response(self):
        from repro.service import ErrorResponse

        session = open_session(paper_kbs.hepatitis_simple())
        requests = [
            QueryRequest(query="Hep(Eric)", request_id="q1"),
            QueryRequest(query="Hep(Eric", request_id="q2"),  # unbalanced: parse error
            QueryRequest(query="not Hep(Eric)", request_id="q3"),
        ]
        responses = list(session.stream(requests))
        assert [type(r).__name__ for r in responses] == [
            "BeliefResponse", "ErrorResponse", "BeliefResponse",
        ]
        assert [r.request_id for r in responses] == ["q1", "q2", "q3"]
        poisoned = responses[1]
        assert isinstance(poisoned, ErrorResponse)
        assert poisoned.code == "bad-request"
        assert poisoned.message
        # The healthy neighbours answered exactly as they would solo.
        assert responses[0].result == session.submit("Hep(Eric)").result
        assert responses[2].result == session.submit("not Hep(Eric)").result

    def test_on_error_raise_propagates(self):
        session = open_session(paper_kbs.hepatitis_simple())
        stream = session.stream(["Hep(Eric)", "Hep(Eric"], on_error="raise")
        assert next(stream).result.value is not None
        with pytest.raises(Exception):
            next(stream)

    def test_unknown_on_error_mode_rejected(self):
        session = open_session(paper_kbs.hepatitis_simple())
        with pytest.raises(ValueError, match="on_error"):
            list(session.stream(["Hep(Eric)"], on_error="ignore"))

    def test_unexpected_errors_propagate_even_when_responding(self):
        from repro.service import Solver, build_default_registry

        class Boom(RuntimeError):
            pass

        def exploding_solve(request, session):
            raise Boom("not a request-scoped failure")

        registry = build_default_registry()
        registry.register(Solver(key="boom", solve=exploding_solve, supports=lambda request, kb: True))
        session = open_session(paper_kbs.hepatitis_simple(), registry=registry)
        with pytest.raises(Boom):
            list(session.stream([QueryRequest(query="Hep(Eric)", method="boom")]))
