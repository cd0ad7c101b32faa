"""End-to-end HTTP tests: every route, every error status, over real sockets.

The load-bearing assertions are the identity ones — a served answer must be
the JSON form of the exact in-process answer, Fraction diagnostics included
— and the backpressure one: a saturated admission gate answers 429 with
``Retry-After`` deterministically (the gate is saturated directly on the
manager, no timing involved).
"""

from __future__ import annotations

import functools
import json
import urllib.request
from contextlib import ExitStack

import pytest
from conftest import CONCURRENT_THREADS, repeated_for_threads, run_concurrently

from repro.core import KnowledgeBase
from repro.logic.vocabulary import Vocabulary
from repro.server import Client, ServerError, SessionManager, kb_payload, serve_in_background
from repro.service import QueryRequest, kb_fingerprint, open_session, result_to_dict
from repro.workloads import paper_kbs

HEP_KB = "Jaun(Eric) and %(Hep(x) | Jaun(x); x) ~=[1] 0.8"
TINY_DOMAINS = (4, 6)
MAX_INFLIGHT = 4


@pytest.fixture(scope="module")
def server():
    manager = SessionManager(max_inflight=MAX_INFLIGHT, domain_sizes=TINY_DOMAINS)
    with serve_in_background(manager) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return Client(server.url)


@pytest.fixture(scope="module")
def hep_session_id(client):
    return client.open_session(HEP_KB)


class TestHealthz:
    def test_reports_ok_and_counters(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        for key in ("sessions", "inflight", "max_inflight", "opened", "rejected"):
            assert key in payload


class TestOpenSession:
    def test_open_returns_the_kb_fingerprint(self, client):
        info = client.open_session_info(HEP_KB)
        assert info["session_id"] == info["fingerprint"]
        assert info["sentences"] == 2  # the top-level conjunction splits

    def test_open_is_idempotent_on_the_fingerprint(self, client):
        first = client.open_session_info("Bird(Tweety) and %(Fly(x) | Bird(x); x) ~=[1] 0.9")
        again = client.open_session_info("Bird(Tweety) and %(Fly(x) | Bird(x); x) ~=[1] 0.9")
        assert first["session_id"] == again["session_id"]
        assert again["created"] is False

    def test_http_statuses_distinguish_create_from_reopen(self, server):
        body = json.dumps({"kb": "Sunny(Today)"}).encode()
        statuses = []
        for _ in range(2):
            request = urllib.request.Request(
                f"{server.url}/v1/sessions",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                statuses.append(response.status)
        assert statuses == [201, 200]

    def test_kb_as_sentence_list(self, client):
        info = client.open_session_info(["Jaun(Eric)", "%(Hep(x) | Jaun(x); x) ~=[1] 0.8"])
        assert info["sentences"] == 2

    def test_kb_as_knowledge_base_object(self, client):
        kb = paper_kbs.hepatitis_simple()
        session_id = client.open_session(kb)
        assert client.describe_session(session_id)["sentences"] == len(kb)

    def test_engine_options_reach_the_session(self, client):
        session_id = client.open_session(
            "Rainy(Today)", engine={"domain_sizes": [4, 6], "memo": False}
        )
        assert client.cache_info(session_id)["memo_maxsize"] is None

    def test_unparseable_kb_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.open_session("this is not a sentence ((")
        assert excinfo.value.status == 400 and excinfo.value.code == "bad-request"

    def test_inconsistent_kb_is_422(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.open_session("P(A) and not P(A)")
        assert excinfo.value.status == 422 and excinfo.value.code == "inconsistent-kb"

    def test_unknown_engine_option_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.open_session("P(A)", engine={"cache": False})
        assert excinfo.value.status == 400
        # The removed threads backend is refused like any unknown backend.
        with pytest.raises(ServerError) as excinfo:
            client.open_session("P(A)", engine={"backend": 'threads'})
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad-request")
        assert "('serial', 'processes')" in excinfo.value.message

    def test_missing_kb_field_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.call("POST", "/v1/sessions", {"knowledge": "P(A)"})
        assert excinfo.value.status == 400


class TestQuery:
    def test_answer_matches_in_process_submit(self, client, hep_session_id):
        served = client.query(hep_session_id, "Hep(Eric)")
        with open_session(HEP_KB, domain_sizes=TINY_DOMAINS) as session:
            local = session.submit("Hep(Eric)")
        assert served.result == local.result
        assert served.solver == local.solver

    def test_counting_answers_are_fraction_identical(self, client, hep_session_id):
        request = QueryRequest(query="Hep(Eric)", method="counting")
        served = client.query(hep_session_id, request)
        with open_session(HEP_KB, domain_sizes=TINY_DOMAINS) as session:
            local = session.submit(request)
        assert served.result == local.result  # exact Fractions in diagnostics

    def test_response_json_is_byte_identical_to_the_codec(self, client, hep_session_id):
        raw = client.call(
            "POST", f"/v1/sessions/{hep_session_id}/query", QueryRequest(query="Hep(Eric)").to_dict()
        )
        from repro.service import BeliefResponse

        decoded = BeliefResponse.from_dict(raw)
        assert decoded.to_dict() == raw
        with open_session(HEP_KB, domain_sizes=TINY_DOMAINS) as session:
            assert raw["result"] == result_to_dict(session.submit("Hep(Eric)").result)

    def test_request_id_and_metadata_echo(self, client, hep_session_id):
        request = QueryRequest(query="Hep(Eric)", request_id="corr-42", metadata={"tenant": "t1"})
        response = client.query(hep_session_id, request)
        assert response.request_id == "corr-42"
        assert response.metadata == {"tenant": "t1"}

    def test_bare_query_strings_are_accepted(self, client, hep_session_id):
        assert client.query(hep_session_id, "Hep(Eric)").value == 0.8

    def test_other_solver_families_answer_through_the_same_route(self, client):
        session_id = client.open_session(paper_kbs.hepatitis_simple())
        response = client.query(session_id, QueryRequest(query="Hep(Eric)", method="reference-class:kyburg"))
        assert response.solver == "reference-class:kyburg"
        assert response.value == 0.8

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.query("deadbeefdeadbeef", "Hep(Eric)")
        assert excinfo.value.status == 404 and excinfo.value.code == "unknown-session"

    def test_unknown_method_is_400(self, client, hep_session_id):
        with pytest.raises(ServerError) as excinfo:
            client.query(hep_session_id, QueryRequest(query="Hep(Eric)", method="oracle"))
        assert excinfo.value.status == 400

    def test_unsupported_family_is_422(self, client):
        session_id = client.open_session("Likes(Clyde, Fred)")
        with pytest.raises(ServerError) as excinfo:
            client.query(session_id, QueryRequest(query="Likes(Clyde, Fred)", method="defaults:system-z"))
        assert excinfo.value.status == 422 and excinfo.value.code == "unsupported-request"

    def test_missing_query_field_is_400(self, client, hep_session_id):
        with pytest.raises(ServerError) as excinfo:
            client.call("POST", f"/v1/sessions/{hep_session_id}/query", {"q": "Hep(Eric)"})
        assert excinfo.value.status == 400

    def test_invalid_json_body_is_400(self, server, hep_session_id):
        request = urllib.request.Request(
            f"{server.url}/v1/sessions/{hep_session_id}/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.call("GET", "/v2/nope")
        assert excinfo.value.status == 404


# Between them, these KBs' queries and negations take the direct-inference,
# maxent, combination and exact-counting routes.
CONCURRENT_KBS = [
    entry for entry in paper_kbs.benchmark_suite() if entry[0] in ("hepatitis_simple", "nixon_diamond", "lottery")
]


class TestConcurrentQueries:
    @pytest.fixture(scope="class")
    def wide_client(self):
        # Admits every concurrent-leg thread at once, unlike the module server.
        manager = SessionManager(max_inflight=CONCURRENT_THREADS, domain_sizes=TINY_DOMAINS)
        with serve_in_background(manager) as running:
            yield Client(running.url)

    @pytest.mark.parametrize("name,factory,query_text", CONCURRENT_KBS, ids=[e[0] for e in CONCURRENT_KBS])
    def test_concurrent_queries_match_in_process_answers(self, wide_client, name, factory, query_text):
        """Handler threads answering one session at once serve the in-process answers."""
        texts = repeated_for_threads([query_text, f"not ({query_text})"])
        session_id = wide_client.open_session(factory())
        served = run_concurrently([functools.partial(wide_client.query, session_id, text) for text in texts])
        with open_session(factory(), domain_sizes=TINY_DOMAINS) as session:
            expected = [session.submit(text).result for text in texts]
        assert [response.result for response in served] == expected


class TestQueryBatch:
    QUERIES = ["Hep(Eric)", "not Hep(Eric)", "Jaun(Eric)", "Hep(Eric)"]

    def test_batch_matches_in_process_submit_many(self, client, hep_session_id):
        served = client.query_batch(hep_session_id, self.QUERIES)
        with open_session(HEP_KB, domain_sizes=TINY_DOMAINS) as session:
            local = session.submit_many(self.QUERIES)
        assert [r.result for r in served] == [r.result for r in local]
        assert [r.solver for r in served] == [r.solver for r in local]

    def test_responses_come_back_in_request_order_with_sequential_ids(self, client):
        session_id = client.open_session("Cough(Ann) and %(Flu(x) | Cough(x); x) ~=[1] 0.6")
        served = client.query_batch(session_id, ["Flu(Ann)", "not Flu(Ann)"])
        assert [r.value for r in served] == pytest.approx([0.6, 0.4])
        numbers = [int(r.request_id.lstrip("q")) for r in served]
        assert numbers == sorted(numbers)

    def test_mixed_strings_and_request_objects(self, client, hep_session_id):
        served = client.query_batch(
            hep_session_id, ["Hep(Eric)", QueryRequest(query="not Hep(Eric)", request_id="mine")]
        )
        assert served[1].request_id == "mine"

    def test_malformed_batch_payload_is_400(self, client, hep_session_id):
        with pytest.raises(ServerError) as excinfo:
            client.call("POST", f"/v1/sessions/{hep_session_id}/query_batch", {"requests": "Hep(Eric)"})
        assert excinfo.value.status == 400


class TestCacheAndDescribe:
    def test_cache_counters_move_with_queries(self, client):
        session_id = client.open_session("Windy(Today)", engine={"domain_sizes": [4, 6]})
        before = client.cache_info(session_id)
        client.query(session_id, QueryRequest(query="Windy(Today)", method="counting"))
        client.query(session_id, QueryRequest(query="Windy(Today)", method="counting"))
        after = client.cache_info(session_id)
        assert after["misses"] > before["misses"]
        assert after["memo_hits"] > before["memo_hits"]
        assert set(after) >= {"hits", "misses", "entries", "hit_rate", "memo_hits", "memo_misses"}

    def test_describe_lists_the_solver_keys(self, client, hep_session_id):
        payload = client.describe_session(hep_session_id)
        assert payload["fingerprint"] == hep_session_id
        assert "random-worlds" in payload["solver_keys"]


class TestBackpressure:
    def test_saturated_gate_answers_429_with_retry_after(self, server, client, hep_session_id):
        manager = server.manager
        with ExitStack() as stack:
            for _ in range(MAX_INFLIGHT):
                stack.enter_context(manager.admit())
            with pytest.raises(ServerError) as excinfo:
                client.query(hep_session_id, "Hep(Eric)")
            assert excinfo.value.status == 429
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after and excinfo.value.retry_after > 0
            with pytest.raises(ServerError) as excinfo:
                client.open_session("Cloudy(Today)")
            assert excinfo.value.status == 429
        # Slots released: both verbs work again.
        assert client.query(hep_session_id, "Hep(Eric)").value == 0.8
        assert client.open_session(HEP_KB) == hep_session_id

    def test_rejections_show_up_in_healthz(self, client):
        assert client.healthz()["rejected"] >= 1


class TestExpiryOverHTTP:
    def test_expired_session_is_404_with_expired_code(self):
        class Clock:
            now = 0.0

            def __call__(self) -> float:
                return self.now

        clock = Clock()
        manager = SessionManager(ttl_seconds=10.0, clock=clock, domain_sizes=TINY_DOMAINS)
        with serve_in_background(manager) as running:
            local_client = Client(running.url)
            session_id = local_client.open_session(HEP_KB)
            assert local_client.query(session_id, "Hep(Eric)").value == 0.8
            clock.now += 11.0
            with pytest.raises(ServerError) as excinfo:
                local_client.query(session_id, "Hep(Eric)")
            assert excinfo.value.status == 404
            assert excinfo.value.code == "expired-session"
            # Re-opening the same KB gives a fresh session under the same id.
            assert local_client.open_session(HEP_KB) == session_id
            assert local_client.query(session_id, "Hep(Eric)").value == 0.8


class TestWirePayloadHelpers:
    def test_kb_payload_round_trips_a_knowledge_base(self):
        kb = paper_kbs.lottery(5)
        payload = kb_payload(kb)
        rebuilt = KnowledgeBase.from_strings(
            *payload["sentences"],
            vocabulary=Vocabulary(
                payload["vocabulary"]["predicates"],
                payload["vocabulary"]["functions"],
                tuple(payload["vocabulary"]["constants"]),
            ),
        )
        assert rebuilt.sentences == kb.sentences
        assert kb_fingerprint(rebuilt) == kb_fingerprint(kb)

    def test_vocabulary_only_kbs_cross_the_wire(self, client):
        kb = paper_kbs.colours_two_way()  # empty KB, vocabulary-only content
        session_id = client.open_session(kb)
        assert session_id == kb_fingerprint(kb)
        response = client.query(session_id, "White(Block)")
        assert response.value == pytest.approx(0.5)  # symmetry over the declared predicate

    def test_kb_payload_passes_text_through(self):
        assert kb_payload(HEP_KB) == HEP_KB
        assert kb_payload(["P(A)", "Q(B)"]) == ["P(A)", "Q(B)"]
