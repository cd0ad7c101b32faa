"""E26 — the streaming front-end and the observability layer.

Three gates over real sockets:

* **Identity** — every NDJSON row streamed by ``POST .../stream`` is
  byte-identical (modulo the timing field) to the row ``query_batch`` serves
  for the same request, exact ``Fraction`` diagnostics included.  Streaming
  is a delivery mode, not a different computation.
* **Incrementality** — on a long cold workload the first streamed row
  arrives well before the batch finishes (the row is flushed per answer,
  not buffered until the end).
* **Concurrency** — N clients streaming at once all receive complete,
  ordered batches; the run records aggregate throughput and the server's
  own ``/metrics`` latency histogram into ``BENCH_results.json``, asserting
  the histogram invariant (bucket counts sum to the observation count) and
  counter monotonicity under load.
"""

import json
import threading
import time
import urllib.request

from conftest import record_metric

from repro.server import Client, SessionManager, serve_in_background
from repro.workloads import paper_kbs

DOMAIN_SIZES = (6, 8, 10, 12)
# Distinct formulas over the lottery KB: each row is a separate cold
# enumeration (no memo hits), so per-row cost is roughly uniform — what the
# incrementality gate needs.
STREAM_QUERIES = [
    "Winner(C)",
    "not Winner(C)",
    "Winner(C) and Ticket(C)",
    "Winner(C) or not Ticket(C)",
    "not (Winner(C) and Ticket(C))",
    "Ticket(C) and not Winner(C)",
    "Winner(C) or Winner(C)",
    "not (Winner(C) or not Winner(C))",
]
CONCURRENT_CLIENTS = 4


def _raw_stream_rows(base_url, session_id, requests, timeout=120.0):
    """The raw NDJSON lines (as parsed dicts) with their arrival times."""
    body = json.dumps({"requests": requests}).encode("utf-8")
    request = urllib.request.Request(
        f"{base_url}/v1/sessions/{session_id}/stream",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    rows, arrivals = [], []
    with urllib.request.urlopen(request, timeout=timeout) as response:
        for line in response:
            line = line.strip()
            if line:
                rows.append(json.loads(line.decode("utf-8")))
                arrivals.append(time.perf_counter())
    return rows, arrivals


def test_e26_streamed_rows_are_byte_identical_to_query_batch(benchmark):
    def served():
        manager = SessionManager(domain_sizes=DOMAIN_SIZES)
        with serve_in_background(manager) as server:
            client = Client(server.url)
            session_id = client.open_session(paper_kbs.lottery(5))
            requests = [
                {"query": text, "request_id": f"q{i}"} for i, text in enumerate(STREAM_QUERIES)
            ]
            # Warm once so both surfaces serve from identical cache state.
            client.query_batch(session_id, requests)
            batch = client.call(
                "POST", f"/v1/sessions/{session_id}/query_batch", {"requests": requests}
            )["responses"]
            streamed, _ = _raw_stream_rows(server.url, session_id, requests)
        return batch, streamed

    batch, streamed = benchmark.pedantic(served, rounds=1, iterations=1)

    def frozen(row):
        return json.dumps({**row, "elapsed_ms": 0.0}, sort_keys=True)

    assert len(streamed) == len(STREAM_QUERIES)
    assert [frozen(row) for row in streamed] == [frozen(row) for row in batch]


def _cold_tail_requests():
    """The stream of the incrementality gate: the first query as it was warmed,
    then each later query with its own domain-size schedule.

    A schedule the session has not seen is a different counting grid, so each
    tail row enumerates its new domain size cold instead of re-evaluating the
    warm-up's cached classes.
    """
    requests = [{"query": STREAM_QUERIES[0]}]
    for offset, text in enumerate(STREAM_QUERIES[1:], start=1):
        requests.append({"query": text, "domain_sizes": [*DOMAIN_SIZES[:-1], DOMAIN_SIZES[-1] + offset]})
    return requests


def test_e26_first_row_arrives_before_the_batch_finishes(benchmark):
    def timed_stream():
        manager = SessionManager(domain_sizes=DOMAIN_SIZES)
        with serve_in_background(manager) as server:
            client = Client(server.url)
            session_id = client.open_session(paper_kbs.lottery(5))
            # Warm the first query only: its streamed row costs ~a memo hit,
            # while the remaining seven enumerate a domain size the warm-up
            # did not.  A per-row flush therefore puts the first row on the
            # wire almost immediately; a buffer-until-done implementation
            # would hold it until the cold tail finished.
            client.query(session_id, STREAM_QUERIES[0])
            start = time.perf_counter()
            rows, arrivals = _raw_stream_rows(server.url, session_id, _cold_tail_requests())
        return rows, [arrival - start for arrival in arrivals]

    rows, offsets = benchmark.pedantic(timed_stream, rounds=1, iterations=1)
    assert len(rows) == len(STREAM_QUERIES)
    # The gate's premise: every tail row really enumerated something cold.
    assert all(row["cache_delta"]["misses"] > 0 for row in rows[1:]), [row.get("cache_delta") for row in rows]
    first, total = offsets[0], offsets[-1]
    record_metric("e26_first_row_seconds", round(first, 6))
    record_metric("e26_stream_total_seconds", round(total, 6))
    record_metric("e26_first_row_fraction", round(first / total, 4))
    # The first answer must be on the wire while most of the batch is still
    # computing — the signature of per-row flushing.
    assert first < 0.5 * total, f"first row at {first:.3f}s of {total:.3f}s total"


def test_e26_concurrent_streaming_clients_and_metrics(benchmark):
    def fan_out():
        manager = SessionManager(max_inflight=CONCURRENT_CLIENTS * 2, domain_sizes=DOMAIN_SIZES)
        with serve_in_background(manager) as server:
            client = Client(server.url)
            session_id = client.open_session(paper_kbs.lottery(5))
            client.query_batch(session_id, [{"query": text} for text in STREAM_QUERIES])

            results = [None] * CONCURRENT_CLIENTS

            def run(slot):
                rows, _ = _raw_stream_rows(
                    server.url, session_id, [{"query": text} for text in STREAM_QUERIES]
                )
                results[slot] = rows

            first_scrape = client.call("GET", "/metrics")["metrics"]
            threads = [
                threading.Thread(target=run, args=(slot,)) for slot in range(CONCURRENT_CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            second_scrape = client.call("GET", "/metrics")["metrics"]
        return results, elapsed, first_scrape, second_scrape

    results, elapsed, first_scrape, second_scrape = benchmark.pedantic(
        fan_out, rounds=1, iterations=1
    )

    # Every client got the complete batch, in submission order.
    for rows in results:
        assert rows is not None and len(rows) == len(STREAM_QUERIES)
        assert all("result" in row for row in rows)

    total_rows = CONCURRENT_CLIENTS * len(STREAM_QUERIES)
    record_metric("e26_concurrent_clients", CONCURRENT_CLIENTS)
    record_metric("e26_streamed_rows_per_second", round(total_rows / elapsed, 2))

    # The server's own histogram obeys the bucket invariant and the route
    # counters only ever moved up between the two scrapes.
    latency = second_scrape["repro_http_request_latency_ms"]["values"]
    for row in latency:
        assert sum(bucket["count"] for bucket in row["buckets"]) == row["count"]
    stream_rows = [
        row for row in latency if row["labels"].get("route") == "/v1/sessions/{id}/stream"
    ]
    assert stream_rows, "no latency histogram for the stream route"
    record_metric("e26_stream_route_observations", stream_rows[0]["count"])
    record_metric("e26_stream_route_mean_latency_ms", round(stream_rows[0]["sum"] / stream_rows[0]["count"], 3))

    before = {
        tuple(sorted(row["labels"].items())): row["value"]
        for row in first_scrape.get("repro_http_responses_total", {}).get("values", ())
    }
    for row in second_scrape["repro_http_responses_total"]["values"]:
        key = tuple(sorted(row["labels"].items()))
        assert row["value"] >= before.get(key, 0), f"counter went backwards: {key}"
