"""Recorders: capture live serving traffic as a replayable trace.

Two wrappers, one per serving surface: :class:`RecordingClient` proxies a
:class:`repro.server.client.Client` (so the trace sees exactly what went
over the wire), :class:`RecordingSession` proxies an in-process
:class:`~repro.service.session.BeliefSession`.  Both append
:class:`~repro.traffic.trace.TraceEvent` rows — with timestamps relative
to the recorder's start — into a shared :class:`TraceRecorder`, which many
wrappers (one per tenant) may feed concurrently.

Recorded requests are captured *as sent*: a request submitted without an
explicit ``request_id`` is recorded without one, and the id the session
assigned is visible in the recorded response — replaying such a trace
serially against a fresh target reproduces the identical ids, which is
what the round-trip tests pin.  Synthesized traces carry caller-chosen ids
instead, so their identity survives concurrent replay too.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..service.messages import BeliefResponse, ErrorResponse, QueryRequest
from ..service.session import BeliefSession
from ..statics.runtime import named_lock
from .trace import TraceEvent

__all__ = ["RecordingClient", "RecordingSession", "TraceRecorder", "record_script"]

ResponseRow = Union[BeliefResponse, ErrorResponse]


class TraceRecorder:
    """An append-only event sink shared by any number of recording wrappers.

    ``clock`` is injectable (monotonic seconds); timestamps are recorded in
    milliseconds relative to the recorder's construction, so a trace always
    starts near ``at_ms=0`` no matter when the recording began.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._start = clock()
        self._events: List[TraceEvent] = []
        self._lock = named_lock("TraceRecorder._lock")

    def now_ms(self) -> float:
        return (self._clock() - self._start) * 1000.0

    def record(self, kind: str, tenant: str, session: str, **payload: Any) -> TraceEvent:
        """Append one event stamped with the current relative time."""
        event = TraceEvent(
            kind=kind, tenant=tenant, at_ms=self.now_ms(), session=session, payload=payload
        )
        with self._lock:
            self._events.append(event)
        return event

    def events(self) -> List[TraceEvent]:
        """The recorded events so far, in ``at_ms`` order."""
        with self._lock:
            events = list(self._events)
        return sorted(events, key=lambda event: event.at_ms)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def _as_request(request: Any) -> QueryRequest:
    if isinstance(request, QueryRequest):
        return request
    if isinstance(request, dict):
        return QueryRequest.from_dict(request)
    return QueryRequest(query=request)


def _request_dicts(requests: Sequence[Any]) -> List[Dict[str, Any]]:
    return [_as_request(request).to_dict() for request in requests]


class RecordingClient:
    """A :class:`~repro.server.client.Client` proxy that records every verb.

    Mirrors ``open_session`` / ``open_session_info`` / ``query`` /
    ``query_batch`` / ``stream`` and answers exactly what the wrapped
    client answers; each call additionally lands in the recorder as one
    trace event carrying this wrapper's ``tenant`` label.
    """

    def __init__(self, client: Any, recorder: TraceRecorder, *, tenant: str = "default"):
        self.client = client
        self.recorder = recorder
        self.tenant = tenant

    def open_session_info(self, knowledge_base: Any, **options: Any) -> Dict[str, Any]:
        from ..server.client import kb_payload

        payload = kb_payload(knowledge_base)
        info = self.client.open_session_info(knowledge_base, **options)
        extra = {key: value for key, value in options.items() if value is not None}
        self.recorder.record("open", self.tenant, info["session_id"], kb=payload, **extra)
        return info

    def open_session(self, knowledge_base: Any, **options: Any) -> str:
        return self.open_session_info(knowledge_base, **options)["session_id"]

    def query(self, session_id: str, request: Any) -> BeliefResponse:
        response = self.client.query(session_id, request)
        self.recorder.record(
            "query",
            self.tenant,
            session_id,
            request=_as_request(request).to_dict(),
            response=response.to_dict(),
        )
        return response

    def query_batch(self, session_id: str, requests: Sequence[Any]) -> List[BeliefResponse]:
        responses = self.client.query_batch(session_id, requests)
        self.recorder.record(
            "query_batch",
            self.tenant,
            session_id,
            requests=_request_dicts(requests),
            responses=[response.to_dict() for response in responses],
        )
        return responses

    def stream(self, session_id: str, requests: Sequence[Any]) -> Iterator[ResponseRow]:
        """Stream through the wrapped client, recording rows as they arrive.

        The stream event is appended when the iterator is exhausted (its
        timestamp marks the stream's completion), carrying every row —
        including mid-stream ``ErrorResponse`` rows — in arrival order.
        """
        requests = list(requests)
        rows: List[Dict[str, Any]] = []
        for row in self.client.stream(session_id, requests):
            rows.append(row.to_dict())
            yield row
        self.recorder.record(
            "stream", self.tenant, session_id, requests=_request_dicts(requests), responses=rows
        )


def record_script(
    script: Sequence[TraceEvent],
    target: Any,
    *,
    recorder: Optional[TraceRecorder] = None,
) -> List[TraceEvent]:
    """Execute a script trace against a target, recording every answer.

    Walks the script in order — serially, so session-assigned request ids
    (when the script omits them) come out deterministic — through one
    :class:`RecordingClient` per tenant sharing a single recorder, and
    returns the recorded trace: the same workload, now carrying responses
    the replayer can verify against.  Recorded session references are the
    ids the *target* assigned (the recorded trace is self-consistent).
    """
    recorder = TraceRecorder() if recorder is None else recorder
    clients: Dict[str, RecordingClient] = {}
    session_map: Dict[str, str] = {}
    for event in script:
        client = clients.get(event.tenant)
        if client is None:
            client = clients[event.tenant] = RecordingClient(target, recorder, tenant=event.tenant)
        if event.kind == "open":
            if event.session not in session_map:
                engine = event.payload.get("engine")
                session_map[event.session] = client.open_session(
                    event.payload["kb"], engine=dict(engine) if engine else None
                )
            continue
        session_id = session_map.get(event.session, event.session)
        if event.kind == "query":
            client.query(session_id, QueryRequest.from_dict(event.payload["request"]))
            continue
        requests = [QueryRequest.from_dict(row) for row in event.payload.get("requests", ())]
        if event.kind == "query_batch":
            client.query_batch(session_id, requests)
        else:
            for _ in client.stream(session_id, requests):
                pass
    return recorder.events()


class RecordingSession:
    """A :class:`~repro.service.session.BeliefSession` proxy that records.

    The ``open`` event is recorded at construction (the session already
    exists), with the KB in its lossless wire form; ``submit`` /
    ``submit_many`` / ``stream`` record one event each.  The session
    reference is the KB fingerprint — the same id an HTTP
    :class:`~repro.server.manager.SessionManager` would assign.
    """

    def __init__(self, session: BeliefSession, recorder: TraceRecorder, *, tenant: str = "default"):
        from ..server.client import kb_payload

        self.session = session
        self.recorder = recorder
        self.tenant = tenant
        recorder.record("open", tenant, session.fingerprint, kb=kb_payload(session.knowledge_base))

    def submit(self, request: Any) -> BeliefResponse:
        response = self.session.submit(request)
        self.recorder.record(
            "query",
            self.tenant,
            self.session.fingerprint,
            request=_as_request(request).to_dict(),
            response=response.to_dict(),
        )
        return response

    def submit_many(self, requests: Sequence[Any]) -> List[BeliefResponse]:
        responses = self.session.submit_many(requests)
        self.recorder.record(
            "query_batch",
            self.tenant,
            self.session.fingerprint,
            requests=_request_dicts(list(requests)),
            responses=[response.to_dict() for response in responses],
        )
        return responses

    def stream(self, requests: Iterable[Any], *, on_error: str = "respond") -> Iterator[ResponseRow]:
        requests = list(requests)
        rows: List[Dict[str, Any]] = []
        for row in self.session.stream(requests, on_error=on_error):
            rows.append(row.to_dict())
            yield row
        self.recorder.record(
            "stream",
            self.tenant,
            self.session.fingerprint,
            requests=_request_dicts(requests),
            responses=rows,
        )
