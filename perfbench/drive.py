"""The closed-loop runners: set up a workload, then time whole rounds of it.

A serve workload runs the program's threaded HTTP server
(``serve_in_background``) on an ephemeral port in this process and issues
the round's calls in order from one client thread through the program's
``Client``, one connection per call, each call waiting for the previous
one.  ``cold_answers`` runs in process: each operation parses the KB
sentences, opens a session with default engine options, asks one query and
closes the session.

A phase repeats whole rounds until ``seconds`` of round time have passed
(at least one round), so every percentile and every check covers the same
operations in the same proportions, whatever the speed of the host or of
the program.  Each round's answers are checked right after the round,
outside the timed time, and then dropped, so memory does not grow with the
number of rounds.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.knowledge_base import KnowledgeBase
from repro.server import Client, SessionManager, kb_payload, serve_in_background
from repro.service import QueryRequest, open_session


@dataclass
class Phase:
    """What one timed phase did (round time only; checks are not timed)."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rounds: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    answered: int = 0
    # serve: per answered call, its latency minus its rows' session-reported elapsed_ms
    overhead_ms: List[float] = field(default_factory=list)

    @property
    def requests_per_s(self) -> float:
        return self.answered / self.wall_s


def _timed_rounds(seconds: float, run_round, check_round) -> Phase:
    """Run whole rounds until ``seconds`` of round time have passed.

    ``run_round(phase, records)`` runs one round and appends what it
    returned to ``records``; ``check_round(records)`` checks them, untimed.
    """
    phase = Phase()
    while True:
        records: List[Any] = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        run_round(phase, records)
        phase.wall_s += time.perf_counter() - wall0
        phase.cpu_s += time.process_time() - cpu0
        phase.rounds += 1
        check_round(records)
        if phase.wall_s >= seconds:
            return phase


class ServeRunner:
    """One server, its sessions and a client, for one serve workload."""

    SETUP_REPEATS = 3

    def __init__(self, workload):
        self.workload = workload
        self._stack = contextlib.ExitStack()
        self.client: Optional[Client] = None
        self.session_ids: List[str] = []

    def setup(self) -> float:
        """Start the server, open every KB, answer every distinct pair once.

        Returns the wall seconds it took (package import excluded)."""
        start = time.perf_counter()
        manager = SessionManager(max_sessions=len(self.workload.scenarios) + 2)
        server = self._stack.enter_context(serve_in_background(manager))
        self.client = Client(server.url)
        self.session_ids = [
            self.client.open_session(kb_payload(scenario.knowledge_base), engine=dict(self.workload.engine))
            for scenario in self.workload.scenarios
        ]
        for kb, query in self.workload.pairs():
            self.client.query(self.session_ids[kb], QueryRequest(query=query, request_id="warmup"))
        return time.perf_counter() - start

    def close(self) -> None:
        self._stack.close()

    def call(self, call) -> List[Any]:
        """Issue one call of the round and return its decoded rows."""
        session_id = self.session_ids[call.kb]
        requests = [
            QueryRequest(query=query, request_id=request_id)
            for query, request_id in zip(call.queries, call.request_ids)
        ]
        if call.kind == "query":
            return [self.client.query(session_id, requests[0])]
        if call.kind == "query_batch":
            return self.client.query_batch(session_id, requests)
        return list(self.client.stream(session_id, requests))

    def run_phase(self, seconds: float, check_round, tracer=None) -> Phase:
        """Time whole rounds; ``records`` holds ``(call, rows-or-exception)``."""
        calls = self.workload.calls

        def run_round(phase: Phase, records: List[Any]) -> None:
            for number, call in enumerate(calls):
                if tracer is not None:
                    tracer.request(phase.rounds * len(calls) + number)
                start = time.perf_counter()
                try:
                    rows: Any = self.call(call)
                except Exception as error:  # a failure the round's check reports
                    rows = error
                latency_ms = (time.perf_counter() - start) * 1000.0
                phase.latencies_ms.append(latency_ms)
                records.append((call, rows))
                if not isinstance(rows, Exception):
                    phase.answered += len(rows)
                    phase.overhead_ms.append(latency_ms - sum(row.elapsed_ms for row in rows))

        return _timed_rounds(seconds, run_round, check_round)


def cold_op(op) -> Any:
    """One cold operation: a ``BeliefResponse``, or the exception it raised."""
    session = open_session(KnowledgeBase.from_strings(*op.sentences))
    try:
        return session.submit(QueryRequest(query=op.query))
    except Exception as error:  # classified by the answer checks
        return error
    finally:
        session.close()


class ColdRunner:
    """The in-process cold grid (nothing to start; inputs are built by setup)."""

    # Building the grid takes only 14-25 ms, and one build can take nearly
    # twice another in the same process, so its median needs many more
    # repeats to hold still than the seconds-long serve set-ups.
    SETUP_REPEATS = 25

    def __init__(self, build):
        self._build = build
        self.workload = None

    def setup(self) -> float:
        start = time.perf_counter()
        self.workload = self._build()
        return time.perf_counter() - start

    def close(self) -> None:
        pass

    def run_phase(self, seconds: float, check_round, tracer=None) -> Phase:
        """Time whole rounds; ``records`` holds one outcome per op, in order."""
        ops = self.workload.ops

        def run_round(phase: Phase, records: List[Any]) -> None:
            for number, op in enumerate(ops):
                if tracer is not None:
                    tracer.request(phase.rounds * len(ops) + number)
                start = time.perf_counter()
                outcome = cold_op(op)
                latency_ms = (time.perf_counter() - start) * 1000.0
                phase.latencies_ms.append(latency_ms)
                records.append(outcome)
                if not isinstance(outcome, Exception):
                    phase.answered += 1

        return _timed_rounds(seconds, run_round, check_round)


def setup_repeated(make_runner, repeats: Optional[int] = None):
    """Set up from scratch ``repeats`` times (default: the runner's
    ``SETUP_REPEATS``); keep the last runner.

    Returns ``(runner, [seconds per setup])``."""
    times: List[float] = []
    runner = make_runner()
    times.append(runner.setup())
    for _ in range((repeats or runner.SETUP_REPEATS) - 1):
        runner.close()
        runner = make_runner()
        times.append(runner.setup())
    return runner, times


def summarize(latencies_ms: List[float], percentile: int) -> Dict[str, float]:
    """Median and the workload's tail percentile (nearest rank)."""
    ordered = sorted(latencies_ms)

    def rank(p: float) -> float:
        index = max(0, min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1))
        return ordered[int(index)]

    middle = len(ordered) // 2
    median = ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    return {"p50": median, "tail": rank(percentile)}
