"""Answer checks, run after each timed round on what it recorded.

Each check names the way an answer can be wrong.  A serve request or a
cold operation fails when any check fails.  A cold operation that fails
exactly under the fault its grid cell names is a *known* failure: it counts
in ``failed`` and ``correct`` stays true.  Any other failure is unexpected
and makes the run incorrect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.service import BeliefResponse, ErrorResponse, QueryRequest, open_session
from repro.server import normalise_engine_options
from repro.traffic.synth import MALFORMED_QUERY

# |answer - closed form| allowed where a scenario carries an expectation.
# Analytic answers are exact; maxent answers are extrapolated to tau -> 0
# and land within ~1e-8 on the corpus; the lottery's counting answer is
# exactly 1/tickets at every domain size.
EXPECTATION_ERROR = 1e-6
COMPLEMENT_ERROR = 1e-3
# Fields of a response row that legitimately differ between two sessions.
VOLATILE = ("elapsed_ms", "cache_delta", "request_id")


@dataclass
class Verdict:
    """The outcome of checking one run's operations."""

    attempted: int = 0
    failed: int = 0
    known: Counter = field(default_factory=Counter)  # failed operations by named fault
    unexpected: Counter = field(default_factory=Counter)  # other problems by kind
    examples: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def record(self, problems: List[str], detail: str, known_fault: Optional[str] = None) -> None:
        """Count one operation and whatever its checks found wrong."""
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if known_fault is not None and problems == [known_fault]:
            self.known[known_fault] += 1
            return
        self.unexpected.update(problems)
        if len(self.examples) < 5:
            self.examples.append(f"{', '.join(problems)}: {detail}")


def stable_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """A response row without the fields that differ between sessions."""
    return {key: value for key, value in row.items() if key not in VOLATILE}


def value_problems(value: Optional[float], expected) -> List[str]:
    """Range and closed-form checks on one answered value."""
    problems = []
    if value is not None and not 0.0 <= value <= 1.0:
        problems.append("out-of-range")
    if expected is not None:
        if value is None:
            asserted = "asserted" in expected.source
            problems.append("asserted-fact-undefined" if asserted else "expected-value-undefined")
        elif abs(value - float(expected.value)) > EXPECTATION_ERROR:
            problems.append("expectation-missed")
    return problems


# -- serve workloads -----------------------------------------------------------


def reference_rows(workload) -> Dict[Tuple[int, str], Dict[str, Any]]:
    """The stable row of every distinct (KB, query) pair, from in-process
    sessions opened apart from the server with the same engine options."""
    options = normalise_engine_options(dict(workload.engine))
    rows: Dict[Tuple[int, str], Dict[str, Any]] = {}
    sessions: Dict[int, Any] = {}
    try:
        for kb, query in workload.pairs():
            session = sessions.get(kb)
            if session is None:
                session = sessions[kb] = open_session(workload.scenarios[kb].knowledge_base, **options)
            rows[(kb, query)] = stable_row(session.submit(QueryRequest(query=query)).to_dict())
    finally:
        for session in sessions.values():
            session.close()
    return rows


def check_serve(workload, records: Sequence[Tuple[Any, Any]], reference, verdict: Verdict) -> None:
    """Check every served row of ``records``: ``(call, rows)`` pairs, where
    ``rows`` is the list of decoded responses or the exception the call raised."""
    for call, rows in records:
        for position, (query, request_id) in enumerate(zip(call.queries, call.request_ids)):
            detail = f"{call.kind} {request_id} {query!r}"
            if isinstance(rows, BaseException):
                verdict.record(["call-raised"], f"{detail}: {rows!r}")
                continue
            row = rows[position] if position < len(rows) else None
            problems = _row_problems(workload, call, query, request_id, row, reference)
            if position == len(call.queries) - 1 and len(rows) > len(call.queries):
                problems.append("extra-row")
            verdict.record(problems, detail)


def _row_problems(workload, call, query, request_id, row, reference) -> List[str]:
    if row is None:
        return ["missing-row"]
    problems = []
    if row.request_id != request_id:
        problems.append("wrong-request-id")
    if query == MALFORMED_QUERY:
        if not (isinstance(row, ErrorResponse) and row.code == "bad-request"):
            problems.append("malformed-row-not-rejected")
        return problems
    if not isinstance(row, BeliefResponse):
        return problems + ["error-row"]
    if stable_row(row.to_dict()) != reference[(call.kb, query)]:
        problems.append("differs-from-in-process")
    expected = workload.scenarios[call.kb].expectation_for(query)
    return problems + value_problems(row.result.value, expected)


# -- cold_answers ----------------------------------------------------------------


def check_cold(workload, outcomes: Sequence[Any], verdict: Verdict) -> None:
    """Check one round's outcomes (a ``BeliefResponse`` or the raised
    exception, in ``workload.ops`` order) and add them to ``verdict``."""
    answered: Dict[Tuple[str, str], Optional[float]] = {}
    for op, outcome in zip(workload.ops, outcomes):
        if isinstance(outcome, BeliefResponse):
            answered[(op.cell, op.query)] = outcome.result.value
    for op, outcome in zip(workload.ops, outcomes):
        verdict.record(_op_problems(op, outcome, answered), f"{op.cell} {op.query!r}", op.known_fault)


def _op_problems(op, outcome, answered) -> List[str]:
    positive = answered.get((op.cell, op.negation_of)) if op.negation_of else None
    if not isinstance(outcome, BeliefResponse):
        if op.negation_of and positive is not None:
            return ["negation-unanswerable"]
        return ["unanswerable"]
    value = outcome.result.value
    problems = value_problems(value, op.expected)
    if op.negation_of and positive is not None:
        if value is None:
            problems.append("negation-unanswerable")
        elif abs(positive + value - 1.0) > COMPLEMENT_ERROR:
            problems.append("complement-violated")
    return problems
