"""The concurrency-discipline analyzer and runtime lock-graph sanitizer.

Three layers of coverage:

* a seeded-bug fixture corpus where every diagnostic code (C601..C604,
  C701, C702) fires exactly once at the exact line/column, and every
  suppression silences exactly its own finding;
* the runtime sanitizer primitives (``InstrumentedLock``, ``LockGraph``,
  ``named_lock``) and the declared ``LOCK_ORDER`` manifest;
* the repo itself: a corpus-wide clean run (every real finding from the
  initial sweep is fixed or annotated), the named ``SessionManager``
  acceptance invariant, the build-outside-the-lock regression (now on the
  prepared KB's memo), and the ``repro-lint-code`` / shim CLIs.
"""

from __future__ import annotations

import json
import textwrap
import threading
from pathlib import Path

import pytest

from repro.core import KnowledgeBase
from repro.statics.cli import main as lint_code_main
from repro.statics.exactness import exactness_diagnostics
from repro.statics.locks import LockLinter, lint_paths, lint_source
from repro.statics.order import LOCK_ORDER, edge_problem, order_violations
from repro.statics.runtime import (
    InstrumentedLock,
    LockGraph,
    enable_lock_graph,
    lock_graph_enabled,
    named_lock,
)

REPO = Path(__file__).resolve().parents[1]


def codes(findings):
    return [finding.code for finding in findings]


def at(findings, code):
    """The single finding with ``code`` (asserting it fired exactly once)."""
    matching = [finding for finding in findings if finding.code == code]
    assert len(matching) == 1, f"expected exactly one {code}, got {codes(findings)}"
    return matching[0]


# --------------------------------------------------------------------------
# Seeded-bug fixture corpus: each code fires exactly once, at the exact span.
# --------------------------------------------------------------------------

BLOCKING_UNDER_LOCK = textwrap.dedent(
    """\
    import threading


    class Manager:
        def __init__(self):
            self._lock = threading.Lock()
            self._session = None

        def evict(self):
            with self._lock:
                self._session.close()
    """
)

DEADLOCK_CYCLE = textwrap.dedent(
    """\
    import threading


    class Pair:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def forward(self):
            with self._a:
                with self._b:
                    pass

        def backward(self):
            with self._b:
                with self._a:
                    pass
    """
)

ORDER_INVERSION = textwrap.dedent(
    """\
    import threading


    class Stack:
        def __init__(self):
            self._leaf = threading.Lock()
            self._root = threading.Lock()

        def wrong(self):
            with self._leaf:
                with self._root:
                    pass
    """
)
INVERSION_ORDER = {"Stack._root": 1, "Stack._leaf": 2}

LOCK_ACROSS_YIELD = textwrap.dedent(
    """\
    import threading


    class Feed:
        def __init__(self):
            self._lock = threading.Lock()
            self._rows = []

        def stream(self):
            with self._lock:
                for row in self._rows:
                    yield row
    """
)

UNGUARDED_FIELD = textwrap.dedent(
    """\
    import threading


    class Tally:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            return self._count
    """
)

REASONLESS_SUPPRESSION = textwrap.dedent(
    """\
    import threading


    class Sleeper:
        def __init__(self):
            self._lock = threading.Lock()
            self._pool = None

        def nap(self):
            with self._lock:
                self._pool.join()  # lock-ok
    """
)


def test_c601_blocking_call_under_lock_fires_at_exact_span():
    findings = lint_source(BLOCKING_UNDER_LOCK, "fixture.py")
    finding = at(findings, "C601")
    assert (finding.span.line, finding.span.column) == (11, 13)
    assert "Manager._lock" in finding.message
    assert "close" in finding.message
    assert codes(findings) == ["C601"]


def test_c602_deadlock_cycle_fires_once_at_last_edge():
    findings = lint_source(DEADLOCK_CYCLE, "fixture.py")
    finding = at(findings, "C602")
    # The anchor is the source-order-last acquisition edge of the cyclic
    # component: `with self._a:` inside backward().
    assert (finding.span.line, finding.span.column) == (16, 18)
    assert "Pair._a" in finding.message and "Pair._b" in finding.message
    assert codes(findings) == ["C602"]


def test_c603_inversion_against_injected_order():
    findings = lint_source(ORDER_INVERSION, "fixture.py", order=INVERSION_ORDER)
    finding = at(findings, "C603")
    assert (finding.span.line, finding.span.column) == (11, 18)
    assert "inverts LOCK_ORDER" in finding.message
    assert codes(findings) == ["C603"]


def test_c603_silent_when_locks_are_unranked():
    assert lint_source(ORDER_INVERSION, "fixture.py") == []


def test_c604_lock_held_across_yield():
    findings = lint_source(LOCK_ACROSS_YIELD, "fixture.py")
    finding = at(findings, "C604")
    assert (finding.span.line, finding.span.column) == (12, 17)
    assert "Feed._lock" in finding.message
    assert codes(findings) == ["C604"]


def test_c604_exempts_contextmanager_functions():
    source = textwrap.dedent(
        """\
        import threading
        from contextlib import contextmanager


        class Guard:
            def __init__(self):
                self._lock = threading.Lock()

            @contextmanager
            def holding(self):
                with self._lock:
                    yield
        """
    )
    assert lint_source(source, "fixture.py") == []


def test_c701_unguarded_shared_field():
    findings = lint_source(UNGUARDED_FIELD, "fixture.py")
    finding = at(findings, "C701")
    assert (finding.span.line, finding.span.column) == (14, 16)
    assert "Tally._count" in finding.message
    assert "peek" in finding.message
    assert codes(findings) == ["C701"]


def test_c702_reasonless_suppression_still_suppresses_but_warns():
    findings = lint_source(REASONLESS_SUPPRESSION, "fixture.py")
    finding = at(findings, "C702")
    line = REASONLESS_SUPPRESSION.splitlines()[finding.span.line - 1]
    assert finding.span.line == 11
    assert finding.span.column == line.index("# lock-ok") + 1
    # The bare marker did suppress the C601 underneath it.
    assert codes(findings) == ["C702"]


def test_combined_corpus_every_code_fires_exactly_once():
    linter = LockLinter(order=INVERSION_ORDER)
    linter.add_source(BLOCKING_UNDER_LOCK, "c601.py")
    linter.add_source(DEADLOCK_CYCLE, "c602.py")
    linter.add_source(ORDER_INVERSION, "c603.py")
    linter.add_source(LOCK_ACROSS_YIELD, "c604.py")
    linter.add_source(UNGUARDED_FIELD, "c701.py")
    linter.add_source(REASONLESS_SUPPRESSION, "c702.py")
    findings = linter.run()
    assert sorted(codes(findings)) == ["C601", "C602", "C603", "C604", "C701", "C702"]


# --------------------------------------------------------------------------
# Suppression scoping.
# --------------------------------------------------------------------------


def _with_suppression(marker: str) -> str:
    return BLOCKING_UNDER_LOCK.replace(
        "self._session.close()", f"self._session.close()  {marker}"
    )


def test_suppression_with_reason_silences_the_finding():
    findings = lint_source(_with_suppression("# lock-ok: close is re-entrant here"), "f.py")
    assert findings == []


def test_code_scoped_suppression_silences_only_its_code():
    assert lint_source(_with_suppression("# lock-ok[C601]: justified"), "f.py") == []
    # The wrong code scope leaves the C601 standing.
    findings = lint_source(_with_suppression("# lock-ok[C604]: wrong code"), "f.py")
    assert codes(findings) == ["C601"]


def test_suppression_on_another_line_does_not_leak():
    source = BLOCKING_UNDER_LOCK.replace(
        "with self._lock:", "with self._lock:  # lock-ok: wrong line"
    )
    findings = lint_source(source, "f.py")
    assert codes(findings) == ["C601"]


# --------------------------------------------------------------------------
# The declared order manifest.
# --------------------------------------------------------------------------


def test_lock_order_ranks_are_sane():
    # The manifest is the executable form of the hierarchy table in
    # docs/CONCURRENCY.md: manager above engine above session above the
    # caches above the metrics leaves.
    assert LOCK_ORDER["SessionManager._lock"] < LOCK_ORDER["RandomWorlds._sessions_lock"]
    assert LOCK_ORDER["RandomWorlds._sessions_lock"] < LOCK_ORDER["BeliefSession._lock"]
    assert LOCK_ORDER["BeliefSession._lock"] < LOCK_ORDER["WorldCountCache._lock"]
    assert LOCK_ORDER["WorldCountCache._lock"] < LOCK_ORDER["QueryMemoTable._lock"]
    assert LOCK_ORDER["QueryMemoTable._lock"] < LOCK_ORDER["MetricsRegistry._lock"]
    assert LOCK_ORDER["MetricsRegistry._lock"] < LOCK_ORDER["Counter._lock"]


def test_edge_problem_shapes():
    order = {"A": 1, "B": 2, "C": 2}
    assert edge_problem("A", "B", order) is None
    assert "inverts" in edge_problem("B", "A", order)
    assert "same-rank" in edge_problem("B", "C", order)
    assert "re-acquired" in edge_problem("A", "A", order)
    assert "not declared" in edge_problem("A", "Z", order)
    assert order_violations([("A", "B")], order) == []


# --------------------------------------------------------------------------
# Runtime sanitizer primitives.
# --------------------------------------------------------------------------


def test_instrumented_lock_records_nesting_edges():
    graph = LockGraph()
    outer = InstrumentedLock("A", graph)
    inner = InstrumentedLock("B", graph)
    with outer:
        with inner:
            pass
    assert set(graph.edges()) == {("A", "B")}
    assert graph.cycles() == []
    assert graph.check(order={"A": 1, "B": 2}) == []


def test_lock_graph_detects_cycles_and_order_violations():
    graph = LockGraph()
    graph.record(["A"], "B", ("f.py", 1))
    graph.record(["B"], "A", ("f.py", 2))
    problems = graph.check(order={"A": 1, "B": 2})
    assert any("cycle" in problem for problem in problems)
    assert any("inverts" in problem for problem in problems)
    graph.clear()
    assert graph.edges() == {}
    assert graph.check(order={"A": 1, "B": 2}) == []


def test_lock_graph_flags_undeclared_edges():
    graph = LockGraph()
    graph.record(["A"], "Mystery", ("f.py", 1))
    problems = graph.check(order={"A": 1})
    assert problems and "not declared" in problems[0]


def test_edges_are_per_thread():
    graph = LockGraph()
    lock_a = InstrumentedLock("A", graph)
    lock_b = InstrumentedLock("B", graph)
    with lock_a:
        worker = threading.Thread(target=lambda: lock_b.acquire() and lock_b.release())
        worker.start()
        worker.join()
    # B was acquired while A was held — but by a different thread, so no edge.
    assert graph.edges() == {}


def test_named_lock_is_plain_unless_enabled():
    was_enabled = lock_graph_enabled()
    try:
        enable_lock_graph(False)
        plain = named_lock("SessionManager._lock")
        assert not isinstance(plain, InstrumentedLock)
        enable_lock_graph(True)
        instrumented = named_lock("SessionManager._lock")
        assert isinstance(instrumented, InstrumentedLock)
        assert instrumented.name == "SessionManager._lock"
    finally:
        enable_lock_graph(was_enabled)


def test_instrumented_lock_behaves_like_a_lock():
    lock = InstrumentedLock("A", LockGraph())
    assert not lock.locked()
    with lock:
        assert lock.locked()
        assert lock.acquire(blocking=False) is False
    assert not lock.locked()


# --------------------------------------------------------------------------
# The repo itself.
# --------------------------------------------------------------------------


def test_repo_wide_lock_lint_is_clean():
    findings = lint_paths([str(REPO / "src")])
    assert findings == [], "\n".join(finding.format() for finding in findings)


def test_repo_wide_exactness_is_clean():
    findings = exactness_diagnostics(REPO)
    assert findings == [], "\n".join(finding.format() for finding in findings)


def test_every_named_lock_site_is_declared_in_lock_order():
    # Every named_lock("...") literal in the codebase must have a rank, or
    # the runtime sanitizer could observe an edge it cannot judge.
    import re

    names = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for name in re.findall(r'named_lock\(\s*"([^"]+)"\s*\)', path.read_text(encoding="utf-8")):
            if re.fullmatch(r"[A-Za-z_][\w.]*", name):  # skip doc placeholders
                names.add(name)
    assert "SessionManager._lock" in names  # the regex found the real sites
    assert "_InFlight.lock" in LOCK_ORDER  # the analyzer's coarse in-flight identity
    undeclared = {name for name in names if name not in LOCK_ORDER}
    assert not undeclared, f"named locks missing from LOCK_ORDER: {sorted(undeclared)}"


SEEDED_MANAGER_BUG = textwrap.dedent(
    """\
    import threading


    class SessionManager:
        def __init__(self):
            self._lock = threading.Lock()
            self._sessions = {}

        def evict(self, key):
            with self._lock:
                session = self._sessions.pop(key)
                session.close()
    """
)


def test_manager_close_never_under_lock():
    """The named acceptance invariant: no ``session.close()`` under the
    manager lock (the PR 5 bug class), proven from both directions."""
    # The analyzer recognises the seeded bug...
    seeded = lint_source(SEEDED_MANAGER_BUG, "seeded_manager.py")
    finding = at(seeded, "C601")
    assert "close" in finding.message and "SessionManager._lock" in finding.message
    # ...and the real manager (analyzed with the modules it locks across)
    # carries no blocking-call-under-lock finding at all.
    real = lint_paths([str(REPO / "src" / "repro" / "server")])
    assert [finding for finding in real if finding.code == "C601"] == []


def test_prepared_memo_build_runs_outside_any_lock():
    """Regression for the C601 the analyzer found in the solver-state memo
    (first on ``BeliefSession``, now on the prepared KB): a ``build`` callback
    that re-enters the memo used to deadlock on the non-reentrant lock (it
    ran under it)."""
    kb = KnowledgeBase.from_strings("Bird(Tweety)")
    outcome = {}

    def reentrant_build():
        return kb.prepared.memo("inner", lambda: "leaf")

    def run():
        outcome["value"] = kb.prepared.memo("outer", reentrant_build)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "memo deadlocked: build() ran under the prepared KB's lock"
    assert outcome["value"] == "leaf"


def test_prepared_memo_first_store_wins_and_memoises():
    kb = KnowledgeBase.from_strings("Bird(Tweety)")
    calls = []

    def build():
        calls.append(1)
        return object()

    first = kb.prepared.memo("key", build)
    second = kb.prepared.memo("key", build)
    assert first is second
    assert len(calls) == 1

    # A build that finishes after another store of its key is discarded.
    def loses_the_race():
        kb.prepared.memo("raced", lambda: "first")
        return "second"

    assert kb.prepared.memo("raced", loses_the_race) == "first"
    assert kb.prepared.memo("raced", build) == "first"


# --------------------------------------------------------------------------
# CLIs: repro-lint-code and --format json.
# --------------------------------------------------------------------------


def test_lint_code_cli_text_output(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(BLOCKING_UNDER_LOCK, encoding="utf-8")
    exit_code = lint_code_main([str(fixture), "--no-exactness"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert f"{fixture}:11:13 C601 " in captured.out
    assert "1 error(s), 0 warning(s)" in captured.out


def test_lint_code_cli_json_output(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(BLOCKING_UNDER_LOCK, encoding="utf-8")
    exit_code = lint_code_main([str(fixture), "--no-exactness", "--format", "json"])
    captured = capsys.readouterr()
    assert exit_code == 1
    rows = [json.loads(line) for line in captured.out.splitlines() if line]
    assert len(rows) == 1
    row = rows[0]
    assert row["path"] == str(fixture)
    assert (row["line"], row["col"]) == (11, 13)
    assert row["code"] == "C601"
    assert row["severity"] == "error"
    assert row["slug"] == "blocking-call-under-lock"
    assert "close" in row["message"]
    # stdout stays pure JSON lines: the summary moves to stderr.
    assert "error(s)" not in captured.out
    assert "1 error(s), 0 warning(s)" in captured.err


def test_lint_code_cli_clean_run_exits_zero(capsys):
    exit_code = lint_code_main([str(REPO / "src"), "--no-exactness"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "0 error(s), 0 warning(s)" in captured.out


def test_repro_lint_json_format(tmp_path, capsys):
    from repro.analysis.cli import main as lint_main

    kb = tmp_path / "bad.kb"
    kb.write_text("Bird(\n", encoding="utf-8")
    exit_code = lint_main([str(kb), "--format", "json"])
    captured = capsys.readouterr()
    assert exit_code == 1
    rows = [json.loads(line) for line in captured.out.splitlines() if line]
    assert rows and rows[0]["code"] == "E100"
    assert {"path", "line", "col", "code", "severity", "slug", "message"} <= set(rows[0])
    assert "error(s)" in captured.err

