"""E27 — the concurrency-discipline analyzer's wall-clock budget.

``repro-lint-code`` runs as a pre-merge gate over the whole codebase, so
its cost is paid on every CI run and every pre-commit invocation: the
corpus-wide lock discovery plus per-function held-stack walk must stay a
few seconds, not minutes.  This benchmark runs the full analyzer (lock
discipline over ``src/`` plus the absorbed exactness
checks) exactly as the CI gate does and records the wall-clock totals in
the ``BENCH_results.json`` metrics block, so the analyzer's cost trends
PR-over-PR.  It also gates the property the CI step relies on: the repo
is clean — zero lock-discipline findings, zero exactness findings.
"""

import time
from pathlib import Path

from conftest import record_metric

from repro.statics.exactness import exactness_diagnostics, find_repo_root
from repro.statics.locks import iter_python_files, lint_paths

REPO = find_repo_root(Path(__file__).resolve().parent)
LINT_ROOTS = [str(REPO / "src")]

# The gate runs on every CI leg and locally before each merge; an analyzer
# that stops being pure AST work (imports the code, enumerates worlds)
# shows up as an order-of-magnitude jump against this deliberately loose
# bound.
SUITE_BUDGET_SECONDS = 15.0


def _sweep():
    return lint_paths(LINT_ROOTS), exactness_diagnostics(REPO)


def test_e27_statics_wallclock_metric(benchmark):
    _sweep()  # warm import-time and filesystem caches before timing
    benchmark.pedantic(_sweep, rounds=1, iterations=1)

    start = time.perf_counter()
    lock_findings, exactness_findings = _sweep()
    elapsed = time.perf_counter() - start

    assert lock_findings == [], (
        "the repo must be clean under its own lock-discipline analyzer: "
        f"{[finding.format() for finding in lock_findings]}"
    )
    assert exactness_findings == [], (
        "the exact-counting hot paths regressed the exactness lint: "
        f"{[finding.format() for finding in exactness_findings]}"
    )
    assert elapsed < SUITE_BUDGET_SECONDS, (
        f"repo-wide repro-lint-code took {elapsed:.2f}s; the gate must stay "
        "cheap enough to run on every merge"
    )

    analyzed = len(list(iter_python_files(LINT_ROOTS)))
    record_metric("e27_statics_suite_seconds", round(elapsed, 6))
    record_metric("e27_statics_files_analyzed", analyzed)
    record_metric(
        "e27_statics_mean_file_ms", round(elapsed * 1000.0 / max(analyzed, 1), 3)
    )
