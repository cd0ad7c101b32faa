"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

# Allow running the tests without installing the package (e.g. straight from a
# source checkout): put src/ on the path if the package is not importable.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

from repro.core import RandomWorlds  # noqa: E402
from repro.worlds.parallel import CountingExecutor, ProcessExecutor, make_executor  # noqa: E402


@pytest.fixture(scope="session")
def engine() -> RandomWorlds:
    """A shared random-worlds engine with default settings."""
    return RandomWorlds()


@pytest.fixture(scope="session")
def small_engine() -> RandomWorlds:
    """An engine with small domain sizes for counting-heavy tests."""
    return RandomWorlds(domain_sizes=(6, 8, 10, 12))


def pytest_addoption(parser) -> None:
    """Options for the cross-backend equality suite (tests/test_worlds_parallel.py).

    CI runs one matrix leg with ``--backend processes --backend-workers 2`` so
    the process pool is exercised with real multi-worker fan-out; by default
    the suite covers both backends with 2 workers.
    """
    parser.addoption(
        "--backend",
        action="store",
        default=None,
        choices=("serial", "processes"),
        help="restrict the cross-backend equality suite to one counting backend",
    )
    parser.addoption(
        "--backend-workers",
        action="store",
        type=int,
        default=2,
        help="worker-pool width used by the cross-backend equality suite",
    )
    parser.addoption(
        "--lock-graph",
        action="store_true",
        default=False,
        help="instrument every named lock and, at session teardown, fail the "
        "run unless the observed acquisition graph is acyclic and covered by "
        "the declared LOCK_ORDER (see docs/CONCURRENCY.md)",
    )
    parser.addoption(
        "--corpus-examples",
        action="store",
        type=int,
        default=25,
        help="distinct corpus-generated KBs the corpus-marked metamorphic "
        "tests sweep (deterministic sample; CI's fuzz leg raises this to 200+)",
    )


def exhaustive_counting_domain(
    vocabulary,
    *,
    sizes=(6, 5, 4, 3, 2, 1),
    unary_budget: int = 5_000,
    brute_budget: int = 3_000,
):
    """Largest domain size the exhaustive counting oracle can afford, or None.

    The metamorphic law suite's oracle is exhaustive enumeration, so its
    feasible region is narrower than the engine's (which has analytic
    paths): a depth-6 taxonomy serves fine but its 2**7 atom classes are
    outside any enumeration budget.  Shared by the law suite and the
    corpus sampling below so both agree on what "checkable" means.
    """
    from repro.core.engine import _unary_class_count
    from repro.worlds.enumeration import world_space_size

    for domain_size in sizes:
        if vocabulary.is_unary:
            if _unary_class_count(vocabulary, domain_size) <= unary_budget:
                return domain_size
        elif world_space_size(vocabulary, domain_size) <= brute_budget:
            return domain_size
    return None


# The concurrent tests stand in for the HTTP server's handler threads sharing
# one session: more threads than cores, switching far more often than the
# interpreter default (5 ms), and a bound on every wait so a deadlock in the
# cache's in-flight protocol fails the test instead of hanging it.
CONCURRENT_THREADS = max(12, (os.cpu_count() or 1) + 1)
CONCURRENT_SWITCH_INTERVAL = 1e-5
CONCURRENT_WAIT_SECONDS = 60.0


def repeated_for_threads(items: list) -> list:
    """``items`` repeated until every concurrent-leg thread has a job."""
    return items * -(-CONCURRENT_THREADS // len(items))


def run_concurrently(calls) -> list:
    """Start every zero-argument call at once on a thread pool; results in order."""
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(CONCURRENT_SWITCH_INTERVAL)
    pool = ThreadPoolExecutor(max_workers=CONCURRENT_THREADS)
    try:
        futures = [pool.submit(call) for call in calls]
        return [future.result(timeout=CONCURRENT_WAIT_SECONDS) for future in futures]
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        sys.setswitchinterval(previous_interval)


def pytest_configure(config) -> None:
    if config.getoption("--lock-graph") or os.environ.get("REPRO_LOCK_GRAPH"):
        # Enable before any fixture constructs the objects under test:
        # named_lock() only instruments locks created after this point.
        from repro.statics.runtime import enable_lock_graph

        enable_lock_graph()


def pytest_sessionfinish(session, exitstatus) -> None:
    from repro.statics.runtime import GLOBAL_LOCK_GRAPH, lock_graph_enabled

    if not lock_graph_enabled():
        return
    problems = GLOBAL_LOCK_GRAPH.check()
    report = GLOBAL_LOCK_GRAPH.report()
    print(f"\n{report}")
    if problems:
        session.exitstatus = 1


def pytest_generate_tests(metafunc) -> None:
    if "counting_backend" in metafunc.fixturenames:
        selected = metafunc.config.getoption("--backend")
        backends = [selected] if selected else ["serial", "processes"]
        metafunc.parametrize("counting_backend", backends)
    if "corpus_scenario" in metafunc.fixturenames:
        # A deterministic sample of pairwise-distinct corpus KBs: the sweep
        # size is exactly --corpus-examples, not "however many hypothesis
        # happened to draw", so CI can demand a concrete KB count.
        from repro.workloads.corpus import sample

        count = metafunc.config.getoption("--corpus-examples")
        # Oversample, then keep the first `count` scenarios the exhaustive
        # counting oracle can afford — corpus corners like depth-6
        # taxonomies are engine-servable but uncheckable by enumeration.
        drawn = sample(2 * count + 8)
        scenarios = [
            scenario
            for scenario in drawn
            if exhaustive_counting_domain(scenario.knowledge_base.vocabulary) is not None
        ][:count]
        assert len(scenarios) == count, (
            "oversampling did not yield enough counting-feasible corpus scenarios"
        )
        metafunc.parametrize(
            "corpus_scenario",
            scenarios,
            ids=[f"{s.family}-{s.seed}-{s.fingerprint[:8]}" for s in scenarios],
        )


@pytest.fixture(scope="session")
def backend_workers(request) -> int:
    return request.config.getoption("--backend-workers")


@pytest.fixture(scope="session")
def shared_process_executor(backend_workers):
    """One process pool for the whole session (forking per test would dominate).

    Shared by the cross-backend equality suite and the metamorphic suite.
    """
    executor = ProcessExecutor(max_workers=backend_workers)
    yield executor
    executor.close()


@pytest.fixture(scope="session")
def executor_for(backend_workers, shared_process_executor):
    """Build (or re-use) the executor for a backend name."""

    def build(backend: str) -> CountingExecutor:
        if backend == "processes":
            return shared_process_executor
        return make_executor(backend, backend_workers)

    return build
