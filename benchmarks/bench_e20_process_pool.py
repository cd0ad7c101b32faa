"""E20 — the process-pool backend parallelises exact counting across cores.

The E18 counting scaling grid (hepatitis KB, N up to 60) is answered with the
serial and process backends.  The experiment asserts the probabilities are
``Fraction``-identical on both backends and — on hosts with >= 2 cores —
that the process pool beats the serial wall clock by >= 2x with >= 2 workers;
this file also times an engine-level batch on the process backend to keep the
end-to-end dispatch (grid points, not whole queries, go to the pool) honest.
"""

from conftest import assert_rows_pass

from repro.core import RandomWorlds
from repro.experiments import run_experiment
from repro.experiments.definitions import E19_DOMAIN_SIZES, E19_DISTINCT_QUERIES
from repro.workloads import paper_kbs


def test_e20_rows_reproduce(benchmark):
    result = benchmark.pedantic(lambda: run_experiment("E20"), rounds=1, iterations=1)
    assert_rows_pass(result.rows)


def test_e20_engine_batch_on_the_process_backend(benchmark):
    """Batch answers through a process-backed engine match the serial engine."""
    kb = paper_kbs.lottery(5)
    queries = list(E19_DISTINCT_QUERIES)
    serial_engine = RandomWorlds(domain_sizes=E19_DOMAIN_SIZES)
    expected = serial_engine.degree_of_belief_batch(queries, kb)

    with RandomWorlds(domain_sizes=E19_DOMAIN_SIZES, backend="processes", max_workers=2) as engine:
        results = benchmark.pedantic(
            engine.degree_of_belief_batch, args=(queries, kb), rounds=1, iterations=1
        )
        info = engine.cache_info()

    assert [r.value for r in results] == [r.value for r in expected]
    assert [r.method for r in results] == [r.method for r in expected]
    grid_points = len(E19_DOMAIN_SIZES) * len(tuple(serial_engine.tolerances))
    assert info is not None and info.misses == grid_points
