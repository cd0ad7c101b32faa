"""E24 — the compiled query-evaluation kernel.

Every exact answer used to pay a recursive ``StructureEvaluator`` tree walk
per isomorphism class; the compiled kernel replaces that walk with a flat
bitset program built once per ``(decomposition, query)`` pair and cached
alongside the memo table.  This experiment gates the kernel both ways:
Fraction-identical answers to the interpreted evaluator on every benchmark
KB across the serial and process backends (workers run the shipped program,
never a local recompilation), and a >= 5x serial-throughput margin on the
warm E18 grid.  The measured compiled-vs-interpreted ratio is recorded in the
``BENCH_results.json`` metrics block so the kernel's speedup trends
PR-over-PR.
"""

import time

from conftest import assert_rows_pass, record_metric

from repro.experiments import run_experiment
from repro.experiments.definitions import E24_DOMAIN_SIZES, E24_REPEATS, E24_TOLERANCE
from repro.logic.parser import parse
from repro.logic.tolerance import ToleranceVector
from repro.workloads import paper_kbs
from repro.worlds.cache import WorldCountCache
from repro.worlds.counting import make_counter


def test_e24_rows_reproduce(benchmark):
    result = benchmark.pedantic(lambda: run_experiment("E24"), rounds=1, iterations=1)
    assert_rows_pass(result.rows)


def test_e24_compiled_throughput_metric(benchmark):
    """Record the raw compiled-vs-interpreted throughput ratio for trending.

    Same shape as E24's throughput leg (warm decompositions, E18 grid,
    serial), but run directly so the recorded metric is the measurement, not
    the gate verdict.
    """
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric)")
    tolerance = ToleranceVector.uniform(E24_TOLERANCE)

    grids = []
    for domain_size in E24_DOMAIN_SIZES:
        compiled_counter = make_counter(kb.vocabulary, cache=WorldCountCache())
        interpreted_counter = make_counter(
            kb.vocabulary, cache=WorldCountCache(), compile_queries=False
        )
        grids.append(
            (
                compiled_counter,
                compiled_counter.decompose(kb.formula, domain_size, tolerance),
                interpreted_counter,
                interpreted_counter.decompose(kb.formula, domain_size, tolerance),
            )
        )

    def compiled_pass():
        for counter, decomposition, _, _ in grids:
            for _ in range(E24_REPEATS):
                counter.evaluate_query(decomposition, query, tolerance)

    compiled_pass()  # warm the program cache before timing
    benchmark.pedantic(compiled_pass, rounds=1, iterations=1)

    start = time.perf_counter()
    compiled_pass()
    compiled_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    for _, _, counter, decomposition in grids:
        for _ in range(E24_REPEATS):
            counter.evaluate_query(decomposition, query, tolerance)
    interpreted_elapsed = time.perf_counter() - start

    expected = [
        interpreted.evaluate_query(decomposition_i, query, tolerance)
        for _, _, interpreted, decomposition_i in grids
    ]
    actual = [
        compiled.evaluate_query(decomposition_c, query, tolerance)
        for compiled, decomposition_c, _, _ in grids
    ]
    assert [(r.satisfying_kb, r.satisfying_both) for r in actual] == [
        (r.satisfying_kb, r.satisfying_both) for r in expected
    ]

    record_metric("e24_compiled_eval_seconds", round(compiled_elapsed, 6))
    record_metric("e24_interpreted_eval_seconds", round(interpreted_elapsed, 6))
    record_metric(
        "e24_compiled_speedup",
        round(interpreted_elapsed / compiled_elapsed, 2) if compiled_elapsed > 0 else None,
    )
