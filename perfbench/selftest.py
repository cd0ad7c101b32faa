#!/usr/bin/env python3
"""Self-test of the benchmark: small runs complete, and the checks catch faults.

    python3 perfbench/selftest.py

Runs each workload at a small size and requires a correct verdict, then
feeds the answer checks deliberately broken records -- an exact answer
perturbed by one ulp, a dropped stream row, two swapped answers -- and
requires each to be caught.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on the path)

run._import_program()

import checks  # noqa: E402
import drive  # noqa: E402
import inputs  # noqa: E402
from repro.service import BeliefResponse  # noqa: E402

# Two named faults' cells (the third costs ~9 s of counting) and two cheap answered families.
SMALL_GRID = (
    ("deep_taxonomy", {"depth": 2}, 1, {}),
    ("diagnosis_network", {"diseases": 1, "symptoms": 1}, 2, {}),
    ("competing_grid", {"classes": 3}, 0, {"not P": "negation-unanswerable"}),
    ("near_inconsistent", {"pairs": 1, "band": 64}, 0, {"not P0": "complement-violated"}),
)


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        sys.exit(1)


def one_round(runner):
    """Set up ``runner``, run one round and return that round's records."""
    kept = []
    try:
        runner.setup()
        runner.run_phase(0.0, kept.extend)
    finally:
        runner.close()
    return kept


def verdict_of(workload, records, reference) -> checks.Verdict:
    verdict = checks.Verdict()
    checks.check_serve(workload, records, reference, verdict)
    return verdict


def main() -> int:
    seed = 7
    replay = inputs.serve_replay(seed, calls=24)
    served = one_round(drive.ServeRunner(replay))
    reference = checks.reference_rows(replay)
    clean = verdict_of(replay, served, reference)
    expect(clean.correct and clean.failed == 0 and clean.attempted == replay.requests,
           f"small serve_replay run: {clean.attempted} requests, all checks pass")

    hot = inputs.serve_hot(seed, calls=40)
    hot_verdict = verdict_of(hot, one_round(drive.ServeRunner(hot)), checks.reference_rows(hot))
    expect(hot_verdict.correct and hot_verdict.failed == 0,
           f"small serve_hot run: {hot_verdict.attempted} requests, all checks pass")

    cold = inputs.cold_answers(seed, grid=SMALL_GRID)
    cold_outcomes = one_round(drive.ColdRunner(lambda: cold))
    cold_verdict = checks.Verdict()
    checks.check_cold(cold, cold_outcomes, cold_verdict)
    expect(
        cold_verdict.correct
        and dict(cold_verdict.known) == {"negation-unanswerable": 1, "complement-violated": 1},
        f"small cold_answers run: {cold_verdict.attempted} operations, the two named faults of its grid show",
    )

    # A perturbed exact value: one served answer moved by one ulp, the
    # smallest change its binary fraction can take.
    records = list(served)
    index, row_index = next(
        (i, j) for i, (call, rows) in enumerate(records)
        for j, row in enumerate(rows) if isinstance(row, BeliefResponse) and 0 < (row.result.value or 0) < 1
    )
    call, rows = records[index]
    row = rows[row_index]
    nudged = dataclasses.replace(row.result, value=math.nextafter(row.result.value, 2.0))
    records[index] = (call, rows[:row_index] + [dataclasses.replace(row, result=nudged)] + rows[row_index + 1:])
    caught = verdict_of(replay, records, reference)
    expect(caught.unexpected["differs-from-in-process"] == 1 and caught.failed == 1,
           "an answer perturbed by one ulp is caught")

    # A dropped stream row.
    records = list(served)
    index = next(i for i, (call, rows) in enumerate(records) if call.kind == "stream")
    call, rows = records[index]
    records[index] = (call, rows[:-1])
    caught = verdict_of(replay, records, reference)
    expect(caught.unexpected["missing-row"] == 1 and caught.failed == 1, "a dropped stream row is caught")

    # Two swapped answers: the results of two rows with different answers
    # trade places, request ids untouched.
    records = list(served)
    answered = [
        (i, j) for i, (call, rows) in enumerate(records)
        for j, row in enumerate(rows) if isinstance(row, BeliefResponse)
    ]
    first = answered[0]
    second = next(
        (i, j) for i, j in answered
        if records[i][1][j].result.value != records[first[0]][1][first[1]].result.value
    )
    row_a, row_b = records[first[0]][1][first[1]], records[second[0]][1][second[1]]
    for (i, j), row in ((first, dataclasses.replace(row_a, result=row_b.result)),
                        (second, dataclasses.replace(row_b, result=row_a.result))):
        call, rows = records[i]
        rows = list(rows)
        rows[j] = row
        records[i] = (call, rows)
    caught = verdict_of(replay, records, reference)
    expect(caught.unexpected["differs-from-in-process"] == 2 and caught.failed == 2,
           "two swapped served answers are caught")

    # Two swapped cold answers: the taxonomy's Prop(c), a proportion in
    # (0, 1), and its asserted superclass membership, which is 1.
    outcomes = list(cold_outcomes)
    pair = [
        next(i for i, op in enumerate(cold.ops) if op.cell.startswith("deep_taxonomy") and op.query.startswith(prefix))
        for prefix in ("Prop(", "Class1(")
    ]
    outcomes[pair[0]], outcomes[pair[1]] = outcomes[pair[1]], outcomes[pair[0]]
    swapped = checks.Verdict()
    checks.check_cold(cold, outcomes, swapped)
    expect(swapped.unexpected["expectation-missed"] == 2,
           f"two swapped cold answers are caught ({dict(swapped.unexpected)})")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
