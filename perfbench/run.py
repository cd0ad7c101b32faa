#!/usr/bin/env python3
"""perfbench: end-to-end and layer-by-layer performance of the belief service.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload serve_replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: ``serve_replay`` (the E28 traffic model replayed serially over
HTTP), ``serve_hot`` (a lottery trace answered from the counting memo) and
``cold_answers`` (one fresh session per query over a grid of corpus
scenarios).  See perfbench/README.md for what each one measures.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
phase, then installs the layer wrappers of ``spans.py`` and runs a traced
phase, and prints the per-layer metrics.  Every answer is checked after its
phase.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("serve_replay", "serve_hot", "cold_answers")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def cpu_times() -> list:
    """The aggregate ``cpu`` row of /proc/stat (user ... steal), in ticks."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:9]]


def steal_share(before: list, after: list) -> float:
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_runner(name: str, seed: int):
    """A fresh runner factory for ``name`` (each setup rebuilds everything)."""
    import drive
    import inputs

    if name == "cold_answers":
        return lambda: drive.ColdRunner(lambda: inputs.cold_answers(seed))
    build = inputs.serve_replay if name == "serve_replay" else inputs.serve_hot
    return lambda: drive.ServeRunner(build(seed))


def round_checker(name: str, workload, verdict, reference, tracer=None):
    """The callback that checks one round's records into ``verdict``."""
    import checks

    def check_round(records) -> None:
        if tracer is not None:
            tracer.pause()
        if name == "cold_answers":
            checks.check_cold(workload, records, verdict)
        else:
            checks.check_serve(workload, records, reference, verdict)

    return check_round


def end_to_end(phase, workload, setup_times) -> dict:
    import drive

    latency = drive.summarize(phase.latencies_ms, workload.tail_percentile)
    return {
        "requests_per_s": (phase.requests_per_s, "req/s"),
        "latency_p50_ms": (latency["p50"], "ms"),
        "latency_tail_ms": (latency["tail"], "ms"),
        "cpu_ms_per_request": (phase.cpu_s * 1000.0 / phase.answered, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_program()
    import checks
    import drive

    stat0 = cpu_times()
    make_runner = build_runner(name, seed)
    verdict = checks.Verdict()
    layers = None
    runner, setup_times = drive.setup_repeated(make_runner, 1 if trace else None)
    workload = runner.workload
    try:
        # Computed apart from the server, outside set-up and timed rounds.
        reference = None if name == "cold_answers" else checks.reference_rows(workload)
        if not trace:
            phase = runner.run_phase(seconds, round_checker(name, workload, verdict, reference))
        else:
            # Half the run untraced; then a fresh set-up and half the run with
            # the wrappers installed.  Their rate ratio is trace.overhead.
            import spans

            untraced = runner.run_phase(seconds / 2, round_checker(name, workload, verdict, reference))
            runner.close()
            tracer = spans.Tracer()
            runner = make_runner()
            with tracer.installed():
                tracer.request("setup")
                runner.setup()
                tracer.pause()  # let set-up work on server threads finish first
                check_round = round_checker(name, runner.workload, verdict, reference, tracer)
                phase = runner.run_phase(seconds / 2, check_round, tracer=tracer)
            layers = spans.per_layer(tracer, phase, untraced)
            out_dir = HERE.parent / "perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"{name}-seed{seed}.spans.jsonl")
    finally:
        runner.close()
    # In a traced run the end-to-end figures shown are the untraced half's.
    timed = untraced if trace else phase
    metrics = end_to_end(timed, workload, setup_times)
    report = {
        "workload": name,
        "seed": seed,
        "rounds": timed.rounds,
        "calls": len(timed.latencies_ms),
        "timed_s": timed.wall_s,
        "tail_percentile": workload.tail_percentile,
        "setup_s_each": setup_times,
        "steal_share": steal_share(stat0, cpu_times()),
        "verdict": verdict,
    }
    _print_report(report, metrics, layers)
    shown = layers if trace else metrics
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in shown.items()},
    }


def _print_report(report: dict, metrics: dict, layers) -> None:
    verdict = report["verdict"]
    print(
        f"perfbench {report['workload']} seed={report['seed']}: {report['rounds']} round(s), "
        f"{report['calls']} timed calls in {report['timed_s']:.2f} s; "
        f"latency_tail_ms is p{report['tail_percentile']}"
    )
    print("  setup_s each: " + ", ".join(f"{value:.3f}" for value in report["setup_s_each"]))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<22} {value:12.4f} {unit}")
    if layers is not None:
        print("  per layer (traced phase):")
        for key, (value, unit) in layers.items():
            print(f"    {key:<34} {value:14.6f} {unit}")
    failures = dict(verdict.known) | {f"UNEXPECTED {kind}": count for kind, count in verdict.unexpected.items()}
    named = ", ".join(f"{kind} x{count}" for kind, count in sorted(failures.items())) or "none"
    print(f"  attempted {verdict.attempted}, failed {verdict.failed} ({named})")
    for example in verdict.examples:
        print(f"    e.g. {example}")
    print(f"  host steal share over the run: {100.0 * report['steal_share']:.1f}%")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        if child.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {child.returncode}")
        *report, last = child.stdout.rstrip("\n").split("\n")
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    started = time.perf_counter()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"  run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
