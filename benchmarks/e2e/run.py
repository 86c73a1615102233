"""End-to-end benchmark: one replayed capture through the whole analyzer.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload dense_surge --seed 3
    python3 benchmarks/e2e/run.py --workload fanout_mesh --trace 1
    python3 benchmarks/e2e/run.py --stability

A run of one workload: a child process simulates the deployment and
writes the capture (timed as part of ``setup_s``); this process replays
it through tracer -> wire -> transport -> collector -> correlate -> DFS
-> publish -> lake in full passes until ``--seconds`` of measured loop
time have accumulated (at least one pass; every pass replays every
refresh of the workload through a fresh engine); then the outputs are
checked against the oracles and ground truth. ``--trace 1`` runs one
untraced and one traced pass instead, writes the spans to
``results/trace_<workload>.json`` and reports the per-layer metrics.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is non-zero when any output disagrees with an oracle. See
README.md for the glossary and ``BENCHMARK.json`` for bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))  # the command line cannot set PYTHONPATH

import numpy  # noqa: E402

import capture  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
from replay import PassResult, load_batches, run_pass  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, WorkloadSpec  # noqa: E402

RESULTS = HERE / "results"
HISTORY = HERE / "history.jsonl"
#: Measured seconds per run when ``--seconds`` is not given
#: (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 10
#: Sampled refreshes per run compared with the dense oracle.
ORACLE_REFRESHES = 5
#: ``--stability``: largest tolerated relative difference of a timing metric.
STABILITY_TOLERANCE = 0.10


def run_workload(spec: WorkloadSpec, seed: int, seconds: float, trace: bool) -> dict:
    """Benchmark one workload in this process; returns the result document
    (``correct`` / ``attempted`` / ``failed`` / ``metrics`` plus details)."""
    workdir = RESULTS / "tmp" / f"{spec.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        child = capture.generate(spec.name, seed, workdir, spec.refreshes)
        capture_s = time.perf_counter() - started

        untraced: List[PassResult] = [run_pass(spec, workdir, workdir / "lake", verify=True)]
        traced: Optional[PassResult] = None
        if trace:
            traced = run_pass(spec, workdir, workdir / "lake", recorder=SpanRecorder())
            traced.recorder.write(RESULTS / f"trace_{spec.name}.json")
        else:
            def loop_seconds() -> float:
                return sum(r.observe_s + r.refresh_s for p in untraced for r in p.refreshes)

            while loop_seconds() < seconds:
                untraced.append(run_pass(spec, workdir, workdir / "lake"))

        passes = untraced + ([traced] if traced else [])
        verdict = verify(spec, workdir, passes)
        edge_f1, delay_err = metrics.accuracy(spec, untraced[0], capture.load_truth(workdir))
        e2e = metrics.end_to_end(spec, capture_s, untraced, edge_f1, delay_err)
        layer = metrics.per_layer(spec, child, traced, untraced[0]) if traced else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": spec.name,
        "seed": seed,
        "correct": not verdict["mismatches"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": layer if trace else e2e,
        "end_to_end": e2e,
        "passes": len(untraced),
        "measured_refreshes": spec.measured_refreshes * len(untraced),
        "captures": child["captures"],
        "digest": untraced[0].digest,
        "mismatches": verdict["mismatches"],
        "slow_refreshes": verdict["slow"],
    }


def verify(spec: WorkloadSpec, workdir: pathlib.Path, passes: List[PassResult]) -> dict:
    """Count operations and failures, and collect oracle mismatches.

    An operation is one measured refresh or one history query (a summary
    fold or a stitched window read). It fails if it raised, took longer
    than ``dW`` (the analyzer would fall behind real time), or disagrees
    with an oracle; only the last kind makes the run incorrect.
    """
    config = spec.config()
    first = passes[0]
    ref = oracle.reference_collector(
        load_batches(workdir), {c for c, _ in first.classes.values()}
    )
    # Every pass must publish the same graphs, so the dense oracle and the
    # read-back checks run against the first pass only.
    sampled = set(oracle.sample_indices(0, spec.measured_refreshes - 1, ORACLE_REFRESHES))

    mismatches: List[str] = []
    attempted = failed = slow = 0
    for number, result in enumerate(passes):
        rounds = metrics.measured(spec, result)
        attempted += len(rounds) + len(result.folds) + len(result.stitched)
        for index, record in enumerate(rounds):
            problems: List[str] = []
            if record.error is not None:
                problems = [f"pass {number} t={record.now}: refresh raised {record.error}"]
            elif number == 0 and index in sampled:
                problems = oracle.check_refresh(record.graphs, record.now, ref, config)
            behind = record.refresh_s > config.refresh_interval
            slow += behind
            failed += bool(problems) or behind
            mismatches.extend(problems)
        for query in result.folds:
            if query.error is not None:
                problems = [f"pass {number}: fold {query.target} raised {query.error}"]
            else:
                problems = oracle.check_fold(query)
            failed += bool(problems)
            mismatches.extend(problems)
        if number == 0:
            for read in result.stitched:
                problems = oracle.check_stitched(read.end_time, read.series, ref, config)
                failed += bool(problems)
                mismatches.extend(problems)
        elif result.digest != first.digest:
            mismatches.append(f"pass {number} published different graphs than pass 0")
    return {"attempted": attempted, "failed": failed, "mismatches": mismatches, "slow": slow}


# -- reporting ------------------------------------------------------------------


def bounds() -> Dict[str, float]:
    with open(HERE.parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def print_report(result: dict, trace: bool) -> None:
    print(
        f"== {result['workload']} seed={result['seed']} passes={result['passes']} "
        f"measured_refreshes={result['measured_refreshes']} captures={result['captures']}"
    )
    limit = bounds()
    for name, (value, unit) in result["end_to_end"].items():
        print(f"  {name:<28} {value:>14.4f} {unit:<6} bound {limit[name]:.0%}")
    if trace:
        for name, (value, unit) in result["metrics"].items():
            print(f"  {name:<28} {value:>14.4f} {unit}")
        share = metrics.unattributed_share(result["metrics"])
        print(f"  ledger stages cover all but {share:.1%} of the traced refresh wall")
    print(
        f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}  "
        f"(slower than dW: {result['slow_refreshes']})  digest {result['digest'][:16]}"
    )
    for line in result["mismatches"][:20]:
        print(f"  MISMATCH {line}")


def last_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result["metrics"].items()
            },
        }
    )


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(HERE), "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.decode().strip() if done.returncode == 0 else "unknown"


def append_history(result: dict, spec: WorkloadSpec, seconds: float, trace: bool) -> None:
    """One line per run: the trajectory, stamped with where it was measured."""
    line = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": commit(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": spec.name,
        "seed": result["seed"],
        "seconds": seconds,
        "trace": trace,
        "sizes": spec.sizes(),
        "passes": result["passes"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: value for name, (value, _) in result["metrics"].items()},
    }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")


# -- multi-process modes --------------------------------------------------------------


def run_fresh(name: str, seed: int, seconds: float, trace: bool, echo: bool) -> dict:
    """One workload in a fresh process; returns its last-line document."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ],
        stdout=subprocess.PIPE,
        timeout=600,
    )
    lines = done.stdout.decode("utf-8").splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    if not lines:
        raise SystemExit(f"{name}: the run printed nothing (exit {done.returncode})")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: bool) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        doc = run_fresh(name, seed, seconds, trace, echo=True)
        merged["correct"] &= doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        merged["metrics"][name] = doc["metrics"]
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def stability(seed: int, seconds: float) -> int:
    """Run every workload twice from fresh processes and compare."""
    limit = bounds()
    unstable = 0
    for name in WORKLOADS:
        a, b = (run_fresh(name, seed, seconds, False, echo=False) for _ in range(2))
        print(f"== {name}")
        # Operations attempted scale with the passes that fit in --seconds,
        # so a pass more or less is not instability; a failure is.
        print(f"  {'ops_attempted':<28} {a['attempted']:>12} {b['attempted']:>12}")
        for key in ("failed", "correct"):
            same = a[key] == b[key]
            unstable += not same
            print(f"  ops_{key:<24} {a[key]!s:>12} {b[key]!s:>12}  {'ok' if same else 'DIFFERS'}")
        for metric, first in a["metrics"].items():
            x, y = first["value"], b["metrics"][metric]["value"]
            diff = abs(x - y) / max(abs(x), abs(y))
            allowed = 0.0 if metric in metrics.EXACT_METRICS else STABILITY_TOLERANCE
            ok = diff <= allowed
            unstable += not ok
            print(
                f"  {metric:<28} {x:>12.4f} {y:>12.4f}  diff {diff:6.2%}  "
                f"bound {limit[metric]:.0%}  {'ok' if ok else 'UNSTABLE'}"
            )
    print(f"{unstable} unstable metric(s)")
    return 1 if unstable else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all, each in a fresh process")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (reaches only the capture generator)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured loop seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced pass, spans file, per-layer metrics")
    parser.add_argument("--stability", action="store_true", help="run every workload twice and compare")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    if args.stability:
        return stability(args.seed, args.seconds)
    if args.workload is None:
        return run_all(args.seed, args.seconds, trace)
    spec = WORKLOADS[args.workload]
    result = run_workload(spec, args.seed, args.seconds, trace)
    print_report(result, trace)
    append_history(result, spec, args.seconds, trace)
    print(last_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
