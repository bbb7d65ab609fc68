"""Benchmark for the gazekit CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

Run from any directory; the checkout is the parent of this file's
directory. ``--trace 0`` starts ``SETUPS`` worker processes one after
another; each sets up (imports, input generation, one warm-up
invocation), and ``TIMED`` of them then run their share of
``--seconds`` of timed invocations. ``--trace 1`` starts one worker
that alternates untraced and traced invocations, then traces until the
per-call percentiles have their samples. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--smoke`` runs every workload both ways on tiny inputs and checks that
each metric named in BENCHMARK.json is emitted with its unit.

Exits 2 without a result when the checkout holds no gazekit sources,
and 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("evaluate", "curate", "captions", "gradients")

#: Worker processes per untraced run, one after another. setup_s is the
#: median of their set-ups. A set-up happens once per process and drifts
#: with the host, so a run takes more of them than it has timed workers.
SETUPS = 4

#: Workers that go on to timed invocations after their set-up;
#: norm_items_per_s pools their invocations and peak_rss_mb is their median.
TIMED = 3

#: Wall-clock budget of one run, kept under the 180 s a run may take.
DEADLINE_S = 170.0

#: Thread pins for every worker: one BLAS/OpenMP thread, so a worker uses
#: one core of the two this benchmark was tuned on and numeric results do
#: not depend on the thread count. A fixed hash seed keeps set iteration,
#: and with it the text metrics' work, the same from run to run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"setup_s": "s", "norm_items_per_s": "1/s", "peak_rss_mb": "MB", "passed_share": "ratio"}


class WorkerFailed(RuntimeError):
    pass


def sources_present() -> bool:
    return (REPO_ROOT / "src" / "gazekit" / "cli.py").is_file() and (
        REPO_ROOT / "scripts" / "make_synthetic_corpus.py"
    ).is_file()


def spawn_worker(workload, keys, size, mode, seconds, deadline, spans=None) -> dict:
    """Run one worker process to completion and return its JSON result."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--keys", ",".join(map(str, keys)), "--size", size, "--mode", mode,
            "--seconds", repr(seconds)]
    if spans:
        argv += ["--spans", str(spans)]
    env = dict(os.environ, **PINNED_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("run deadline passed before a worker could start")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], env=env, cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} worker exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool_keys(size: str, workload: str) -> list[int]:
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    return sorted(int(k) for k in recorded[size][workload])


def run_workload(workload, seed, seconds, trace, size="full", deadline=None):
    """Measure one workload; return (result JSON object, worker results)."""
    deadline = deadline or time.monotonic() + DEADLINE_S
    keys = pool_keys(size, workload)
    # The seed picks which recorded input sets this run uses and in what order.
    random.Random(f"{workload}:{seed}").shuffle(keys)
    if trace:
        spans = REPO_ROOT / ".perfbench" / "spans" / f"{workload}-seed{seed}.npz"
        workers = [spawn_worker(workload, keys, size, "traced", seconds, deadline, spans)]
    else:
        lone, rest = keys[:SETUPS - TIMED], keys[SETUPS - TIMED:]
        share = len(rest) // TIMED
        plan = [rest[i * share:(i + 1) * share] for i in range(TIMED)]
        # A worker given only its warm-up key sets up and stops; it runs
        # between the timed workers.
        for i, key in enumerate(lone):
            plan.insert(2 * i + 1, [key])
        workers = [spawn_worker(workload, part, size, "timed", seconds / TIMED, deadline) for part in plan]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if trace:
        metrics = workers[0]["layers"]
    else:
        values = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "norm_items_per_s": statistics.median(norm for w in workers for _, norm in w["samples"]),
            "peak_rss_mb": statistics.median(w["rss_mb"] for w in workers if w["samples"]),
            "passed_share": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, workers


def _summarize(descriptors: list[dict]) -> str:
    """Collapse per-input-set descriptors to min/median/max or distinct values."""
    parts = []
    for name in descriptors[0]:
        values = []
        for d in descriptors:
            values.extend(d[name] if isinstance(d[name], list) else [d[name]])
        if all(isinstance(v, (int, float)) for v in values):
            lo, mid, hi = min(values), statistics.median(values), max(values)
            parts.append(f"{name}={lo}" if lo == hi else f"{name}=[{lo}, {mid:g}, {hi}]")
        else:
            parts.append(f"{name}={'/'.join(sorted(set(map(str, values))))}")
    return " ".join(parts)


def report(workload, seed, trace, result, workers) -> None:
    """Print the human-readable lines that precede the JSON result."""
    env = workers[0]["environment"]
    print(f"workload {workload} seed {seed} trace {trace}")
    print(f"environment: nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} threads={env['threads']}")
    print(f"inputs (min, median, max): {_summarize([d for w in workers for d in w['descriptors']])}")
    for w in workers:
        for failure in w["failures"]:
            print(f"FAILED {failure}")
    if trace:
        w = workers[0]
        print(f"traced invocations {w['traced_invocations']} ({len(w['samples'])} alternating with "
              f"{len(w['untraced_samples'])} untraced for trace.overhead); "
              f"per-layer values are means per traced invocation")
        if w["thin_tails"]:
            print(f"percentiles read 0, too few calls beyond p90: {', '.join(w['thin_tails'])}")
        top = ", ".join(f"{name} {share:.1%}" for name, share in list(w["cli_shares"].items())[:6])
        print(f"self-time shares inside the CLI commands: {top}")
    else:
        samples = [raw for w in workers for raw, _ in w["samples"]]
        raw_setup = statistics.median(w["setup_raw_s"] for w in workers)
        writing = statistics.median(w["setup_writing_s"] for w in workers)
        counts = {"setup_s": f"median of {len(workers)} set-ups, normalized; wall clock {raw_setup:.4g} s, "
                             f"of which {writing:.3g} s kernel time writing inputs",
                  "norm_items_per_s": f"median of {len(samples)} invocations",
                  "peak_rss_mb": f"median of {TIMED} timed processes",
                  "passed_share": f"failed_share {result['failed']}/{result['attempted']}"}
        for name, metric in result["metrics"].items():
            print(f"{name:<16} {metric['value']:.6g} {metric['unit']} ({counts[name]})")
        print(f"{'items_per_s':<16} {statistics.median(samples):.6g} 1/s "
              f"(median of {len(samples)} invocations, wall clock, not normalized)")


def smoke() -> int:
    """Every workload both ways on tiny inputs; check names, units and the gate."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            start = time.monotonic()
            result, _ = run_workload(workload, 0, 1.0, trace, size="smoke")
            emitted = result["metrics"]
            for metric in declared[section]:
                got = emitted.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace {trace}: {metric['name']} missing or wrong unit")
            extra = set(emitted) - {metric["name"] for metric in declared[section]}
            if extra:
                problems.append(f"{workload} trace {trace}: undeclared metrics {sorted(extra)}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed invocations")
            print(f"smoke {workload:<9} trace {trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} invocations, {result['failed']} failed, "
                  f"{time.monotonic() - start:.1f} s")
    for problem in problems:
        print(problem)
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, name check")
    args = parser.parse_args(argv)
    if not sources_present():
        print(f"no gazekit sources under {REPO_ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        result, workers = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, result, workers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
