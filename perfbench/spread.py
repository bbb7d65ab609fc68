"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py --seeds 10                 # every workload
    python3 perfbench/spread.py --seeds 5 --workloads captions
    python3 perfbench/spread.py --compare A.json B.json    # two sets of runs

Runs the benchmark command once per seed and workload, rotating the
workload order from one seed to the next so that slow spells of the
host do not always land on the same workload. For each workload and
metric it prints the median of the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median, next to the metric's bound; a spread should stay
below a third of its bound. Raw results go to ``.perfbench/spread-*.json``.
``--compare`` checks that no median of the second set is worse than the
first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def _declared() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def collect(seeds: list[int], workloads: list[str]) -> dict:
    bench = _declared()
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for index, seed in enumerate(seeds):
        shift = index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(argv, cwd=REPO_ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.monotonic() - start
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {workload:<9} {result['wall_s']:5.1f} s  {values}", flush=True)
    return runs


def medians(runs: dict) -> dict:
    return {
        workload: {name: statistics.median(r["metrics"][name]["value"] for r in results)
                   for name in results[0]["metrics"]}
        for workload, results in runs.items()
    }


def spread_table(runs: dict) -> bool:
    """Print median and quartile spread per metric; True when all are steady."""
    steady = True
    for metric in _declared()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload, results in runs.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            steady = steady and ok
            print(f"{name:<13} {workload:<9} median {median:10.5g}  spread {spread:6.3f}  "
                  f"bound {bound:.3f}  {'ok' if ok else 'WIDE'}")
    return steady


def compare(first: dict, second: dict) -> bool:
    """True when no median of ``second`` is worse than ``first`` by more than its bound."""
    fine = True
    a, b = medians(first), medians(second)
    for metric in _declared()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in a:
            change = (b[workload][name] - a[workload][name]) / a[workload][name]
            worse = -change if metric["better"] == "higher" else change
            ok = worse <= bound
            fine = fine and ok
            print(f"{name:<13} {workload:<9} {a[workload][name]:10.5g} -> {b[workload][name]:10.5g}  "
                  f"{change:+.3f}  bound {bound:.3f}  {'ok' if ok else 'WORSE'}")
    return fine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--compare", nargs=2, metavar="RESULTS", help="two raw result files")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    workloads = args.workloads or [w["name"] for w in _declared()["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    runs = collect(seeds, workloads)
    out = REPO_ROOT / ".perfbench" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs))
    print(f"raw results: {out}")
    return 0 if spread_table(runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
