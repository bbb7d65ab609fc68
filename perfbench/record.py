"""Record the exit codes and output digests the benchmark gates on.

    python3 perfbench/record.py                 # every size and workload
    python3 perfbench/record.py --size smoke --workloads captions

Runs every pool key of the chosen workloads once, in two worker
processes at a time, and writes the results into ``digests.json``. The
file pins the bytes of every CLI output at the commit it was recorded
on; re-record only with a change that declares why its outputs differ.
"""

from __future__ import annotations

import argparse
import json
import time
from concurrent.futures import ThreadPoolExecutor

from run import BENCH_DIR, WORKLOADS, spawn_worker

#: Input sets per workload. A full run uses at most this many, so a run
#: ends early once a much faster program has used them all.
POOL = {"full": 160, "smoke": 12}

PARALLEL = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=tuple(POOL), action="append")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    path = BENCH_DIR / "digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    deadline = time.monotonic() + 24 * 3600
    for size in args.size or list(POOL):
        for workload in args.workloads:
            keys = list(range(POOL[size]))
            chunks = [keys[i::PARALLEL] for i in range(PARALLEL)]
            with ThreadPoolExecutor(PARALLEL) as pool:
                results = list(pool.map(
                    lambda chunk: spawn_worker(workload, chunk, size, "record", 0.0, deadline), chunks
                ))
            digests = {}
            for result in results:
                digests.update(result["digests"])
            recorded.setdefault(size, {})[workload] = {str(k): digests[str(k)] for k in keys}
            print(f"{size} {workload}: {len(digests)} input sets recorded")
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
