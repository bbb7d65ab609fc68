"""One benchmark process: set up, then run one workload through gazekit.cli.

Started by ``run.py`` (or ``record.py``), never by hand. The process
imports ``gazekit`` from the checkout's ``src`` directory, generates
each invocation's input set just before it, calls ``gazekit.cli.main``
in-process with stdout and stderr captured, and gates every call on
its exit code and the sha256 of each output against ``digests.json``.
The last line of its standard output is one JSON object for the parent.

Modes:

* ``timed``: one warm-up invocation, then timed invocations until
  ``--seconds`` have passed. Set-up time runs from ``--spawned-at`` (the
  parent's monotonic clock just before it started this process) to the
  end of the warm-up invocation. Set-up and each timed invocation also
  sample the host's speed, see ``HostSpeedSampler``.
* ``traced``: after the warm-up, untraced and traced invocations
  alternate for ``--seconds``, so the tracing overhead is measured under
  the same host conditions. Traced invocations then go on until every
  per-call percentile has its samples (``tracing.tails_complete``), for
  at most ``TAIL_MAX_S``. Spans are written to ``--spans`` at the end.
  Nothing samples the host here, so span times are undisturbed.
* ``record``: run each key once and print its exit codes and digests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def _import_gazekit():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import gazekit

    if not Path(gazekit.__file__).resolve().is_relative_to(REPO_ROOT / "src"):
        raise SystemExit(f"gazekit imported from {gazekit.__file__}, not from this checkout")
    from gazekit import cli

    return cli


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_call(cli, call, sampler=None):
    """Run one CLI call; return (seconds, [exit code, [output digests]]).

    With a ``HostSpeedSampler``, the host is sampled while ``cli.main``
    runs and the time the samples took is left out of the seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    spent_before = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler or contextlib.nullcontext():
            rc = cli.main(call.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed call, not a crashed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start - ((sampler.spent if sampler else 0.0) - spent_before)
    digests = []
    for path in call.outputs:
        digests.append(_sha256(path.read_bytes()) if path.exists() else "missing")
    if call.stdout_gated:
        digests.append(_sha256(out.getvalue().encode("utf-8")))
    return elapsed, [rc, digests]


class Session:
    """The input sets, gate and clock of one worker process."""

    def __init__(self, args, cli, workloads):
        self.args = args
        self.cli = cli
        self.workloads = workloads
        self.workdir = REPO_ROOT / ".perfbench" / "work" / str(os.getpid())
        self.expected = {}
        if args.mode != "record":
            recorded = json.loads((BENCH_DIR / "digests.json").read_text())
            self.expected = recorded[args.size][args.workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.descriptors: list[dict] = []

    def prepare(self, key: int):
        root = self.workdir / str(key)
        shutil.rmtree(root, ignore_errors=True)
        inputs = self.workloads.make_inputs(self.args.workload, key, root, self.args.size)
        self.descriptors.append(inputs.descriptors)
        return root, inputs

    def invoke(self, key: int, root: Path, inputs, sampler=None) -> float:
        """Run and gate one invocation; return its items/s by the wall clock.

        A ``sampler`` samples the host inside every CLI call of it.
        """
        gc.collect()
        elapsed = 0.0
        observed = []
        for call in inputs.calls:
            seconds, result = _run_call(self.cli, call, sampler)
            elapsed += seconds
            observed.append(result)
        shutil.rmtree(root, ignore_errors=True)
        self.attempted += 1
        if self.args.mode != "record" and observed != self.expected.get(str(key)):
            self.failures.append(f"key {key}: got {observed}, recorded {self.expected.get(str(key))}")
        self.last_observed = observed
        return inputs.items / elapsed

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


#: Duration of ``_reference_kernel`` at the reference host speed: the
#: median on a 2-vCPU x86-64 host with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.0022

#: Reference kernel runs before and after a timed invocation.
REFERENCE_RUNS = 4

#: Seconds between reference kernel runs during a timed invocation.
SAMPLE_INTERVAL_S = 0.025

_REFERENCE_ARRAY = np.linspace(1.0, 2.0, 4096)


def _reference_kernel() -> None:
    # Interpreter work and small-array numpy dispatch, the two kinds of
    # work every workload is made of.
    total = 0
    for i in range(20000):
        total += i * i
    values = _REFERENCE_ARRAY
    for _ in range(80):
        values = np.sqrt(values + 1.0)


def _reference_times() -> list[float]:
    """Durations of a few reference kernel runs: the host's current speed."""
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def _slowness(reference: list[float]) -> float:
    """The host's slowness against the reference speed: above 1 is slower."""
    return statistics.median(reference) / REFERENCE_S


class HostSpeedSampler:
    """Runs the reference kernel from a timer signal inside its ``with`` block.

    The host's speed drifts by tens of percent within seconds, and it
    slows the reference kernel and gazekit alike, so the kernel's
    duration sampled during a CLI call (or the set-up) measures the
    speed that call ran at. ``spent`` is the time the samples took, to
    be taken off the call's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _system_time() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


def _timed(session, keys, seconds):
    # Set-up is sampled like a timed invocation and normalized the same
    # way; only interpreter start and the imports run before sampling can.
    # The kernel's time to create the input files is left out: it swings
    # several-fold with the host's file-system state (curate writes 1,360
    # files), which the reference kernel does not see.
    reference = _reference_times()
    with HostSpeedSampler() as sampler:
        before = _system_time()
        root, inputs = session.prepare(keys[0])
        writing = _system_time() - before
        session.invoke(keys[0], root, inputs)  # warm-up
    setup_raw = time.monotonic() - session.args.spawned_at - sampler.spent - sum(reference)
    reference += sampler.samples + _reference_times()
    setup = {"setup_s": (setup_raw - writing) / _slowness(reference), "setup_raw_s": setup_raw,
             "setup_writing_s": writing}
    samples = []
    loop_start = time.monotonic()
    for key in keys[1:]:
        root, inputs = session.prepare(key)
        sampler = HostSpeedSampler()
        reference = _reference_times()
        raw = session.invoke(key, root, inputs, sampler)
        reference += sampler.samples + _reference_times()
        samples.append((raw, raw * _slowness(reference)))
        if _out_of_time(loop_start, len(samples), seconds):
            break
    return dict(setup, samples=samples)


def _out_of_time(loop_start: float, done: int, seconds: float) -> bool:
    """True when one more invocation of average length would overrun ``seconds``."""
    spent = time.monotonic() - loop_start
    return spent + spent / done > seconds


#: Longest stretch of traced-only invocations after ``--seconds``, spent
#: only while some per-call percentile still lacks its samples.
TAIL_MAX_S = 45.0


def _traced(session, keys, seconds):
    import tracing

    root, inputs = session.prepare(keys[0])
    session.invoke(keys[0], root, inputs)  # warm-up
    recorder = tracing.Recorder()
    untraced, traced = [], []
    invocations = 0

    def traced_invocation(key):
        nonlocal invocations
        recorder.current = invocations
        recorder.install()
        try:
            root, inputs = session.prepare(key)
            rate = session.invoke(key, root, inputs)
        finally:
            recorder.remove()
        invocations += 1
        return rate

    loop_start = time.monotonic()
    for plain_key, traced_key in zip(keys[1::2], keys[2::2]):
        root, inputs = session.prepare(plain_key)
        untraced.append(session.invoke(plain_key, root, inputs))
        traced.append(traced_invocation(traced_key))
        if _out_of_time(loop_start, len(traced), seconds):
            break
    # evaluate calls each saliency function five times per invocation, so
    # its tails need more traced invocations than --seconds holds.
    tail_start = time.monotonic()
    for key in keys[1 + 2 * len(traced):]:
        if recorder.tails_complete() or time.monotonic() - tail_start > TAIL_MAX_S:
            break
        traced_invocation(key)
    if session.args.spans:
        Path(session.args.spans).parent.mkdir(parents=True, exist_ok=True)
        recorder.save(session.args.spans)
    values = recorder.layer_metrics(invocations)
    values["trace.items_per_s"] = statistics.median(traced)
    values["trace.untraced_items_per_s"] = statistics.median(untraced)
    values["trace.overhead"] = values["trace.untraced_items_per_s"] / values["trace.items_per_s"]
    layers = {name: {"value": values[name], "unit": unit} for name, unit in tracing.metric_units().items()}
    return {"layers": layers, "cli_shares": recorder.cli_shares(), "samples": traced,
            "untraced_samples": untraced, "traced_invocations": invocations,
            "thin_tails": recorder.thin_tails()}


def _record(session, keys):
    digests = {}
    for key in keys:
        root, inputs = session.prepare(key)
        session.invoke(key, root, inputs)
        digests[str(key)] = session.last_observed
    return {"digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--keys", required=True, help="comma-separated pool keys, warm-up first")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("timed", "traced", "record"), default="timed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()

    cli = _import_gazekit()
    import workloads

    keys = [int(k) for k in args.keys.split(",")]
    session = Session(args, cli, workloads)
    try:
        if args.mode == "timed":
            result = _timed(session, keys, args.seconds)
        elif args.mode == "traced":
            result = _traced(session, keys, args.seconds)
        else:
            result = _record(session, keys)
    finally:
        session.close()
    result.update(
        attempted=session.attempted,
        failed=len(session.failures),
        failures=session.failures[:5],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        descriptors=session.descriptors,
        environment=_environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
