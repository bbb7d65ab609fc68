"""Span recorders on gazekit's public functions, and the per-layer metrics.

``Recorder.install`` replaces each function named in ``LAYERS`` with a
wrapper at every name a ``gazekit`` module binds it to (``kl_div`` alone
is bound in saliency, curation, objectives, gradcheck, cli and the
package root), so calls made inside the library are seen as well as
calls from the CLI. ``Recorder.remove`` puts the originals back. A span
holds the function, start and end on the monotonic clock, the span that
caused it, the traced invocation it belongs to, and whether it raised.
Spans stay in memory until ``save`` writes them out at the end of a run.

A span's self time is its duration minus the durations of its direct
child spans. The program is single-threaded, so no layer waits on
another and self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np

#: Traced functions per gazekit module. find_anchors is traced only to
#: count anchors.
LAYERS = {
    "saliency": ("auc_borji", "auc_judd", "cc", "sim", "nss", "kl_div"),
    "mapio": ("load_map", "load_fixations", "save_map", "save_fixations"),
    "grids": ("normalize_to_simplex", "spatial_softmax", "gaussian_blur"),
    "curation": ("kl_curve", "curate_video", "select_target", "find_anchors"),
    "textmetrics": ("cider", "bleu", "rouge_l", "tokenize", "score_captions"),
    "captions": ("parse_caption",),
    "manifests": ("write_metrics_table", "write_manifest"),
    "objectives": ("loss_gaze", "grad_loss_gaze", "loss_caption", "grad_loss_caption"),
    "alignment": ("info_nce", "grad_info_nce", "align_path_loss", "align_path_weight_grad"),
    "gradcheck": ("central_difference", "run_gradient_checks"),
    "cli": ("cmd_evaluate", "cmd_curate", "cmd_caption_eval", "cmd_grad_check"),
}

#: Reported statistics per traced function.
_REPORTED = [
    (("saliency", ("auc_borji", "auc_judd", "cc", "sim", "nss", "kl_div")),
     ("calls", "self_s", "p50_us", "p90_us")),
    (("mapio", ("load_map", "load_fixations")), ("calls", "self_s", "p50_us")),
    (("mapio", ("save_map", "save_fixations")), ("calls", "self_s")),
    (("grids", ("normalize_to_simplex", "spatial_softmax", "gaussian_blur")), ("calls", "self_s")),
    (("curation", ("kl_curve", "curate_video")), ("self_s",)),
    (("curation", ("select_target",)), ("calls", "self_s")),
    (("textmetrics", ("cider", "bleu", "rouge_l")), ("calls", "self_s", "p50_us", "p90_us")),
    (("textmetrics", ("tokenize", "score_captions")), ("calls", "self_s")),
    (("captions", ("parse_caption",)), ("calls", "self_s")),
    (("manifests", ("write_metrics_table", "write_manifest")), ("self_s",)),
    (("objectives", LAYERS["objectives"]), ("calls", "self_s")),
    (("alignment", LAYERS["alignment"]), ("calls", "self_s")),
    (("gradcheck", LAYERS["gradcheck"]), ("calls", "self_s")),
    (("cli", LAYERS["cli"]), ("self_s",)),
]

_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p90_us": "us"}

#: Counters computed from arguments and results, with their units.
COUNTERS = {
    "saliency.errors": "count",
    "mapio.bytes_read": "B",
    "curation.anchors": "count",
    "curation.pairs_kept": "count",
    "curation.kl_per_pair": "ratio",
    "captions.parse_errors": "count",
    "manifests.bytes_written": "B",
}

#: Traced and untraced wall-clock throughput, and their ratio.
OVERHEAD = {
    "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {}
    for (layer, functions), stats in _REPORTED:
        for function in functions:
            for stat in stats:
                units[f"{layer}.{function}.{stat}"] = _UNITS[stat]
    units.update(COUNTERS)
    units.update(OVERHEAD)
    return units


#: Functions whose per-call durations are reported as percentiles.
_TAILED = [
    f"{layer}.{function}"
    for (layer, functions), stats in _REPORTED if "p50_us" in stats
    for function in functions
]

#: Calls beyond p90 a percentile needs before it is reported.
TAIL_SAMPLES = 10


def _tail_ok(samples: np.ndarray) -> bool:
    return samples.size > 0 and int((samples > np.percentile(samples, 90)).sum()) >= TAIL_SAMPLES


# Counter updates taken after a traced call returns: (counter, value of
# the call's first argument and result).
_HOOKS = {
    "mapio.load_map": ("mapio.bytes_read", lambda args, result: os.path.getsize(args[0])),
    "mapio.load_fixations": ("mapio.bytes_read", lambda args, result: os.path.getsize(args[0])),
    "manifests.write_metrics_table": ("manifests.bytes_written", lambda args, result: os.path.getsize(args[0])),
    "manifests.write_manifest": ("manifests.bytes_written", lambda args, result: os.path.getsize(args[0])),
    "curation.find_anchors": ("curation.anchors", lambda args, result: len(result)),
    "curation.curate_video": ("curation.pairs_kept", lambda args, result: len(result)),
}


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.invocation = array("q")
        self.error = array("b")
        self.counters: dict[str, float] = {counter: 0.0 for counter, _ in _HOOKS.values()}
        #: Index of the traced invocation that new spans belong to.
        self.current = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn):
        rec = self
        hook = _HOOKS.get(self.names[fid])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(rec.fid)
            rec.fid.append(fid)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.invocation.append(rec.current)
            rec.end.append(0)
            rec.error.append(0)
            rec._stack.append(index)
            rec.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.error[index] = 1
                raise
            finally:
                rec.end[index] = perf_counter_ns()
                rec._stack.pop()
            if hook is not None:
                rec.counters[hook[0]] += hook[1](args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each name a gazekit module binds."""
        modules = [m for name, m in sys.modules.items() if name == "gazekit" or name.startswith("gazekit.")]
        for layer, functions in LAYERS.items():
            home = importlib.import_module(f"gazekit.{layer}")
            for function in functions:
                original = getattr(home, function)
                name = f"{layer}.{function}"
                if name not in self.names:
                    self.names.append(name)
                wrapper = self._wrap(self.names.index(name), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.array(self.fid, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "invocation": np.array(self.invocation, dtype=np.int64),
            "error": np.array(self.error, dtype=np.int8),
        }

    def save(self, path) -> None:
        """Write every span, and the function names fid indexes, to ``path``."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def _durations(self):
        spans = self.arrays()
        duration = spans["end_ns"] - spans["start_ns"]
        child = np.zeros(len(duration), dtype=np.int64)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], duration[has_parent])
        return spans, duration, duration - child

    def cli_shares(self) -> dict[str, float]:
        """Each function's share of the self time spent inside CLI commands.

        Spans outside a ``cli.cmd_*`` span, such as the map writers that
        generate inputs, are left out.
        """
        spans, _, self_ns = self._durations()
        commands = {self.names.index(f"cli.{name}") for name in LAYERS["cli"]}
        inside = np.zeros(len(self_ns), dtype=bool)
        for index, (fid, parent) in enumerate(zip(spans["fid"].tolist(), spans["parent"].tolist())):
            inside[index] = fid in commands or (parent >= 0 and inside[parent])
        totals = np.bincount(spans["fid"][inside], weights=self_ns[inside], minlength=len(self.names))
        total = totals.sum()
        shares = {name: float(t / total) for name, t in zip(self.names, totals) if t > 0}
        return dict(sorted(shares.items(), key=lambda item: -item[1]))

    def thin_tails(self) -> list[str]:
        """Called functions whose percentiles lack ``TAIL_SAMPLES`` calls beyond p90."""
        spans, duration, _ = self._durations()
        thin = []
        for name in _TAILED:
            samples = duration[spans["fid"] == self.names.index(name)]
            if samples.size and not _tail_ok(samples):
                thin.append(name)
        return thin

    def tails_complete(self) -> bool:
        return not self.thin_tails()

    def _errors(self, names) -> int:
        spans = self.arrays()
        fids = [self.names.index(name) for name in names]
        return int(spans["error"][np.isin(spans["fid"], fids)].sum())

    def layer_metrics(self, invocations: int) -> dict[str, float]:
        """Per-layer metrics as means per traced invocation.

        Percentiles are per-call durations over every traced call; they
        are reported only when at least ``TAIL_SAMPLES`` calls lie beyond
        p90, and read 0 otherwise, as they do for a function never called.
        """
        spans, duration, self_ns = self._durations()
        metrics = {}
        for name in metric_units():
            head, _, stat = name.rpartition(".")
            if head not in self.names:
                continue
            mask = spans["fid"] == self.names.index(head)
            if stat == "calls":
                metrics[name] = int(mask.sum()) / invocations
            elif stat == "self_s":
                metrics[name] = float(self_ns[mask].sum()) / 1e9 / invocations
            elif stat in ("p50_us", "p90_us"):
                samples = duration[mask]
                q = 50 if stat == "p50_us" else 90
                metrics[name] = float(np.percentile(samples, q)) / 1e3 if _tail_ok(samples) else 0.0
        for name in self.counters:
            metrics[name] = self.counters[name] / invocations
        metrics["saliency.errors"] = self._errors([f"saliency.{f}" for f in LAYERS["saliency"]]) / invocations
        metrics["captions.parse_errors"] = self._errors(["captions.parse_caption"]) / invocations
        pairs = metrics["curation.pairs_kept"]
        kl_calls = metrics["saliency.kl_div.calls"]
        metrics["curation.kl_per_pair"] = kl_calls / pairs if pairs else 0.0
        return metrics
