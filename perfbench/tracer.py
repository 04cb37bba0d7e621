"""Function-boundary tracing of ulmkit from outside the package.

``patch`` swaps a function for a wrapper everywhere ulmkit refers to it: the
defining module, every ulmkit module that imported the name (``from .x import
f``), or the class that owns a method. ``Tracer`` uses it to record one span
per call (name, parent span, start, end) plus per-call counts, all in memory;
``report`` derives calls, busy time, median time and self time per function.
Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict


class patch:
    """Replace ``owner.attr`` (and every ulmkit alias of it) with
    ``make(original)`` until ``undo`` is called."""

    def __init__(self, owner, attr: str, make):
        self.original = getattr(owner, attr)
        self.wrapper = make(self.original)
        self.sites = [(owner, attr)]
        if not isinstance(owner, type):
            self.sites = [(mod, name) for mod in list(sys.modules.values())
                          if getattr(mod, "__name__", "").startswith("ulmkit")
                          for name, value in list(vars(mod).items())
                          if value is self.original]
        for obj, name in self.sites:
            setattr(obj, name, self.wrapper)

    def undo(self) -> None:
        for obj, name in self.sites:
            setattr(obj, name, self.original)


def _tokens_out(args, kwargs, out) -> tuple[str, float]:
    return "tokens", len(out)


def _graph_nodes(args, kwargs, out) -> tuple[str, float]:
    return "graph_nodes", len(out)


def _file_bytes(args, kwargs, out) -> tuple[str, float]:
    return "bytes", os.path.getsize(args[0])


def targets():
    """(span name, owner, attribute, per-call count) for every traced function."""
    from ulmkit import checkpoint, cli, evalbench, model, tensor, textpipe, train

    return [
        ("textpipe.preprocess", textpipe, "preprocess", _tokens_out),
        ("textpipe.numericalize", textpipe, "numericalize", None),
        ("textpipe.build_vocab", textpipe, "build_vocab", None),
        ("tensor.backward", tensor, "backward", None),
        ("tensor.topo_order", tensor, "topo_order", _graph_nodes),
        ("tensor.cross_entropy", tensor, "cross_entropy", None),
        ("model.AwdLstmLM.forward", model.AwdLstmLM, "forward", None),
        ("model.LstmLayer.forward", model.LstmLayer, "forward", None),
        ("model.embedding_dropout", model, "embedding_dropout", None),
        ("model.TextClassifier.forward", model.TextClassifier, "forward", None),
        ("train.pretrain_lm", train, "pretrain_lm", None),
        ("train.finetune_lm", train, "finetune_lm", None),
        ("train.finetune_classifier", train, "finetune_classifier", None),
        ("train.adam_step", train, "adam_step", None),
        ("train.clip_gradients", train, "clip_gradients", None),
        ("evalbench.evaluate", evalbench, "evaluate", None),
        ("evalbench.run_degradation_suite", evalbench, "run_degradation_suite", None),
        ("evalbench.top_losses", evalbench, "top_losses", None),
        ("evalbench.per_example_losses", evalbench, "per_example_losses", None),
        ("checkpoint.save_checkpoint", checkpoint, "save_checkpoint", _file_bytes),
        ("checkpoint.load_checkpoint", checkpoint, "load_checkpoint", _file_bytes),
        ("checkpoint.Checkpoint.build_model", checkpoint.Checkpoint, "build_model", None),
        ("cli.main", cli, "main", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[patch] = []

    def _wrap(self, name: str, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
                stack.append(len(spans))
                spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter()
                    stack.pop()
                if count is not None:
                    key, value = count(args, kwargs, out)
                    counts[f"{name}.{key}"].append(value)
                return out
            return traced
        return make

    def install(self) -> None:
        self._patches = [patch(owner, attr, self._wrap(name, count))
                         for name, owner, attr, count in targets()]

    def uninstall(self) -> None:
        for p in reversed(self._patches):
            p.undo()
        self._patches = []

    def _self_s(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end in self.spans]
        for (_, parent, start, end) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def report(self) -> dict[str, dict]:
        """Per traced function: calls, busy seconds, median ms, self seconds."""
        per: dict[str, dict] = defaultdict(lambda: {"durations": [], "self_s": 0.0})
        for (name, _, start, end), own in zip(self.spans, self._self_s()):
            per[name]["durations"].append(end - start)
            per[name]["self_s"] += own
        out = {}
        for name, d in per.items():
            durations = d["durations"]
            out[name] = {"calls": len(durations), "busy_s": sum(durations),
                         "median_ms": 1e3 * statistics.median(durations),
                         "self_s": d["self_s"]}
        return out

    def self_times(self, name: str) -> list[float]:
        """Self seconds of each span called ``name``."""
        return [own for span, own in zip(self.spans, self._self_s()) if span[0] == name]


MODULES = ("textpipe", "tensor", "model", "train", "evalbench", "checkpoint", "cli")


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics; a function the workload never called reads 0."""
    rep = tracer.report()

    def stat(name, key):
        return rep[name][key] if name in rep else 0.0

    def median_count(key):
        values = tracer.counts.get(key)
        return float(statistics.median(values)) if values else 0.0

    text_busy = stat("textpipe.preprocess", "busy_s") + stat("textpipe.numericalize", "busy_s")
    tokens = sum(tracer.counts.get("textpipe.preprocess.tokens", []))
    steps = stat("train.clip_gradients", "calls")
    cli_self = tracer.self_times("cli.main")
    out = {
        "textpipe.tokens_per_s": (tokens / text_busy if text_busy else 0.0, "tokens/s"),
        "textpipe.build_vocab_ms": (stat("textpipe.build_vocab", "median_ms"), "ms"),
        "tensor.backward_ms": (stat("tensor.backward", "median_ms"), "ms"),
        "tensor.graph_nodes_per_step": (median_count("tensor.topo_order.graph_nodes"), "count"),
        "tensor.cross_entropy_ms": (stat("tensor.cross_entropy", "median_ms"), "ms"),
        "model.lm_forward_ms": (stat("model.AwdLstmLM.forward", "median_ms"), "ms"),
        "model.lstm_layer_ms": (stat("model.LstmLayer.forward", "median_ms"), "ms"),
        "model.embedding_dropout_ms": (stat("model.embedding_dropout", "median_ms"), "ms"),
        "model.clf_forward_ms": (stat("model.TextClassifier.forward", "median_ms"), "ms"),
        "train.adam_ms": (1e3 * stat("train.adam_step", "busy_s") / steps if steps else 0.0, "ms"),
        "train.clip_ms": (1e3 * stat("train.clip_gradients", "busy_s") / steps if steps else 0.0,
                          "ms"),
        "train.lm_finetune_s": (stat("train.finetune_lm", "median_ms") / 1e3, "s"),
        "train.clf_finetune_s": (stat("train.finetune_classifier", "median_ms") / 1e3, "s"),
        "evalbench.evaluate_ms": (stat("evalbench.evaluate", "median_ms"), "ms"),
        "evalbench.per_example_losses_ms": (stat("evalbench.per_example_losses", "median_ms"),
                                            "ms"),
        "checkpoint.load_ms": (stat("checkpoint.load_checkpoint", "median_ms"), "ms"),
        "checkpoint.build_model_ms": (stat("checkpoint.Checkpoint.build_model", "median_ms"),
                                      "ms"),
        "checkpoint.save_ms": (stat("checkpoint.save_checkpoint", "median_ms"), "ms"),
        "checkpoint.bytes": (median_count("checkpoint.load_checkpoint.bytes")
                             or median_count("checkpoint.save_checkpoint.bytes"), "B"),
        "cli.self_ms": (1e3 * statistics.median(cli_self) if cli_self else 0.0, "ms"),
    }
    root_s = sum(end - start for _, parent, start, end in tracer.spans if parent < 0)
    for module in MODULES:
        self_s = sum(v["self_s"] for k, v in rep.items() if k.split(".")[0] == module)
        out[f"{module}.self_pct"] = (100.0 * self_s / root_s if root_s else 0.0, "%")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
