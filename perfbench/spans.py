"""Span tracing of titletag from outside the package.

install() wraps the public functions at each module boundary of titletag
(listed in TARGETS) and records one span per call: name, start, end and
parent span, plus exact counts of the work the call was given. The wrappers
replace every binding of a function, including names that other titletag
modules imported with `from .x import f`, and uninstall() restores them.

Per-position helpers such as crf.extract_features and Gazetteer.lookup are
left unwrapped on purpose: they run once per token, and wrapping them would
make the tracing overhead swamp what it measures.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

PACKAGE = "titletag"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_featurize(args, kwargs, out):
    return {"positions": len(_arg(args, kwargs, 1, "tokens"))}


def _count_marginals(args, kwargs, out):
    emissions = _arg(args, kwargs, 0, "emissions")
    return {"cells": emissions.size // emissions.shape[-1]}


def _count_lstm_run(args, kwargs, out):
    cell, xs = args[0], _arg(args, kwargs, 1, "xs")
    batch, steps = xs.shape[0], xs.shape[1]
    width = cell.input_dim + cell.hidden
    # One (B, in+H) x (in+H, 4H) product per step.
    return {"rows": batch * steps, "batch": batch,
            "gemm_flops": 2 * batch * steps * width * 4 * cell.hidden}


def _count_lstm_backprop(args, kwargs, out):
    cell, dhs = args[0], _arg(args, kwargs, 2, "dhs")
    batch, steps = dhs.shape[0], dhs.shape[1]
    width = cell.input_dim + cell.hidden
    # Two products per step: dz^T @ xh for dW and dz @ W for dxh.
    return {"gemm_flops": 2 * 2 * batch * steps * width * 4 * cell.hidden}


def _count_clip(args, kwargs, norm):
    max_norm = _arg(args, kwargs, 1, "max_norm")
    return {"clipped": int(max_norm is not None and norm > max_norm and norm > 0.0)}


def _count_file_arg(pos: int, name: str):
    def count(args, kwargs, out):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, name))}
    return count


def _count_command(args, kwargs, out):
    argv = list(_arg(args, kwargs, 0, "argv"))
    return {"command": " ".join(argv[:2] if argv[:1] == ["train"] else argv[:1])}


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    count: Callable | None = None

    @property
    def span(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("cli", "main", _count_command),
    Target("corpus", "load_corpus"),
    Target("gazetteer", "read_gazetteer"),
    Target("labeling", "read_conll"),
    Target("labeling", "write_conll"),
    Target("labeling", "dumps_conll"),
    Target("crf", "train_crf"),
    Target("crf", "CrfModel.featurize", _count_featurize),
    Target("crf", "CrfModel.emissions"),
    Target("crf", "CrfModel.load"),
    Target("crf", "CrfModel.save"),
    Target("crf", "nll_and_gradient"),
    Target("crf", "sequence_marginals", _count_marginals),
    Target("crf", "viterbi_decode"),
    Target("crf", "viterbi_path"),
    Target("lstm", "LstmCell.run", _count_lstm_run),
    Target("lstm", "LstmCell.backprop", _count_lstm_backprop),
    Target("lstm", "softmax_ce"),
    Target("neural", "train_lstm_crf"),
    Target("neural", "LstmCrfModel.encode"),
    Target("neural", "LstmCrfModel.predict"),
    Target("neural", "LstmCrfModel.load"),
    Target("neural", "LstmCrfModel.save"),
    Target("optim", "clip_grads_", _count_clip),
    Target("optim", "Sgd.step"),
    Target("optim", "Adam.step"),
    Target("title2vec", "train_bilm"),
    Target("title2vec", "embed_title"),
    Target("title2vec", "write_embeddings", _count_file_arg(1, "path")),
    Target("title2vec", "read_embeddings"),
    Target("title2vec", "BiLmModel.load"),
    Target("title2vec", "BiLmModel.save"),
    Target("evaluation", "score"),
    Target("model_io", "load_model", _count_file_arg(0, "path")),
    Target("model_io", "save_model", _count_file_arg(0, "path")),
    Target("model_io", "file_hash"),
)


class Tracer:
    """In-memory span log; each span is [name, start, end, parent index, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                record[4] = count(args, kwargs, out)
            return out

        return traced


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target in place; returns a function that restores them all."""
    importlib.import_module(f"{PACKAGE}.cli")
    undo: list[tuple[object, str, object]] = []
    for target in TARGETS:
        module = importlib.import_module(f"{PACKAGE}.{target.module}")
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(target.span, raw.__func__, target.count))
            else:
                wrapped = tracer.wrap(target.span, raw, target.count)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(target.span, original, target.count)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def unwrapped_bindings() -> list[str]:
    """Module-level names in titletag, also inside module-level containers,
    that still refer to a target function without its wrapper."""
    originals = {}
    for target in TARGETS:
        if "." in target.qualname:
            continue
        fn = getattr(importlib.import_module(f"{PACKAGE}.{target.module}"), target.qualname)
        originals[id(getattr(fn, "__wrapped__", fn))] = target.span
    missed = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            inner = value.values() if isinstance(value, dict) else (
                value if isinstance(value, (list, tuple)) else ())
            for candidate in (value, *inner):
                if id(candidate) in originals:
                    missed.append(f"{mod.__name__}.{key} -> {originals[id(candidate)]}")
    return missed


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


def aggregate(spans: list[list]) -> dict[str, SpanStats]:
    """Calls, inclusive and self time, durations and summed counts per span name.

    Self time is a span's duration minus the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for k, (name, start, end, _, counts) in enumerate(spans):
        entry = stats.setdefault(name, SpanStats())
        duration = end - start
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += duration - child_time[k]
        entry.durations.append(duration)
        for key, value in (counts or {}).items():
            if isinstance(value, int):
                entry.counts[key] = entry.counts.get(key, 0) + value
    return stats


def calls_per_command(spans: list[list], name: str) -> dict[str, float]:
    """Mean number of `name` spans under each kind of cli.main command."""
    commands: dict[str, int] = {}
    inner: dict[str, int] = {}
    root_command: dict[int, str] = {}
    for k, (span, _, _, parent, counts) in enumerate(spans):
        if span == "cli.main":
            root_command[k] = counts["command"]
            commands[counts["command"]] = commands.get(counts["command"], 0) + 1
        elif parent in root_command:
            root_command[k] = root_command[parent]
        if span == name and k in root_command:
            inner[root_command[k]] = inner.get(root_command[k], 0) + 1
    return {cmd: inner.get(cmd, 0) / n for cmd, n in sorted(commands.items())}


def spans_json(spans: list[list]) -> list[list]:
    """Spans as [name, start_s, end_s, parent], times relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    return [[name, round(start - t0, 7), round(end - t0, 7), parent]
            for name, start, end, parent, _ in spans]


# Per-layer metrics of a traced run: (span, statistic, unit). Every metric is
# reported on every workload, as 0 where the workload never calls the span.
PER_LAYER = (
    ("cli.main", "self_s", "s"),
    ("cli.main", "calls", "count"),
    ("crf.CrfModel.featurize", "self_s", "s"),
    ("crf.CrfModel.featurize", "calls", "count"),
    ("crf.CrfModel.featurize", "positions", "count"),
    ("crf.sequence_marginals", "self_s", "s"),
    ("crf.sequence_marginals", "calls", "count"),
    ("crf.sequence_marginals", "cells", "count"),
    ("crf.nll_and_gradient", "self_s", "s"),
    ("crf.viterbi_path", "self_s", "s"),
    ("crf.viterbi_path", "calls", "count"),
    ("lstm.LstmCell.run", "self_s", "s"),
    ("lstm.LstmCell.run", "calls", "count"),
    ("lstm.LstmCell.run", "rows", "count"),
    ("lstm.LstmCell.run", "mean_batch", "rows"),
    ("lstm.LstmCell.run", "gemm_flops", "flop-computed"),
    ("lstm.LstmCell.backprop", "self_s", "s"),
    ("lstm.LstmCell.backprop", "gemm_flops", "flop-computed"),
    ("lstm.softmax_ce", "self_s", "s"),
    ("optim.clip_grads_", "self_s", "s"),
    ("optim.clip_grads_", "clipped_share", "ratio"),
    ("optim.Sgd.step", "self_s", "s"),
    ("neural.LstmCrfModel.predict", "p50_ms", "ms"),
    ("neural.LstmCrfModel.predict", "p99_ms", "ms"),
    ("neural.LstmCrfModel.predict", "calls", "count"),
    ("title2vec.embed_title", "p50_ms", "ms"),
    ("title2vec.embed_title", "p99_ms", "ms"),
    ("title2vec.write_embeddings", "self_s", "s"),
    ("title2vec.write_embeddings", "bytes", "B"),
    ("model_io.load_model", "self_s", "s"),
    ("model_io.load_model", "calls", "count"),
    ("model_io.load_model", "bytes", "B"),
    ("model_io.save_model", "self_s", "s"),
    ("model_io.save_model", "bytes", "B"),
    ("gazetteer.read_gazetteer", "self_s", "s"),
    ("corpus.load_corpus", "self_s", "s"),
    ("labeling.read_conll", "self_s", "s"),
    ("labeling.dumps_conll", "self_s", "s"),
    ("evaluation.score", "self_s", "s"),
)


def _percentile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1000.0 if durations else 0.0


def layer_metrics(stats: dict[str, SpanStats]) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric as name -> (value, unit)."""
    out = {}
    for span, stat, unit in PER_LAYER:
        entry = stats.get(span, SpanStats())
        if stat == "self_s":
            value = entry.self_s
        elif stat == "calls":
            value = entry.calls
        elif stat == "mean_batch":
            value = entry.counts.get("batch", 0) / entry.calls if entry.calls else 0.0
        elif stat == "clipped_share":
            value = entry.counts.get("clipped", 0) / entry.calls if entry.calls else 0.0
        elif stat in ("p50_ms", "p99_ms"):
            value = _percentile_ms(entry.durations, float(stat[1:3]))
        else:
            value = entry.counts.get(stat, 0)
        out[f"{span}.{stat}"] = (value, unit)
    return out
