"""Spans around the toolkit's public functions, recorded from outside the package.

    PYTHONPATH=src:. python3 -m perfbench.tracing --spans S.jsonl --op 1 --label L -- ARGS

runs ``fapft ARGS`` in this process with tracing on, so a traced command pays
the same interpreter start-up, import and memory costs as an untraced one.
Nothing in the package is edited: :meth:`Tracer.install` rebinds every name
under which a ``fapft`` module holds a traced function (``fapft.train`` holds
its own ``loss_and_grads``, ``fapft.cli`` its own ``read_checkpoint``, ...) to
a wrapper that records a span, and :meth:`Tracer.uninstall` puts the originals
back. Spans stay in memory until the command ends, then go to one JSONL file.

A span's self time is its duration minus the durations of its child spans.
Allocation is measured with ``tracemalloc`` only inside the spans that ask for
it, and only in their own code: a traced child's allocations are its own.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

from fapft.checkpoint import Checkpoint

# runs of one pipeline, as ``train`` sees them
RUNS = ("pretrain", "full", "fapft", "linear_probe")
# architectures whose checkpoint and angle metrics also get a suffixed copy;
# a command's label is the architecture of the checkpoints it reads
ARCHES = ("vit_b16", "swin_b")


def run_label(config) -> str:
    if config.task == "pretrain":
        return "pretrain"
    if config.freeze is None:
        return "full"
    return config.freeze.strategy_tag.lower()


def _train_attrs(args, kwargs):
    config = args[0] if args else kwargs["config"]
    classes = config.arch.num_classes
    base = config.descriptor().full_param_count(classes)
    trainable = base if config.freeze is None else config.freeze.trainable_param_count(classes)
    return {"run": run_label(config), "trainable": trainable, "base": base}


def _batch_attrs(args, kwargs):
    return {"samples": len(args[1])}


def _written_attrs(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


class Tracer:
    """Records spans for one process; ``op`` and ``label`` tag the spans opened next."""

    # span name -> (defining module, attribute, allocation-tracked,
    #               attrs from the arguments before the call, and after it)
    FUNCTIONS = {
        "checkpoint.read_checkpoint": ("fapft.checkpoint", "read_checkpoint", True, None, None),
        "checkpoint.write_checkpoint": (
            "fapft.checkpoint", "write_checkpoint", False, None, _written_attrs,
        ),
        "tensors.mean_stack": ("fapft.tensors", "mean_stack", False, None, None),
        "angles.compute_angles": ("fapft.angles", "compute_angles", True, None, None),
        "soup.uniform_soup": ("fapft.soup", "uniform_soup", False, None, None),
        "model.loss_and_grads": ("fapft.model", "loss_and_grads", False, _batch_attrs, None),
        "model.predict": ("fapft.model", "predict", False, None, None),
        "train.generate_dataset": ("fapft.train", "generate_dataset", False, None, None),
        "train.train": ("fapft.train", "train", False, _train_attrs, None),
        "train.run_fapft_pipeline": ("fapft.train", "run_fapft_pipeline", False, None, None),
    }

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self.label = None
        self._stack: list[dict] = []
        self._alloc_stack: list[list] = []  # [span, base bytes, peak bytes seen]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name, alloc=False, attrs=None):
        """Time the block as one span; a ``run`` attribute relabels it and its children."""
        attrs = attrs or {}
        label = attrs.get("run", self.label)
        span = {
            "id": len(self.spans), "name": name, "op": self.op, "label": label,
            "parent": self._stack[-1]["id"] if self._stack else None, **attrs,
        }
        previous, self.label = self.label, label
        self.spans.append(span)
        self._stack.append(span)
        outer = self._alloc_stack[-1] if self._alloc_stack else None
        if outer is not None:
            outer[2] = max(outer[2], tracemalloc.get_traced_memory()[1])
        tracked = alloc or outer is not None
        if tracked:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
            self._alloc_stack.append([span, tracemalloc.get_traced_memory()[0], 0])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self.label = previous
            self._stack.pop()
            if tracked:
                _, base, seen = self._alloc_stack.pop()
                peak = max(seen, tracemalloc.get_traced_memory()[1])
                if alloc:
                    span["alloc_bytes"] = peak - base
                if outer is None:
                    tracemalloc.stop()
                else:
                    tracemalloc.reset_peak()  # the child's peak is not the parent's

    def _wrap(self, name, fn, alloc=False, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            with tracer.span(name, alloc, attrs) as span:
                try:
                    return fn(*args, **kwargs)
                finally:
                    if after:
                        span.update(after(args, kwargs))

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "fapft" or n.startswith("fapft.")]
        for name, (owner, attr, alloc, before, after) in self.FUNCTIONS.items():
            original = getattr(importlib.import_module(owner), attr)
            wrapper = self._wrap(name, original, alloc, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        hash_property = Checkpoint.__dict__["content_hash"]
        canonical = Checkpoint.__dict__["canonical_bytes"]
        self._restore += [
            (Checkpoint, "content_hash", hash_property),
            (Checkpoint, "canonical_bytes", canonical),
        ]
        Checkpoint.content_hash = property(self._wrap("checkpoint.content_hash", hash_property.fget))
        Checkpoint.canonical_bytes = self._wrap("checkpoint.canonical_bytes", canonical)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# analysis of recorded spans (dicts, as written by Tracer.write_jsonl)
# ---------------------------------------------------------------------------


def load_spans(paths) -> list[dict]:
    """Spans of several files, renumbered so ids stay unique across them."""
    spans: list[dict] = []
    for path in paths:
        offset = len(spans)
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                span["id"] += offset
                if span["parent"] is not None:
                    span["parent"] += offset
                spans.append(span)
    return spans


def self_times(spans) -> dict[int, float]:
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def self_time_table(spans) -> str:
    """Per-layer calls, inclusive and self seconds."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own[s["id"]]
    lines = [f"{'layer':<30} {'calls':>7} {'incl_s':>9} {'self_s':>9}"]
    for name, (calls, incl, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<30} {calls:>7} {incl:>9.4f} {self_s:>9.4f}")
    return "\n".join(lines)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name: ``checkpoint.read_s.vit_b16`` is in s."""
    parts = metric.split(".")
    key = parts[1] if len(parts) > 1 else parts[0]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_fraction", "ratio")):
        if key.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced operation; 0 where a layer did no work.

    Every workload reports the same names: checkpoint and angle metrics also
    get one copy per architecture in ``ARCHES``, taken from the spans of
    commands labelled with it.
    """
    own = self_times(spans)

    def pick(name, label=None):
        return [s for s in spans if s["name"] == name and label in (None, s["label"])]

    def total(name, label=None, self_only=False):
        return sum((own[s["id"]] if self_only else s["end"] - s["start"]
                    for s in pick(name, label)), 0.0)

    def peak_mb(name, label=None):
        return max((s["alloc_bytes"] for s in pick(name, label)), default=0) / 1e6

    out: dict[str, float] = {}
    for suffix, label in [("", None)] + [(f".{a}", a) for a in ARCHES]:
        out[f"checkpoint.read_s{suffix}"] = total("checkpoint.read_checkpoint", label)
        out[f"checkpoint.read_alloc_mb{suffix}"] = peak_mb("checkpoint.read_checkpoint", label)
        out[f"checkpoint.hash_s{suffix}"] = total("checkpoint.content_hash", label)
        out[f"checkpoint.serialize_calls{suffix}"] = len(pick("checkpoint.canonical_bytes", label))
        out[f"angles.compute_s{suffix}"] = total("angles.compute_angles", label, self_only=True)
        out[f"angles.alloc_mb{suffix}"] = peak_mb("angles.compute_angles", label)
    out["checkpoint.write_s"] = total("checkpoint.write_checkpoint")
    out["checkpoint.bytes_written"] = sum(
        s["bytes"] for s in pick("checkpoint.write_checkpoint")
    )
    out["tensors.mean_stack_s"] = total("tensors.mean_stack")
    out["soup.uniform_self_s"] = total("soup.uniform_soup", self_only=True)

    steps = {run: len(pick("model.loss_and_grads", run)) for run in RUNS}
    out["model.fwd_bwd_samples"] = sum(s["samples"] for s in pick("model.loss_and_grads"))
    for run in RUNS:
        calls = [s["end"] - s["start"] for s in pick("model.loss_and_grads", run)]
        trains = pick("train.train", run)
        opt = total("train.train", run, self_only=True)
        n = max(steps[run], 1)
        out[f"model.fwd_bwd_ms.{run}"] = 1e3 * statistics.median(calls) if calls else 0.0
        out[f"train.opt_ms.{run}"] = 1e3 * opt / n
        out[f"train.step_ms.{run}"] = 1e3 * (sum(calls) + opt) / n
        out[f"train.trainable_fraction.{run}"] = (
            trains[0]["trainable"] / trains[0]["base"] if trains else 0.0
        )
        out[f"train.trainable_params.{run}"] = trains[0]["trainable"] if trains else 0
    out["train.param_base"] = max((s["base"] for s in pick("train.train")), default=0)
    predicts = [s["end"] - s["start"] for s in pick("model.predict")]
    out["model.predict_ms"] = 1e3 * statistics.median(predicts) if predicts else 0.0
    out["cli.self_s"] = total("cli.main", self_only=True)
    return out


def main(argv=None) -> int:
    import argparse

    import fapft.cli

    parser = argparse.ArgumentParser(description="run one fapft command with tracing on")
    parser.add_argument("--spans", required=True, help="JSONL file for the spans")
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("--label")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.args[1:] if args.args[:1] == ["--"] else args.args
    tracer = Tracer()
    tracer.op, tracer.label = args.op, args.label
    tracer.install()
    try:
        with tracer.span("cli.main"):
            rc = fapft.cli.main(command)
    finally:
        tracer.uninstall()
        tracer.write_jsonl(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
