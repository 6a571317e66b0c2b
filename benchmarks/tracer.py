"""In-memory span tracer that wraps fairppm's public functions from outside.

A ``Tracer`` replaces module attributes (for example ``fairppm.train.forward``
or ``fairppm.nn.sinkhorn_distance``) with wrappers that record one span per
call: name, start, end and the span that was open when the call began. The
package itself is not modified; ``uninstall`` puts the originals back.

Calls nest on one thread, so a span's self time is its duration minus the
durations of its direct children. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (namespace the caller looks the name up in, attribute, span name). The
# namespace is the calling module, because ``from .nn import forward`` binds
# a separate name in each importer. The duplicate test-set ``predict`` in
# ``fairppm.cli`` is deliberately left unwrapped: it belongs to cli self time.
TARGETS = (
    ("fairppm.cli", "cmd_synth", "cli.synth"),
    ("fairppm.cli", "cmd_ingest", "cli.ingest"),
    ("fairppm.cli", "cmd_train", "cli.train"),
    ("fairppm.cli", "cmd_evaluate", "cli.evaluate"),
    ("fairppm", "generate_synthetic_log", "eventlog.generate"),
    ("fairppm.cli", "generate_synthetic_log", "eventlog.generate"),
    ("fairppm.cli", "write_event_log", "eventlog.write_log"),
    ("fairppm.cli", "parse_event_log", "eventlog.parse"),
    ("fairppm", "split_cases", "eventlog.split_cases"),
    ("fairppm.cli", "split_cases", "eventlog.split_cases"),
    ("fairppm", "extract_prefixes", "eventlog.extract_prefixes"),
    ("fairppm.cli", "extract_prefixes", "eventlog.extract_prefixes"),
    ("fairppm", "validation_split", "eventlog.validation_split"),
    ("fairppm.cli", "validation_split", "eventlog.validation_split"),
    ("fairppm.cli", "read_samples_jsonl", "eventlog.read_samples"),
    ("fairppm", "fit_encoder", "encoding.fit"),
    ("fairppm.cli", "fit_encoder", "encoding.fit"),
    ("fairppm", "encode", "encoding.encode"),
    ("fairppm.cli", "encode", "encoding.encode"),
    ("fairppm.train", "train_model", "train.train_model"),
    ("fairppm.cli", "train_model", "train.train_model"),
    ("fairppm.train", "_validation_loss", "train.validation"),
    ("fairppm.train", "evaluate", "train.evaluate"),
    ("fairppm.cli", "evaluate", "train.evaluate"),
    ("fairppm.train", "save_checkpoint", "train.save_checkpoint"),
    ("fairppm.cli", "save_checkpoint", "train.save_checkpoint"),
    ("fairppm.cli", "load_checkpoint", "train.load_checkpoint"),
    ("fairppm.train", "forward", "nn.forward"),
    ("fairppm.train", "composite_loss", "nn.composite_loss"),
    ("fairppm.train", "adamw_step", "nn.adamw"),
    ("fairppm.train", "predict", "nn.predict"),
    ("fairppm.autodiff", "Tape.backward", "autodiff.backward"),
    ("fairppm.nn", "sinkhorn_distance", "transport.sinkhorn"),
    ("fairppm.train", "optimal_threshold", "metrics.optimal_threshold"),
    ("fairppm.train", "eval_report", "metrics.eval_report"),
    ("fairppm.metrics", "auc", "metrics.auc"),
    ("fairppm.metrics", "abpc", "metrics.abpc"),
    ("fairppm.metrics", "abcc", "metrics.abcc"),
)

# One optimizer step runs from a training-mode forward to the AdamW update.
STEP = "train.step"
STEP_OPENS = "nn.forward"
STEP_CLOSES = "nn.adamw"


def _span_attrs(name, args, result):
    if name == "transport.sinkhorn":
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "autodiff.backward":
        return {"nodes": len(args[0].nodes)}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans for the wrapped calls between ``install`` and
    ``uninstall``. Targets whose module or attribute is missing are listed in
    ``missing`` and simply produce no spans."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        """Close span ``idx`` and any span still open inside it."""
        if idx not in self._stack:
            return
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            span = self.spans[top]
            span.end = now
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.duration
            if top == idx:
                return

    def close_innermost(self, name: str) -> None:
        for idx in reversed(self._stack):
            if self.spans[idx].name == name:
                self.close(idx)
                return

    def finish(self) -> None:
        if self._stack:
            self.close(self._stack[0])

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == STEP_OPENS and kwargs.get("training"):
                tracer.open(STEP)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                tracer.spans[idx].attrs = _span_attrs(name, args, result)
                return result
            finally:
                tracer.close(idx)
                if name == STEP_CLOSES:
                    tracer.close_innermost(STEP)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        self.finish()
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    # -- reporting ----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.end is not None]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                if span.end is None:
                    continue
                record = {
                    "id": idx,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "self_s": span.self_s,
                }
                if span.attrs:
                    record.update(span.attrs)
                fh.write(json.dumps(record) + "\n")
