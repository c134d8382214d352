"""Instrumentation installed from outside the package, around its public functions.

Two kinds, both applied by rebinding names and undone after each pass:

* ``Boundaries`` (the untimed run) records only run and epoch boundary
  timestamps: ``trainer.train`` entry and exit, ``CheckpointRegistry.store``
  returns and ``gradlab.proposition1_validate`` entry and exit.
* ``Tracer`` (the traced run) records a span (name, start, end, parent,
  run id) around every public function and method of every layer, keeps
  the spans in memory, and counts rows, tokens and bytes at the same
  boundaries. The run id is the sequence number of the enclosing
  ``trainer.train`` call, 0 outside one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from measure import self_times

LAYERS = ("cli", "config", "data", "trainer", "models", "losses", "probs",
          "registry", "metrics", "calibration", "gradlab")

PASS_SPAN = "bench.pass"

# span name -> (count name, count from the positional arguments and the result)
COUNTED = {
    "models.forward": ("rows", lambda args, result: len(args[2])),
    "losses.mixture_loss_rows": ("rows", lambda args, result: len(args[0])),
    "registry.teacher_logits": ("rows", lambda args, result: len(args[1])),
    "registry.store": ("bytes", lambda args, path: os.path.getsize(path)),
    "metrics.mini_bleu": ("tokens", lambda args, result: sum(len(h) for h in args[0])),
}


def layer_modules():
    return [importlib.import_module(f"alskd.{layer}") for layer in LAYERS]


class Patches:
    """Rebinds functions in every layer namespace and methods on classes; undone on exit."""

    def __init__(self):
        self._namespaces = [importlib.import_module("alskd"), *layer_modules()]
        self._items = []

    def function(self, original, replacement) -> None:
        for namespace in self._namespaces:
            for attr, value in vars(namespace).items():
                if value is original:
                    self._items.append((namespace, attr, original, replacement))

    def method(self, cls, attr: str, replacement) -> None:
        self._items.append((cls, attr, vars(cls)[attr], replacement))

    def __enter__(self):
        for owner, attr, _, new in self._items:
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old, _ in reversed(self._items):
            setattr(owner, attr, old)
        return False


def training_positions(cfg, splits) -> int:
    """Positions one training run visits: examples, or non-pad target tokens, per epoch."""
    mask = getattr(splits.train, "mask", None)
    per_epoch = len(splits.train) if mask is None else int(mask.sum())
    return per_epoch * cfg.epochs


class Boundaries:
    """Run and epoch boundary timestamps of one pass, and the work items they bound."""

    def __init__(self):
        self.events: list[tuple[str, float]] = []
        self.positions = 0
        self.valid_pairs = 0

    def patches(self) -> Patches:
        from alskd import gradlab, registry, trainer

        events = self.events
        train, store = trainer.train, registry.CheckpointRegistry.store
        validate = gradlab.proposition1_validate

        def timed_train(model_cfg, cfg, splits, registry_dir):
            self.positions += training_positions(cfg, splits)
            events.append(("train", perf_counter()))
            result = train(model_cfg, cfg, splits, registry_dir)
            events.append(("train_end", perf_counter()))
            return result

        def timed_store(*args, **kwargs):
            path = store(*args, **kwargs)
            events.append(("store", perf_counter()))
            return path

        def timed_validate(*args, **kwargs):
            events.append(("validate", perf_counter()))
            report = validate(*args, **kwargs)
            events.append(("validate_end", perf_counter()))
            self.valid_pairs += report.valid_pairs
            return report

        patches = Patches()
        patches.function(train, timed_train)
        patches.method(registry.CheckpointRegistry, "store", timed_store)
        patches.function(validate, timed_validate)
        return patches


def _span_targets():
    """(span name, class or None, attribute, function) for each public callable of each layer."""
    for module in layer_modules():
        layer = module.__name__.rpartition(".")[2]
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                # a generator's body runs after the call returns, outside any span
                if not inspect.isgeneratorfunction(obj):
                    yield f"{layer}.{attr}", None, attr, obj
            elif inspect.isclass(obj):
                for method_name, method in vars(obj).items():
                    if inspect.isfunction(method) and not method_name.startswith("_"):
                        name = f"{layer}.{method_name}"
                        if obj.__name__ == "TeacherHandle" and method_name == "logits":
                            name = "registry.teacher_logits"
                        yield name, obj, method_name, method


class Tracer:
    """Spans and counts of the traced passes, held in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack = [-1]
        self._runs = 0
        self._run_id = 0
        self._teacher_depth = 0
        self._train_id = self.intern("trainer.train")
        self._teacher_id = self.intern("registry.teacher_logits")
        self.counts: Counter = Counter()
        self.selections: list[tuple[int, int]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        if name_id == self._train_id:
            self._runs += 1
            self._run_id = self._runs
        elif name_id == self._teacher_id:
            self._teacher_depth += 1
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self._run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()
        name_id = self.name[index]
        if name_id == self._train_id:
            self._run_id = 0
        elif name_id == self._teacher_id:
            self._teacher_depth -= 1

    def _wrap(self, fn, name: str):
        name_id = self.intern(name)
        pick = lambda args, kwargs: name_id  # noqa: E731
        layer, _, attr = name.partition(".")
        if layer == "models":
            # model work done for the teacher is kept apart from the student's
            teacher_id = self.intern(f"models.teacher_{attr}")
            pick = lambda args, kwargs: teacher_id if self._teacher_depth else name_id  # noqa: E731
        elif name == "registry.evaluate_g":
            pick = lambda args, kwargs: self.intern(  # noqa: E731
                f"{name}.{args[3] if len(args) > 3 else kwargs['g_kind']}")

        after = None
        if name in COUNTED:
            key, extract = COUNTED[name]

            def after(span_name_id, args, result):
                self.counts[f"{self.names[span_name_id]}.{key}"] += extract(args, result)
        elif name == "registry.select_teacher":
            def after(span_name_id, args, result):
                self.selections.append((self._run_id, result.epoch))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            picked = pick(args, kwargs)
            span = self.open(picked)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(picked, args, result)
            return result

        return wrapper

    def patches(self) -> Patches:
        patches = Patches()
        for name, cls, attr, fn in _span_targets():
            if cls is None:
                patches.function(fn, self._wrap(fn, name))
            else:
                patches.method(cls, attr, self._wrap(fn, name))
        return patches

    @contextlib.contextmanager
    def pass_span(self):
        """Root span of one traced pass; yields its span index and resets the per-pass counts."""
        self.counts.clear()
        self.selections.clear()
        index = self.open(self.intern(PASS_SPAN))
        try:
            yield index
        finally:
            self.close(index)

    def pass_metrics(self, first: int) -> dict[str, float]:
        """Per-layer busy time, self time and call counts of the pass rooted at span ``first``."""
        last = len(self.start)
        start = np.array(self.start[first:last], dtype=np.float64)
        end = np.array(self.end[first:last], dtype=np.float64)
        parent = np.array(self.parent[first:last], dtype=np.int64)
        names = np.array(self.name[first:last], dtype=np.int64)
        own = self_times(start, end, np.where(parent >= first, parent - first, -1))
        n = len(self.names)
        busy = np.bincount(names, weights=end - start, minlength=n)
        self_busy = np.bincount(names, weights=own, minlength=n)
        calls = np.bincount(names, minlength=n)

        out: dict[str, float] = {}
        for i in np.flatnonzero(calls):
            name = self.names[i]
            if name == PASS_SPAN:
                continue
            out[f"{name}.ms"] = busy[i] * 1e3
            out[f"{name}.self_ms"] = self_busy[i] * 1e3
            out[f"{name}.calls"] = float(calls[i])
        out.update({key: float(value) for key, value in self.counts.items()})

        pass_id = self._ids[PASS_SPAN]
        layer_self = float(own[names != pass_id].sum())
        out["trace.wall_ms"] = (end[0] - start[0]) * 1e3
        out["trace.self_sum_ms"] = layer_self * 1e3
        out["trace.unattributed_ms"] = float(own[0]) * 1e3
        out["trace.spans"] = float(last - first - 1)
        out["registry.teacher_reuse_ratio"] = reuse_ratio(self.selections)
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64), end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32), run=np.array(self.run, dtype=np.int32))


def reuse_ratio(selections) -> float:
    """Share of teacher selections that return the same epoch as the previous one of the run."""
    if not selections:
        return 0.0
    same = sum(1 for prev, cur in zip(selections, selections[1:])
               if prev[0] == cur[0] and prev[1] == cur[1])
    return same / len(selections)
