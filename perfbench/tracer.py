"""Span recorder that wraps the program's layer entry points from outside.

Nothing under ``src/`` knows about it: :func:`install` replaces each
public function or method listed in :data:`TARGETS` with a timing
wrapper, at every place the program looks the name up, and the wrapper
records one span per call.  Spans live in memory per thread and are
written out once, by :meth:`Tracer.dump`, when the traced process ends.

A span is ``[name, start, end, parent, counts]`` with
``time.monotonic()`` stamps (the same system-wide clock ``run.py``
reads, so span times and load-generator times can be compared).
``parent`` is the index of the enclosing span on the same thread, or
``None``; ``counts`` holds the work counted at that call, or ``None``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any


# (module, class or None, attribute, span name, counters).  Each counter
# is ``(counter name, fn(args, result) -> number)``, recorded on the span
# when the call returns normally.
TARGETS: list[tuple[str, str | None, str, str, list]] = [
    ("repro.raslog.parser", None, "load_log", "raslog.parse",
     [("raslog.parse.records", lambda a, r: len(r))]),
    ("repro.preprocess.categorizer", "Categorizer", "categorize",
     "preprocess.categorize", []),
    ("repro.preprocess.filtering", None, "deduplicate_exact",
     "preprocess.filter", [("preprocess.filter.in", lambda a, r: len(a[0]))]),
    ("repro.preprocess.filtering", None, "compress", "preprocess.filter",
     [("preprocess.filter.out", lambda a, r: len(r[0]))]),
    ("repro.learners.association", "AssociationRuleLearner", "train",
     "learners.association", [("learners.candidates", lambda a, r: len(r))]),
    ("repro.learners.statistical", "StatisticalRuleLearner", "train",
     "learners.statistical", [("learners.candidates", lambda a, r: len(r))]),
    ("repro.learners.distribution", "DistributionLearner", "train",
     "learners.distribution", [("learners.candidates", lambda a, r: len(r))]),
    ("repro.core.meta", "MetaLearner", "train", "core.meta",
     [("core.retrains", lambda a, r: 1)]),
    ("repro.core.reviser", "Reviser", "revise", "core.reviser",
     [("core.reviser.kept", lambda a, r: len(r.kept)),
      ("core.reviser.scored", lambda a, r: len(r.kept) + len(r.removed))]),
    ("repro.core.predictor", "Predictor", "replay", "core.predict", []),
    ("repro.core.predictor", "Predictor", "feed", "core.predict",
     [("core.warnings", lambda a, r: len(r))]),
    ("repro.evaluation.matching", None, "match_warnings", "evaluation.match", []),
    ("repro.net.protocol", None, "decode_frame", "net.decode",
     [("net.frames_in", lambda a, r: 1)]),
    ("repro.net.protocol", None, "encode_frame", "net.encode", []),
    ("repro.service.service", "PredictionService", "ingest_batch",
     "service.ingest_batch",
     [("service.ingest_batch.calls", lambda a, r: 1),
      ("service.ingest_batch.events", lambda a, r: len(a[1]))]),
    ("repro.resilience.journal", "EventJournal", "append_batch",
     "resilience.journal", [("resilience.journal.appends", lambda a, r: 1)]),
]

# Modules whose ``from x import f`` bindings must see the wrappers; they
# are imported before patching so that their globals can be rewritten.
CALLER_MODULES = (
    "repro.cli",
    "repro.core.framework",
    "repro.core.session",
    "repro.preprocess.pipeline",
    "repro.service.service",
    "repro.net.server",
)


class Tracer:
    """Per-thread span lists for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._local = threading.local()
        self._threads: list[tuple[int, list]] = []
        self._lock = threading.Lock()

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((len(self._threads), local.spans))
        return local

    def wrap(self, fn: Callable, name: str, counters: list) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = tracer._state()
            index = len(local.spans)
            record = [name, 0.0, 0.0, local.stack[-1] if local.stack else None, None]
            local.spans.append(record)
            local.stack.append(index)
            record[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                local.stack.pop()
            if counters:
                record[4] = {counter: measure(args, result) for counter, measure in counters}
            return result

        return traced

    def span(self, name: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` inside one span (used for the root span)."""
        return self.wrap(fn, name, [])(*args)

    def dump(self, path: str) -> None:
        spans = []
        for thread, records in self._threads:
            for i, (name, start, end, parent, counts) in enumerate(records):
                spans.append({
                    "name": name,
                    "start": start,
                    "end": end,
                    "id": f"{thread}:{i}",
                    "parent": None if parent is None else f"{thread}:{parent}",
                    "run": self.run_id,
                    "counts": counts,
                })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


def install(tracer: Tracer) -> int:
    """Wrap every target wherever a ``repro`` module binds it.

    Returns the number of bindings replaced.  Raises ``RuntimeError``
    when a target cannot be found, so a renamed entry point shows up as
    a broken traced run rather than as a layer silently reading zero.
    """
    for name in CALLER_MODULES:
        importlib.import_module(name)
    replaced = 0
    for module_name, cls_name, attr, span, counters in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            cls = getattr(module, cls_name)
            if attr not in vars(cls):
                raise RuntimeError(f"{cls_name}.{attr} not found")
            setattr(cls, attr, tracer.wrap(vars(cls)[attr], span, counters))
            replaced += 1
            continue
        original = getattr(module, attr, None)
        if original is None:
            raise RuntimeError(f"{module_name}.{attr} not found")
        wrapper = tracer.wrap(original, span, counters)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or loaded_name.split(".")[0] != "repro":
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, wrapper)
                    replaced += 1
    return replaced


def summarize(
    spans: list[dict],
) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Per span name: calls and self seconds; and the summed counts.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_time: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
        for counter, value in (s["counts"] or {}).items():
            counts[counter] += value
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0}
    )
    for s in spans:
        row = table[s["name"]]
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["self_s"] += duration - child_time.get(s["id"], 0.0)
    return dict(table), dict(counts)
