"""Spans recorded from outside the program, around its public functions.

:class:`SpanRecorder` wraps a function so that every call records one
span (name, start, duration, depth) and folds it into per-name totals:
calls, inclusive seconds and *self* seconds (the duration minus the part
covered by child spans). Calls are strictly nested on the one Python
thread the engines use, so a stack gives exact self times. A call to a
span whose caller is a span of the same name (a preconditioner
delegating to its base, a subclass calling ``super()``) is folded into
the outer span rather than counted twice.

:func:`installed` patches every reference the ``repro`` package holds to
each target — the defining module, every module that imported the name,
or the class attribute — and restores the originals on exit, even when
the body raises. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: Spans kept for the trace file; aggregates count every call regardless.
MAX_EXPORTED_SPANS = 200_000


class SpanRecorder:
    """In-memory span store with per-name calls / total / self seconds."""

    def __init__(self) -> None:
        #: ``(name, start, duration, depth)`` per span, ``perf_counter`` clock
        self.spans: list[tuple[str, float, float, int]] = []
        #: ``name -> [calls, inclusive seconds, self seconds]``
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        """``fn`` wrapped to record one ``name`` span per outermost call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]  # name, seconds covered by children
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, stats, t0)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one ``name`` span."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, stats, t0)

    def _close(self, frame: list, stats: list, t0: float) -> None:
        dur = time.perf_counter() - t0
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += dur
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - frame[1]
        if len(self.spans) < MAX_EXPORTED_SPANS:
            self.spans.append((frame[0], t0, dur, len(stack)))

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]


def _resolve(target: str):
    """``"pkg.mod:Name"`` or ``"pkg.mod:Class.method"`` -> (owner, attr)."""
    module_name, _, qual = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(recorder: SpanRecorder, targets) -> Iterator[None]:
    """Patch each ``(span name, "module:qualname")`` target for the block.

    A module-level function is replaced in every ``repro`` module that
    holds the same object; a method (or classmethod) is replaced on the
    class that defines it. All patches are undone on exit.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for name, target in targets:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(recorder.wrap(name, raw.__func__))
                else:
                    new = recorder.wrap(name, raw)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            wrapped = recorder.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def write_perfetto(
    path: Path, recorder: SpanRecorder, tracer, tracer_epoch: float
) -> Path:
    """One Chrome trace-event file: engine stage spans + benchmark spans.

    The engine :class:`~repro.obs.tracer.Tracer` supplies its wall-clock
    stage track (tid 1) and modelled-device track (tid 2); the benchmark
    spans go on tid 3, shifted onto the tracer's clock so the three
    tracks line up on one timeline in https://ui.perfetto.dev.
    """
    doc = tracer.to_chrome_dict()
    events = doc["traceEvents"]
    events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": 3,
                   "args": {"name": "benchmark spans"}})
    for name, start, dur, depth in recorder.spans:
        events.append({
            "name": name, "cat": "bench", "ph": "X", "pid": 1, "tid": 3,
            "ts": round((start - tracer_epoch) * 1e6, 3),
            "dur": round(dur * 1e6, 3),
            "args": {"depth": depth},
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path
