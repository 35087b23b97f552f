"""Span tracing installed from outside the library, for the traced run only.

Each hook replaces a function that an ``aesmc`` module looks up through its
own module globals (or a dispatch table) with a wrapper that records a span
(name, start, end, parent) and optional counts. Nothing under ``src/``
changes: the wrappers are installed before a pass and removed after it. A
hook whose target no longer exists leaves its layer unmeasured instead of
failing the run.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder with hook installation and removal."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.missing.clear()

    def span(self, name, fn, count=None):
        """Return ``fn`` wrapped to record a span, then ``count(counts, args, result)``."""

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if count is not None:
                try:
                    count(self.counts, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.missing.append(f"{name} (count)")
            return result

        return wrapper

    def hook(self, owner, attr, name, count=None):
        """Wrap ``owner.attr`` (a module attribute or a dict key) in a span."""
        is_dict = isinstance(owner, dict)
        target = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if not callable(target):
            self.missing.append(f"{name} ({attr})")
            return
        wrapped = self.span(name, target, count)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, target, is_dict))

    def uninstall(self):
        for owner, attr, target, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = target
            else:
                setattr(owner, attr, target)
        self._undo.clear()

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children
        return out

    def snapshot(self) -> "Tracer":
        """A copy of the recorded spans and counts, without hooks."""
        copy = Tracer()
        copy.spans = [list(s) for s in self.spans]
        copy.counts.update(self.counts)
        copy.missing = list(self.missing)
        return copy

    def write(self, path):
        origin = min((s[1] for s in self.spans), default=0.0)
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts), "unmeasured": self.missing}, fh)
