"""Span recorder for the traced benchmark run.

The tracer wraps public functions of the gblab modules from outside the
package: every binding of the original function object inside ``gblab`` is
replaced by a wrapper that records a span (name, start, end, parent span, run
id) and, where a hook is given, adds counts derived from the call's arguments
and result.  Spans stay in memory until ``write`` is called at the end of the
run; ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span_id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = _union_length(
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children[sp.span_id]
            if c.end > sp.start and c.start < sp.end
        )
        out[sp.span_id] = sp.duration - covered
    return out


def totals_by_name(spans) -> dict:
    """name -> {"calls", "s", "self_s"} summed over all spans of that name."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sp in spans:
        rec = out[sp.name]
        rec["calls"] += 1
        rec["s"] += sp.duration
        rec["self_s"] += selfs[sp.span_id]
    return dict(out)


class Tracer:
    """Records spans and counters; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrapper(self, name: str, fn, hook=None, cpu: bool = False):
        """fn wrapped in a span; cpu=True also sums process CPU time into
        the counter '<name>.cpu_s'."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            cpu0 = time.process_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
                if cpu:
                    self.counters[f"{name}.cpu_s"] += time.process_time() - cpu0
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def wrap_function(self, package: str, module: str, attr: str, hook=None, cpu: bool = False) -> None:
        """Replace every binding of ``module.attr`` inside the package, so calls
        through ``from .module import attr`` aliases are recorded too."""
        original = getattr(importlib.import_module(f"{package}.{module}"), attr)
        traced = self.wrapper(f"{module}.{attr}", original, hook, cpu)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def count_method(self, cls, attr: str, hook) -> None:
        """Count-only hook on a method (no span): hook(counters, self)."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def counted(obj, *args, **kwargs):
            result = original(obj, *args, **kwargs)
            hook(self.counters, obj)
            return result

        self._patches.append((cls, attr, original))
        setattr(cls, attr, counted)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sp.span_id,
                            "parent": sp.parent,
                            "name": sp.name,
                            "start": sp.start,
                            "end": sp.end,
                        }
                    )
                    + "\n"
                )


def read_spans(path) -> list:
    """Spans written by Tracer.write."""
    with gzip.open(path, "rt") as fh:
        return [
            Span(rec["id"], rec["parent"], rec["name"], rec["start"], rec["end"])
            for rec in map(json.loads, fh)
        ]
