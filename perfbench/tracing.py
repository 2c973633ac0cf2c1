"""Benchmark-side tracing: spans around calls into each layer of ``repro``.

The tracer never edits the program.  It replaces a layer's public entry
point with a timing wrapper *where callers look the name up*: a method is
replaced on its class, a module function on its defining module and on
every ``repro`` module that bound it with ``from ... import``.  Each call
records one span (layer name, start, end, parent span, operation id);
spans stay in compact in-memory arrays and are written out once, when the
run ends.

A span's *self time* is its duration minus the part covered by its child
spans.  Children are found through a per-thread stack, so spans recorded
on the acquisition runtime's worker threads have no parent on the thread
that waits for them.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable

_now = time.perf_counter


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        #: While False, wrappers call straight through and counters stay put.
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        on_result: Callable[["Tracer", tuple, dict, Any], None] | None = None,
        on_call: Callable[["Tracer", tuple, dict], None] | None = None,
    ) -> Callable[..., Any]:
        """Return *function* wrapped so every call records a span *name*.

        *on_call* runs before the span opens and *on_result* after it
        closes, so neither is counted in the layer's time.
        """
        name_id = self._name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(self, args, kwargs)
            if not self.enabled:
                return function(*args, **kwargs)
            stack = self._stack()
            with self._lock:
                index = len(self.span_name)
                self.span_name.append(name_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(stack[-1] if stack else -1)
                self.span_op.append(self.op_id)
            stack.append(index)
            start = _now()
            try:
                result = function(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                self.span_start[index] = start
                self.span_end[index] = end
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name* (thread-safe)."""
        if not self.enabled:
            return
        with self._lock:
            self.counts[name] += amount

    # -- patching ----------------------------------------------------------------

    def patch_method(
        self, cls: type, attribute: str, name: str, on_result: Any = None, on_call: Any = None
    ) -> None:
        """Wrap ``cls.attribute`` (looked up through the class by every caller)."""
        original = cls.__dict__[attribute]
        self._patches.append((cls, attribute, original))
        setattr(cls, attribute, self.wrap(name, original, on_result, on_call))

    def patch_function(
        self,
        module: Any,
        attribute: str,
        name: str,
        on_result: Any = None,
        on_call: Any = None,
    ) -> None:
        """Wrap ``module.attribute`` and every ``from module import attribute``.

        Modules of the package that imported the function by name hold
        their own reference, so each of them is patched too.
        """
        original = getattr(module, attribute)
        wrapper = self.wrap(name, original, on_result, on_call)
        for holder in _package_modules(module.__name__.split(".")[0]):
            if holder.__dict__.get(attribute) is original:
                self._patches.append((holder, attribute, original))
                setattr(holder, attribute, wrapper)

    def patch_object(self, holder: Any, attribute: str, replacement: Any) -> None:
        """Replace ``holder.attribute`` outright (restored by :meth:`restore`)."""
        self._patches.append((holder, attribute, getattr(holder, attribute)))
        setattr(holder, attribute, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            holder, attribute, original = self._patches.pop()
            setattr(holder, attribute, original)

    # -- analysis ----------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Per-layer totals: calls, inclusive and self seconds, per-op sums."""
        n = len(self.span_name)
        child_time = [0.0] * n
        for index in range(n):
            parent = self.span_parent[index]
            if parent >= 0:
                child_time[parent] += self.span_end[index] - self.span_start[index]
        calls: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        self_time: Counter[str] = Counter()
        for index in range(n):
            name = self.names[self.span_name[index]]
            duration = self.span_end[index] - self.span_start[index]
            calls[name] += 1
            self_time[name] += duration - child_time[index]
            # Inclusive time counts only the outermost span of a layer so
            # recursion (e.g. labels() calling aggregate()) is not doubled.
            parent = self.span_parent[index]
            if parent < 0 or self.names[self.span_name[parent]] != name:
                inclusive[name] += duration
        return {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_time),
            "counts": dict(self.counts),
        }

    def op_durations(self, name: str) -> dict[int, float]:
        """Total inclusive seconds of spans *name* per operation id."""
        name_id = self._name_ids.get(name)
        totals: dict[int, float] = {}
        if name_id is None:
            return totals
        for index in range(len(self.span_name)):
            if self.span_name[index] == name_id:
                op = self.span_op[index]
                totals[op] = totals.get(op, 0.0) + self.span_end[index] - self.span_start[index]
        return totals

    def write(self, path: Path) -> None:
        """Write every span (gzip JSON lines) for offline inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "counts": dict(self.counts)}) + "\n")
            for index in range(len(self.span_name)):
                handle.write(
                    json.dumps(
                        [
                            self.span_name[index],
                            round(self.span_start[index], 9),
                            round(self.span_end[index], 9),
                            self.span_parent[index],
                            self.span_op[index],
                        ]
                    )
                    + "\n"
                )


def _package_modules(package: str) -> Iterable[Any]:
    prefix = package + "."
    for module_name, module in list(sys.modules.items()):
        if module is not None and (module_name == package or module_name.startswith(prefix)):
            yield module


class TimedModule:
    """A stand-in for a stdlib module whose chosen functions record spans.

    Used to time ``os.fsync`` inside ``repro.db.wal`` and ``time.sleep``
    inside ``repro.crowd.sources`` without touching any other caller.
    """

    def __init__(self, module: Any, tracer: Tracer, functions: dict[str, str]) -> None:
        self._module = module
        for attribute, name in functions.items():
            setattr(self, attribute, tracer.wrap(name, getattr(module, attribute)))

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._module, attribute)


def per_op(total: float, ops: int, scale: float = 1.0) -> float:
    """``total * scale / ops``, or 0 when no operation ran."""
    return total * scale / ops if ops else 0.0
