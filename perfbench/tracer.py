"""Spans and call counts recorded from outside clocklab.

``Tracer.install`` replaces every module global of the clocklab package that
binds a public function defined in clocklab with one shared wrapper.  Both
``clocklab.dynamics.integrate`` and ``clocklab.runner.integrate`` are
replaced, because the runner imports names directly.  A few methods that
the layers call through an object are wrapped on their class (``METHODS``).
``Tracer.remove`` puts every original back.  No file of the program changes.

A span records name, start, end, parent span, thread and operation.  The
parent is the innermost open span on the same thread, else the operation
span, so work done on the runner's sweep threads hangs under the operation
that started it.  Functions called thousands of times per operation are
counted without a span, which keeps the tracing overhead small.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# The benchmark opens the operation span around cli.main, which calls
# runner.run; the operation span's self time is the cli and runner glue.
SKIP_MODULES = ("clocklab.cli",)
# runner.run is covered by the operation span.  The others are evaluated per
# CSV cell or per finite-difference sample inside another layer function;
# they are not layer boundaries.
UNWRAPPED = frozenset({"runner.run", "csvio.format_cell", "brackets.phi1", "brackets.phi2"})
# Called thousands of times per operation: counted, no span.
COUNT_ONLY = frozenset({
    "metric.inverse_metric3",
    "dynamics.total_hamiltonian",
    "brackets.poisson_bracket",
    "brackets.coordinate_observable",
    "grids.spectral_derivative_array",
    "units.convert_units",
})
METHODS = (("clocklab.metric", "StaticMetric", "inverse_metric3"),)

MARK = "__perfbench_original__"

# hook(tracer, args, kwargs, result) runs after a wrapped call returns
Hook = Callable[["Tracer", tuple, dict, object], None]


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    thread: int
    op: int | None


def layer_name(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr}"


def clocklab_modules(package: str = "clocklab") -> list:
    root = importlib.import_module(package)
    mods = [root]
    for info in pkgutil.iter_modules(root.__path__):
        mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


class Tracer:
    def __init__(self, hooks: dict[str, Hook] | None = None):
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.tallies: defaultdict[str, float] = defaultdict(float)
        self.operations: list[tuple[int, str, bool]] = []  # (span index, label, swept)
        self.hooks = dict(hooks or {})
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # --- tallies written by hooks ------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.tallies[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.tallies[key] = max(self.tallies[key], value)

    # --- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._op
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), None, parent,
                                   threading.get_ident(), self._op))
            self.calls[name] += 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def operation(self, label: str, swept: bool = False):
        """Span of one operation; spans opened meanwhile on any thread
        belong to it."""
        idx = self._open(f"operation.{label}")
        self._op = idx
        self.spans[idx].op = idx
        self.operations.append((idx, label, swept))
        try:
            yield idx
        finally:
            self._close(idx)
            self._op = None

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = self.hooks.get(name)
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self._lock:
                    self.calls[name] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self, package: str = "clocklab") -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for mod in clocklab_modules(package):
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or hasattr(value, MARK)
                        or not value.__module__.startswith(f"{package}.")
                        or value.__module__ in SKIP_MODULES):
                    continue
                name = layer_name(value.__module__, value.__name__)
                if name in UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
        for module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(layer_name(module, attr), original))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- derived figures ---------------------------------------------------

    def duration(self, idx: int) -> float:
        span = self.spans[idx]
        return (span.end if span.end is not None else span.start) - span.start

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span.parent is not None and span.parent != idx:
                out[span.parent].append(idx)
        return out

    def self_time(self, idx: int, children: dict[int, list[int]]) -> float:
        """Duration minus the part of it that child spans on any thread cover."""
        span = self.spans[idx]
        lo, hi = span.start, span.end
        intervals = sorted((max(self.spans[c].start, lo), min(self.spans[c].end, hi))
                           for c in children.get(idx, ()))
        covered, reach = 0.0, lo
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return (hi - lo) - covered

    def total(self, name: str) -> float:
        """Summed duration of every span of this name."""
        return sum(self.duration(i) for i, s in enumerate(self.spans) if s.name == name)

    def records(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "thread": s.thread, "op": s.op} for i, s in enumerate(self.spans)]
