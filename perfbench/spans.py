"""In-memory span tracer installed from outside the program.

The traced run wraps public functions and methods of the program with
:meth:`Tracer.install`; the untraced run installs nothing, so the
end-to-end numbers never pay for tracing.

* A span has a name, a start, an end, a parent and a request id.  Parents
  come from a thread-local stack, because the service's match loop and its
  HTTP handlers run on their own threads.  A span without an explicit
  request id inherits its parent's (candidate side, batch index, order id).
* A wrapper does not open a second span while a span of the same wrapper is
  already open on the thread (``super()`` chains, recursion), so a metric's
  busy time never counts one interval twice.
* A wrap target that is missing at some commit — a refactor deleted or
  moved it — is skipped: its metrics read 0 calls instead of failing the
  run (:attr:`Tracer.missing` lists it).
* Self time is a span's duration minus the part of it covered by its
  direct children.

Nothing is written while the workload runs; :meth:`Tracer.dump` writes the
spans and counts once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call.  ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Any
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A public function or method to wrap, named ``module:attr`` or
    ``module:Class.method``.

    ``span`` names the recorded span.  ``rid`` maps ``(args, kwargs,
    result)`` to the request id of the span; it is called before the call
    with ``result=None``, so children inherit the id, and again after it
    when that gave ``None`` (``None`` throughout inherits the parent's).
    ``after`` runs once per call with ``(tracer, args, kwargs, result)`` to
    record counts.  For a method, every subclass that overrides it is
    wrapped too.
    """

    path: str
    span: str
    rid: Optional[Callable[[tuple, dict, Any], Any]] = None
    after: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def _all_subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Tracer:
    """Span and count recorder; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Any = None) -> int:
        """Open a span on this thread and return its index."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        span = Span(name, self.clock(), 0.0, parent, rid, threading.current_thread().name)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``index`` opened on this thread."""
        self.spans[index].end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[int]:
        """``with tracer.span("name") as index:`` records one span."""
        index = self.begin(name, rid)
        try:
            yield index
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------ #
    # Wrapping

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for target in targets:
            if not self._install_one(target):
                self.missing.append(target.path)

    def _install_one(self, target: Target) -> bool:
        module_name, _, attr_path = target.path.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or not callable(getattr(owner, attr, None)):
                return False
            definer = next(cls for cls in owner.__mro__ if attr in vars(cls))
            for cls in dict.fromkeys([definer, *_all_subclasses(definer)]):
                if attr in vars(cls):
                    self._patch(cls, attr, self._wrapper(vars(cls)[attr], target))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapped = self._wrapper(original, target)
        # Functions imported by name (``from m import f``) are bound in the
        # importing module too; rebind every loaded reference.
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith(module_name.split(".")[0]):
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, name, wrapped)
        return True

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrapper(self, original: Callable, target: Target) -> Callable:
        tracer = self
        guard = f"_open_{id(target)}"

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local = tracer._local
            if getattr(local, guard, False):
                return original(*args, **kwargs)
            setattr(local, guard, True)
            rid = target.rid(args, kwargs, None) if target.rid is not None else None
            index = tracer.begin(target.span, rid)
            try:
                result = original(*args, **kwargs)
            finally:
                setattr(local, guard, False)
                tracer.end(index)
            if target.rid is not None and rid is None:
                late = target.rid(args, kwargs, result)
                if late is not None:
                    tracer.spans[index].rid = late
            if target.after is not None:
                target.after(tracer, args, kwargs, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # ------------------------------------------------------------------ #
    # Queries

    def select(
        self, name: str, since: float = float("-inf"), until: float = float("inf")
    ) -> List[Span]:
        """Closed spans named ``name`` that started in ``[since, until)``."""
        return [
            s for s in self.spans if s.name == name and since <= s.start < until and s.end
        ]

    def calls(self, name: str, **window: float) -> int:
        return len(self.select(name, **window))

    def busy(self, name: str, **window: float) -> float:
        """Summed duration of the spans named ``name``, in seconds."""
        return sum(s.duration for s in self.select(name, **window))

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` minus the time its direct children cover."""
        span = self.spans[index]
        children = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans
            if c.parent == index and c.end
        ]
        return span.duration - _union_length([c for c in children if c[1] > c[0]])

    def dump(self, path: Path) -> None:
        """Write spans, counts and missing targets as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [asdict(s) for s in self.spans],
            "counts": dict(sorted(self.counts.items())),
            "missing": self.missing,
        }
        path.write_text(json.dumps(payload, default=repr) + "\n")

