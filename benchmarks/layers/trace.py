"""Outside-in span recorder: wraps a program's public functions from here,
records (name, start, end, parent) spans in memory, restores every original.

The layers of ``repro`` carry no instrumentation of their own yet (that is
ROADMAP item 1, ``repro.obs``), so the benchmark records spans around the
calls *into* each layer by replacing the layer's public callables with timed
wrappers for the duration of a traced rep.

Patching is by identity. ``pt_cn.py`` does ``from ...pw.density import
compute_density``, so the function lives in two namespaces; replacing only
the defining module's attribute would silently record nothing for PT-CN.
:meth:`Tracer.patch` therefore replaces the attribute in *every* loaded
module of the package whose value ``is`` the original, and
:meth:`Tracer.restore` puts every one of them back.

Coroutine functions are traced per resumption: each ``send`` into the
coroutine is one synchronous span, so an ``await`` that lets another task run
is not charged to the suspended function, and the spans of interleaved tasks
still nest properly on one stack. ``<name>.calls`` and ``<name>.wall_s``
counters carry the per-call count and the first-resume-to-return wall (which
*does* include suspension — that is the waiting time).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

__all__ = ["Tracer"]

_clock = time.perf_counter


class _TracedAwaitable:
    """Drives a coroutine one resumption at a time, one span per resumption."""

    __slots__ = ("_tracer", "_name", "_coro")

    def __init__(self, tracer: "Tracer", name: str, coro) -> None:
        self._tracer, self._name, self._coro = tracer, name, coro

    def __await__(self):
        tracer, name = self._tracer, self._name
        inner = self._coro.__await__()
        first = _clock()
        value, error = None, None
        try:
            while True:
                index = tracer.begin(name)
                try:
                    if error is None:
                        pending = inner.send(value)
                    else:
                        pending = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.end(index)
                value, error = None, None
                try:
                    value = yield pending
                except BaseException as exc:  # cancellation: hand it to the coroutine
                    error = exc
        finally:
            tracer.add(f"{name}.calls", 1)
            tracer.add(f"{name}.wall_s", _clock() - first)


class Tracer:
    """In-memory span recorder plus the patch/restore bookkeeping.

    A span is ``[name, start, end, parent, work]``: ``parent`` is the index
    of the enclosing span (``-1`` for a root) and ``work`` an optional amount
    of work the call did (e.g. transforms in one batched FFT call). Spans are
    appended when they begin, so a parent's index is always smaller than its
    children's.

    Wrappers only record while :attr:`recording` is set — :meth:`record`
    sets it for the duration of one timed section — so untimed preparation
    between sections passes straight through to the originals.
    """

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: per name, rows a wrapper chose to keep about single calls
        self.events: dict[str, list[dict]] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def record(self, name: str):
        """Record for the duration of the block, under a root span ``name``
        (whose self time is the part of the block no wrapped call covers)."""
        self.recording = True
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self.recording = False

    def begin(self, name: str, work: float = 1.0) -> int:
        """Open a span; returns its index for :meth:`end` (``-1`` and no span
        while not recording)."""
        if not self.recording:
            return -1
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, work])
        stack.append(index)
        self.spans[index][1] = _clock()
        return index

    def end(self, index: int) -> None:
        """Close the span opened as ``index`` (must be the innermost one)."""
        now = _clock()
        if index < 0:
            return
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed while {self.spans[popped][0]!r} is innermost"
            )
        self.spans[index][2] = now

    def add(self, counter: str, amount: float) -> None:
        """Add to a named counter (counts made where the work happens)."""
        if self.recording:
            self.counters[counter] += amount

    def wrap(self, name: str, function, work=None):
        """A wrapper recording one span named ``name`` per call of ``function``
        (per resumption, for coroutine functions). ``work(*args, **kwargs)``
        optionally computes the span's work amount from the call arguments."""
        tracer = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_coroutine(*args, **kwargs):
                return await _TracedAwaitable(tracer, name, function(*args, **kwargs))

            return traced_coroutine

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            index = tracer.begin(name, 1.0 if work is None else work(*args, **kwargs))
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attribute: str, wrapper_for, package: str) -> None:
        """Replace ``owner.attribute`` — wherever it is bound — by a wrapper.

        ``owner`` is a module or a class; ``wrapper_for(original)`` builds the
        replacement (use :meth:`wrap`). A class attribute is replaced on the
        class (subclasses that inherit it see the wrapper; ``classmethod`` /
        ``staticmethod`` descriptors are re-wrapped as such). A module-level
        callable is replaced in the namespace of every loaded module of
        ``package`` where the bound value ``is`` the original, whatever name
        it is bound to there.
        """
        original = vars(owner)[attribute]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(wrapper_for(original.__func__))
        else:
            replacement = wrapper_for(original)
        if inspect.isclass(owner):
            holders = [(owner, attribute)]
        else:
            holders = [
                (module, bound_name)
                for module_name, module in list(sys.modules.items())
                if module is not None
                and (module_name == package or module_name.startswith(package + "."))
                for bound_name, value in list(vars(module).items())
                if value is original
            ]
        for holder, bound_name in holders:
            setattr(holder, bound_name, replacement)
            self._patched.append((holder, bound_name, original, replacement))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patched:
            holder, bound_name, original, replacement = self._patched.pop()
            if vars(holder).get(bound_name) is replacement:
                setattr(holder, bound_name, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def totals(self) -> dict[str, dict]:
        """Per name: ``calls``, ``work``, ``busy_s`` (inclusive; a span nested
        inside a same-named span is not counted twice) and ``self_s``."""
        own = self.self_times()
        spans = self.spans
        out: dict[str, dict] = {}
        for index, (name, start, end, parent, work) in enumerate(spans):
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "work": 0.0, "busy_s": 0.0, "self_s": 0.0}
            entry["calls"] += 1
            entry["work"] += work
            entry["self_s"] += own[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry["busy_s"] += end - start
        return out

    def union_busy(self, names) -> float:
        """Seconds covered by spans named in ``names``, counting a span nested
        inside another span of the set once (``Session.propagate`` calls
        ``Session.ground_state``: their union is not their sum)."""
        names = frozenset(names)
        spans = self.spans
        seconds = 0.0
        for name, start, end, parent, _work in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                seconds += end - start
        return seconds

    def durations(self, name: str) -> list[float]:
        """Every duration recorded under ``name``, in start order."""
        return [span[2] - span[1] for span in self.spans if span[0] == name]

    def dump(self, path) -> None:
        """Write spans and counters as JSON (called when the run ends)."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "work"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "events": dict(self.events),
                },
                handle,
            )
