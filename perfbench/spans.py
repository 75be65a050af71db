"""Span recording from outside the program: wrappers around public entry points.

Nothing under ``src/`` knows about these spans.  :meth:`Recorder.install` replaces
each public function listed in :data:`ENTRY_POINTS` with a timing wrapper,
under the name its callers look it up by: a method on its class, or a
module-level function in every ``repro`` module that imported it.  Each
span records its parent (a per-thread stack; a span opened on a fan-out
pool thread takes the executor call that fanned it out as parent), its
start and end on the shared monotonic clock, and a work count.  Spans stay
in memory; :func:`aggregate` turns them into per-layer totals at the end.

A layer's self time is its span's duration minus the part of that
interval its child spans cover, so the self times of one call tree add
up to the outermost span's duration.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

#: Synopsis methods, in the order their per-method metrics are reported.
METHODS = (
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
)


def _rows(position: int) -> Callable[[tuple[Any, ...], dict[str, Any]], int]:
    """Work count = length of the positional argument at ``position``."""

    def count(args: tuple[Any, ...], kwargs: dict[str, Any]) -> int:
        try:
            return len(args[position])
        except (IndexError, TypeError):
            return 0

    return count


@dataclass(frozen=True)
class EntryPoint:
    """One public function the benchmark times, and where it lives."""

    metric: str  # metric prefix, e.g. ``streams.relation.insert_rows``
    module: str  # defining module
    owner: str | None  # class name, or None for a module-level function
    attr: str
    count: Callable[[tuple[Any, ...], dict[str, Any]], int] | None = None


#: Every timed entry point.  Methods are wrapped on their class (the name
#: ``self.x(...)`` resolves to); functions are wrapped in each module that
#: bound the name at import time.
ENTRY_POINTS = (
    EntryPoint("streams.relation.insert_rows", "repro.streams.relation",
               "StreamRelation", "insert_rows", _rows(1)),
    EntryPoint("streams.relation.delete_rows", "repro.streams.relation",
               "StreamRelation", "delete_rows", _rows(1)),
    EntryPoint("streams.relation.indices_of_rows", "repro.streams.relation",
               "StreamRelation", "indices_of_rows", _rows(1)),
    EntryPoint("core.synopsis.insert_batch", "repro.core.synopsis",
               "CosineSynopsis", "insert_batch", _rows(1)),
    EntryPoint("core.synopsis.delete_batch", "repro.core.synopsis",
               "CosineSynopsis", "delete_batch", _rows(1)),
    EntryPoint("fastpath.phi_block", "repro.fastpath.backend", None, "phi_block", _rows(1)),
    EntryPoint("sketches.basic.update_batch", "repro.sketches.basic",
               "AGMSSketch", "update_batch", _rows(1)),
    EntryPoint("sketches.hashing.hash_values", "repro.sketches.hashing",
               "SignFamily", "hash_values", _rows(1)),
    EntryPoint("sketches.partitioned.update_batch", "repro.sketches.partitioned",
               "PartitionedSketch", "update_batch", _rows(1)),
    EntryPoint("histograms.equiwidth.update_batch", "repro.histograms.equiwidth",
               "EquiWidthHistogram", "update_batch", _rows(1)),
    EntryPoint("wavelets.haar.update_batch", "repro.wavelets.haar",
               "HaarSynopsis", "update_batch", _rows(1)),
    EntryPoint("sampling.reservoir.insert_batch", "repro.sampling.reservoir",
               "BernoulliSample", "insert_batch", _rows(1)),
    EntryPoint("bounds.degree.update_batch", "repro.bounds.degree",
               "DegreeSketch", "update_batch", _rows(1)),
    EntryPoint("bounds.calculator.upper_bound", "repro.bounds.calculator",
               "JoinBoundCalculator", "upper_bound"),
    EntryPoint("streams.engine.answer", "repro.streams.engine",
               "ContinuousQueryEngine", "answer"),
    EntryPoint("streams.engine.estimate", "repro.streams.engine",
               "ContinuousQueryEngine", "estimate"),
    EntryPoint("resilience.deadletter.validate_rows", "repro.resilience.deadletter",
               None, "validate_rows", _rows(1)),
    EntryPoint("sharding.partition.split_rows", "repro.sharding.partition",
               None, "split_rows", _rows(0)),
    EntryPoint("sharding.engine.ingest_batch", "repro.sharding.engine",
               "ShardedStreamEngine", "ingest_batch", _rows(2)),
    EntryPoint("sharding.engine.answer", "repro.sharding.engine",
               "ShardedStreamEngine", "answer"),
    EntryPoint("sharding.merge.merge_observer_states", "repro.sharding.merge",
               None, "merge_observer_states"),
    EntryPoint("fleet.executor.scatter", "repro.fleet.executor",
               "SocketExecutor", "scatter"),
    EntryPoint("fleet.executor.broadcast", "repro.fleet.executor",
               "SocketExecutor", "broadcast"),
    EntryPoint("fleet.protocol.send", "repro.fleet.protocol", None, "send_frame"),
    EntryPoint("fleet.protocol.recv", "repro.fleet.protocol", None, "recv_frame"),
)

#: Modules that import a wrapped module-level function by name.
_IMPORTERS = (
    "repro.core.join",
    "repro.core.range_query",
    "repro.streams.engine",
    "repro.sharding",
    "repro.fleet",
    "repro.bounds",
)
#: Executor calls that hand work to pool threads: spans opened there are
#: children of the fan-out span.
_FANOUT = ("fleet.executor.scatter", "fleet.executor.broadcast")
#: Frame calls whose byte count comes from the socket they are handed.
_FRAMES = ("fleet.protocol.send", "fleet.protocol.recv")
#: Engine reads attributed to the query's method (the query name).
_READS = ("streams.engine.answer", "streams.engine.estimate")


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    count: int = 0
    method: str = ""


class _CountingSocket:
    """Socket proxy that counts the bytes a frame call moves."""

    def __init__(self, sock: Any) -> None:
        self._sock = sock
        self.moved = 0

    def sendall(self, data: bytes) -> None:
        self.moved += len(data)
        self._sock.sendall(data)

    def recv(self, bufsize: int) -> bytes:
        data: bytes = self._sock.recv(bufsize)
        self.moved += len(data)
        return data


class Recorder:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 1
        self._fanout = 0  # open fan-out span, parent of pool-thread spans
        self._installed: list[tuple[Any, str, Any, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[Span, list[int]]:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else self._fanout
        span = Span(sid, parent, name, perf_counter())
        stack.append(sid)
        return span, stack

    def close(self, span: Span, stack: list[int]) -> None:
        span.end = perf_counter()
        stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, entry: EntryPoint, fn: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self
        name = entry.metric
        count = entry.count

        if name in _FRAMES:

            @functools.wraps(fn)
            def frame_wrapper(sock: Any, *args: Any, **kwargs: Any) -> Any:
                counting = _CountingSocket(sock)
                span, stack = recorder.open(name)
                try:
                    return fn(counting, *args, **kwargs)
                finally:
                    span.count = counting.moved
                    recorder.close(span, stack)

            return frame_wrapper

        if name in _FANOUT:

            @functools.wraps(fn)
            def fanout_wrapper(*args: Any, **kwargs: Any) -> Any:
                span, stack = recorder.open(name)
                saved, recorder._fanout = recorder._fanout, span.sid
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder._fanout = saved
                    recorder.close(span, stack)

            return fanout_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span, stack = recorder.open(name)
            if count is not None:
                span.count = count(args, kwargs)
            elif name in _READS and len(args) > 1:
                span.method = str(args[1])
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(span, stack)

        return wrapper

    def install(self) -> None:
        """Wrap every entry point where its callers look it up."""
        import importlib

        # Load every module that binds a wrapped function by name first.
        for name in _IMPORTERS:
            importlib.import_module(name)
        for entry in ENTRY_POINTS:
            module = importlib.import_module(entry.module)
            if entry.owner is not None:
                owner = getattr(module, entry.owner)
                had_own = entry.attr in vars(owner)
                original = getattr(owner, entry.attr)
                setattr(owner, entry.attr, self.wrap(entry, original))
                self._installed.append((owner, entry.attr, original, had_own))
                continue
            original = getattr(module, entry.attr)
            wrapped = self.wrap(entry, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                if vars(mod).get(entry.attr) is original:
                    setattr(mod, entry.attr, wrapped)
                    self._installed.append((mod, entry.attr, original, True))

    def uninstall(self) -> None:
        for target, attr, original, had_own in reversed(self._installed):
            if had_own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._installed = []


def spans_to_json(spans: Iterable[Span]) -> list[list[Any]]:
    return [[s.sid, s.parent, s.name, s.start, s.end, s.count, s.method] for s in spans]


def spans_from_json(rows: Sequence[Sequence[Any]]) -> list[Span]:
    return [
        Span(int(sid), int(parent), str(name), float(start), float(end), int(count), str(method))
        for sid, parent, name, start, end, count, method in rows
    ]


def in_windows(spans: Iterable[Span], windows: Sequence[tuple[float, float]]) -> list[Span]:
    """Spans that started inside one of the timed windows."""
    return [s for s in spans if any(lo <= s.start < hi for lo, hi in windows)]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass
class Totals:
    calls: int = 0
    count: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


def aggregate(spans: Sequence[Span]) -> dict[str, Totals]:
    """Per-entry-point totals; engine reads are keyed ``estimate.<method>``.

    ``calls`` and ``durations`` of an engine read count only the outermost
    read of a call tree (``estimate`` calls ``answer`` in bound modes), while
    ``self_s`` sums every read span's self time.
    """
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)
    out: dict[str, Totals] = {}
    for s in spans:
        key = f"estimate.{s.method}" if s.name in _READS else s.name
        totals = out.setdefault(key, Totals())
        totals.self_s += own[s.sid]
        parent = by_id.get(s.parent)
        if s.name in _READS and parent is not None and parent.name in _READS:
            continue
        totals.calls += 1
        totals.count += s.count
        totals.durations.append(s.end - s.start)
    return out


def top_level_seconds(spans: Sequence[Span]) -> float:
    """Summed duration of spans with no recorded parent."""
    ids = {s.sid for s in spans}
    return sum(s.end - s.start for s in spans if s.parent not in ids)


def observer_busy(spans: Sequence[Span]) -> dict[str, float]:
    """Inclusive seconds of synopsis spans called straight from a relation.

    These are the calls an observer makes on its synopsis, the same
    intervals ``engine.stats()`` times per method (less the observer's own
    glue), so the two can be compared.
    """
    by_id = {s.sid: s for s in spans}
    relation = ("streams.relation.insert_rows", "streams.relation.delete_rows")
    out: dict[str, float] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.name in relation and s.name not in relation:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out
