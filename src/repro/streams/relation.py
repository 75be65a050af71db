"""Stream relations: exact state, schemas, and synopsis observers.

A :class:`StreamRelation` models one stream of the paper's setting: a named
relation whose tuples arrive (and possibly depart) one at a time.  It keeps

* the exact joint frequency tensor — the ground truth the experiments
  measure relative error against (feasible because reproduction-scale
  domains are bounded; guarded by ``MAX_EXACT_CELLS``), and
* a list of attached *observers* — synopses that see every operation as it
  happens, exactly as the paper updates cosine coefficients and atomic
  sketches "whenever a tuple arrives" (section 5.1).

Beyond the paper's per-tuple model, relations also accept *batches*:
:meth:`StreamRelation.insert_rows` / :meth:`StreamRelation.delete_rows`
reduce the batch once to its distinct cells and signed multiplicities (a
:class:`CellDelta`), update the exact tensor from that delta and notify
each observer once per batch.  Observers that implement ``on_ops(relation,
rows, kind)`` get the whole batch and can read its delta with
:meth:`StreamRelation.delta_of` (a linear synopsis is a projection of
it); anything exposing only ``on_op`` is fed tuple-by-tuple, so the two
protocols coexist on one relation.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Sequence, TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from ..core.cells import distinct_cells
from ..core.normalization import Domain
from ..core.stateful import Stateful
from .tuples import OpKind, StreamOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..obs.tracing import Tracer
    from .stats import EngineStats

#: Refuse to materialize exact count tensors above this many cells.
MAX_EXACT_CELLS = 200_000_000


class CellDelta:
    """One same-kind batch, reduced to its distinct cells.

    ``rows`` is the raw ``(B, ndim)`` batch and ``indices`` its per-row
    domain indices; ``cells`` holds the batch's distinct index tuples in
    lexicographic order and ``counts`` their multiplicities, negative for a
    deletion batch.  :meth:`project` re-expresses the delta over a subset
    of attributes in another index space (a join's unified domains), so
    each observer pays for its view of the batch once per distinct cell.
    """

    __slots__ = ("rows", "indices", "kind", "cells", "counts", "_domains", "_marginals")

    def __init__(
        self,
        rows: NDArray[Any],
        indices: NDArray[Any],
        kind: OpKind,
        domains: Sequence[Domain],
    ) -> None:
        self.rows = rows
        self.indices = indices
        self.kind = kind
        cells, counts = distinct_cells(indices, [d.size for d in domains])
        self.cells = cells
        self.counts = counts if kind is OpKind.INSERT else -counts
        self._domains = tuple(domains)
        self._marginals: dict[tuple[int, ...], tuple[NDArray[Any], NDArray[Any]]] = {}

    def project(
        self, axes: Sequence[int], domains: Sequence[Domain]
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Distinct ``(cells, counts)`` over ``axes``, indexed in ``domains``.

        ``domains[i]`` is the index space of attribute ``axes[i]``; it must
        contain that attribute's values (a unified join domain does).
        """
        key = tuple(axes)
        marginal = self._marginals.get(key)
        if marginal is None:
            if key == tuple(range(len(self._domains))):
                marginal = (self.cells, self.counts)
            else:
                shape = [self._domains[ax].size for ax in key]
                marginal = distinct_cells(self.cells[:, key], shape, self.counts)
            self._marginals[key] = marginal
        cells, counts = marginal
        if all(d == self._domains[ax] for d, ax in zip(domains, key)):
            return cells, counts
        columns = [
            target.indices_of(self._domains[ax].values_at(cells[:, i]))
            for i, (ax, target) in enumerate(zip(key, domains))
        ]
        return np.stack(columns, axis=1), counts


class StreamObserver(Stateful):
    """Base class for synopses that watch a relation's operations live.

    Subclasses must implement :meth:`on_op`; batch-aware subclasses
    additionally override :meth:`on_ops`, whose default simply replays the
    batch tuple-by-tuple so per-op observers stay correct under batched
    ingestion.  Attachment is duck-typed — any object with an ``on_op``
    method works — but inheriting picks up the batch fallback for free.
    Checkpoint state is derived (:class:`~repro.core.stateful.Stateful`):
    every attribute except the declared structural ones.
    """

    # Set by register_query for per-method time attribution; the restored
    # engine sets it again when it re-registers the query.
    _checkpoint_exempt = ("stats_key",)

    def on_op(self, relation: "StreamRelation", op: StreamOp) -> None:
        """Called once per stream operation, after exact state is updated."""
        raise NotImplementedError

    def on_ops(self, relation: "StreamRelation", rows: NDArray[Any], kind: OpKind) -> None:
        """Called once per same-kind batch, after exact state is updated.

        ``rows`` is a ``(B, ndim)`` array of raw tuples;
        ``relation.delta_of(rows, kind)`` is its distinct-cell delta,
        already computed.  The default falls back to one :meth:`on_op`
        call per row.
        """
        for row in rows:
            self.on_op(relation, StreamOp(tuple(row), kind))


def _stats_key(observer: object) -> str:
    """Stats attribution key: the owning query's method, or the class name."""
    return getattr(observer, "stats_key", type(observer).__name__)


class StreamRelation:
    """A named stream with a fixed schema of attribute domains."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        domains: Sequence[Domain],
    ) -> None:
        if not attributes:
            raise ValueError("a relation needs at least one attribute")
        if len(attributes) != len(domains):
            raise ValueError("one domain per attribute is required")
        if len(set(attributes)) != len(attributes):
            raise ValueError("attribute names must be distinct")
        cells = int(np.prod([d.size for d in domains]))
        if cells > MAX_EXACT_CELLS:
            raise ValueError(
                f"exact tracking of {cells} cells exceeds MAX_EXACT_CELLS; "
                "use smaller domains for ground-truth experiments"
            )
        self.name = name
        self.attributes = tuple(attributes)
        self.domains = tuple(domains)
        self.counts = np.zeros(tuple(d.size for d in domains), dtype=np.int64)
        self._count = 0
        self._observers: list[StreamObserver] = []
        #: Optional counters shared with an owning engine (see
        #: :class:`repro.streams.stats.EngineStats`); ``None`` disables
        #: instrumentation entirely.
        self.stats: "EngineStats | None" = None
        #: Optional span recorder (see :class:`repro.obs.tracing.Tracer`);
        #: ``None`` disables tracing of batch applies and observer updates.
        self.tracer: "Tracer | None" = None
        #: Optional observer fault handler: ``handler(relation, observer,
        #: exc) -> bool``, called when an observer raises.  Returning True
        #: means the fault was absorbed (the observer is typically
        #: quarantined by the handler) and notification continues with the
        #: remaining observers; returning False re-raises.  ``None`` (the
        #: default) preserves raise-through semantics exactly.
        self.fault_handler = None
        #: The delta of the batch being applied, while observers run.
        self._delta: CellDelta | None = None

    @property
    def ndim(self) -> int:
        return len(self.attributes)

    @property
    def count(self) -> int:
        """Live tuple count ``N``."""
        return self._count

    def attach(self, observer: StreamObserver) -> None:
        """Subscribe a synopsis observer to future operations."""
        self._observers.append(observer)

    def detach(self, observer: StreamObserver) -> None:
        self._observers.remove(observer)

    # ------------------------------------------------------------------ #

    def indices_of(self, values: Sequence[Any]) -> tuple[int, ...]:
        """Map one raw tuple to per-attribute domain indices."""
        if len(values) != self.ndim:
            raise ValueError(
                f"{self.name} has {self.ndim} attributes, tuple has {len(values)}"
            )
        return tuple(d.index_of(v) for d, v in zip(self.domains, values))

    def rows_array(self, rows: Sequence[Sequence[Any]] | NDArray[Any]) -> NDArray[Any]:
        """Coerce a batch of raw tuples into a ``(B, ndim)`` array.

        A 1-d input is accepted for single-attribute relations (a batch of
        scalars); multi-attribute relations require one row per tuple.
        """
        arr = np.asarray(rows)
        if arr.size == 0 and arr.ndim <= 1:
            # An empty batch has no rows to carry shape information; make
            # it an explicit well-formed no-op instead of a shape error.
            return np.empty((0, self.ndim), dtype=np.int64)
        if arr.ndim == 1:
            if self.ndim == 1:
                arr = arr[:, None]
            else:
                raise ValueError(
                    f"{self.name} has {self.ndim} attributes; "
                    "pass rows as a (B, ndim) sequence of tuples"
                )
        if arr.ndim != 2 or arr.shape[1] != self.ndim:
            raise ValueError(
                f"rows must have shape (B, {self.ndim}), got {arr.shape}"
            )
        return arr

    def indices_of_rows(self, rows: Sequence[Sequence[Any]] | NDArray[Any]) -> NDArray[Any]:
        """Map a batch of raw tuples to a ``(B, ndim)`` index array.

        When every domain is a 0-based integer range and the rows already
        arrive as int64, the raw values *are* the indices: the batch is
        bounds-checked in place and returned without copying, keeping
        ``insert_rows`` zero-copy end-to-end (asserted by
        ``tests/fastpath/test_zero_copy.py``).
        """
        arr = self.rows_array(rows)
        if arr.dtype == np.int64 and all(
            not d.is_categorical and d.low == 0 for d in self.domains
        ):
            for j, d in enumerate(self.domains):
                d.indices_of(arr[:, j])  # bounds check only; returns the view
            return arr
        columns = [d.indices_of(arr[:, j]) for j, d in enumerate(self.domains)]
        return np.stack(columns, axis=1)

    def delta_of(
        self, rows: Sequence[Sequence[Any]] | NDArray[Any], kind: OpKind
    ) -> CellDelta:
        """The distinct-cell delta of a batch of raw tuples.

        Inside an observer's ``on_ops`` this is the delta the relation
        already computed for the batch; any other batch gets a fresh one.
        """
        delta = self._delta
        if delta is not None and delta.rows is rows and delta.kind is kind:
            return delta
        arr = self.rows_array(rows)
        return CellDelta(arr, self.indices_of_rows(arr), kind, self.domains)

    # ------------------------------------------------------------------ #
    # per-tuple path
    # ------------------------------------------------------------------ #

    def process(self, op: StreamOp) -> None:
        """Apply one stream operation and notify observers.

        With a tracer attached *and 1-in-N sampling enabled*, the apply is
        recorded as a sampled ``process_op`` span: a sampled-out tuple pays
        one integer decrement instead of two clock reads.  Without
        ``sample_every`` the per-tuple path stays span-free, as before —
        recording every tuple would cost exactly the per-tuple overhead
        the sampling item exists to remove (``sample_every=1`` opts into
        tracing every tuple explicitly).
        """
        tracer = self.tracer
        if tracer is not None and tracer.sample_every is not None and tracer.take():
            start = perf_counter()
            try:
                self._process_inner(op)
            finally:
                tracer.record(
                    "process_op",
                    perf_counter() - start,
                    start=start,
                    relation=self.name,
                    kind=op.kind.name.lower(),
                )
            return
        self._process_inner(op)

    def _process_inner(self, op: StreamOp) -> None:
        idx = self.indices_of(op.values)
        if op.kind is OpKind.DELETE and self.counts[idx] == 0:
            raise ValueError(f"deleting tuple {op.values} that {self.name} does not hold")
        self.counts[idx] += op.weight
        self._count += op.weight
        stats = self.stats
        handler = self.fault_handler
        if stats is None and handler is None:
            for observer in self._observers:
                observer.on_op(self, op)
            return
        if stats is not None:
            stats.record_ops(1, op.kind, batched=False, relation=self.name)
        # Copy only when a fault handler is attached: it may quarantine
        # (detach) the failing observer while we are walking the list.
        if handler is None:
            observers = self._observers
        else:
            observers = list(self._observers)  # repro: noqa[REP006]
        for observer in observers:
            start = perf_counter() if stats is not None else 0.0
            try:
                observer.on_op(self, op)
            except Exception as exc:
                if handler is None or not handler(self, observer, exc):
                    raise
            if stats is not None:
                stats.record_observer(_stats_key(observer), perf_counter() - start, 1)

    def insert(self, values: Sequence[Any]) -> None:
        """Convenience: process an insertion of one raw tuple."""
        self.process(StreamOp(tuple(values), OpKind.INSERT))

    def delete(self, values: Sequence[Any]) -> None:
        """Convenience: process a deletion of one raw tuple."""
        self.process(StreamOp(tuple(values), OpKind.DELETE))

    # ------------------------------------------------------------------ #
    # batch path
    # ------------------------------------------------------------------ #

    def insert_rows(self, rows: Sequence[Sequence[Any]] | NDArray[Any]) -> None:
        """Process a batch of insertions with one scatter-add and one notify.

        The final state is identical to inserting each row individually;
        observers implementing ``on_ops`` see the whole batch at once.
        """
        arr = self.rows_array(rows)
        if arr.shape[0]:
            self._apply_rows(arr, OpKind.INSERT)

    def delete_rows(self, rows: Sequence[Sequence[Any]] | NDArray[Any]) -> None:
        """Process a batch of deletions (validated before any state change)."""
        arr = self.rows_array(rows)
        if arr.shape[0]:
            self._apply_rows(arr, OpKind.DELETE)

    def process_batch(self, ops: Iterable[StreamOp]) -> None:
        """Apply a sequence of operations, batching runs of the same kind.

        Consecutive same-kind operations are grouped into one vectorized
        application each, so a mixed insert/delete stream preserves its
        relative order while still amortizing observer updates.
        """
        run: list[tuple[Any, ...]] = []
        run_kind: OpKind | None = None
        for op in ops:
            if run_kind is not None and op.kind is not run_kind:
                self._apply_rows(self.rows_array(run), run_kind)
                run = []
            run_kind = op.kind
            run.append(op.values)
        if run:
            assert run_kind is not None
            self._apply_rows(self.rows_array(run), run_kind)

    def _apply_rows(self, arr: NDArray[Any], kind: OpKind) -> None:
        """Vectorized core: update exact counts, then notify once.

        With a :attr:`tracer` attached, the whole apply is wrapped in an
        ``ingest_batch`` span and each observer update is emitted as an
        ``observer_update`` event (reusing the duration the stats layer
        measured, so tracing adds no extra clock reads per observer).
        """
        tracer = self.tracer
        if tracer is None:
            self._apply_rows_inner(arr, kind)
        else:
            with tracer.span(
                "ingest_batch",
                count=arr.shape[0],
                relation=self.name,
                kind=kind.name.lower(),
            ):
                self._apply_rows_inner(arr, kind)

    def _apply_rows_inner(self, arr: NDArray[Any], kind: OpKind) -> None:
        delta = CellDelta(arr, self.indices_of_rows(arr), kind, self.domains)
        cells = tuple(delta.cells.T)
        if kind is OpKind.DELETE:
            # A sequential replay would raise on the first tuple exceeding
            # its live multiplicity; check up front so a rejected batch
            # leaves the exact state untouched.
            short = self.counts[cells] < -delta.counts
            if short.any():
                bad_idx = delta.cells[np.argmax(short)]
                where = np.argmax(np.all(delta.indices == bad_idx, axis=1))
                bad = tuple(v.item() for v in arr[where])
                raise ValueError(
                    f"deleting tuple {bad} that {self.name} does not hold"
                )
        self.counts[cells] += delta.counts
        batch = arr.shape[0]
        self._count += batch if kind is OpKind.INSERT else -batch
        stats = self.stats
        tracer = self.tracer
        if stats is not None:
            stats.record_ops(batch, kind, batched=True, relation=self.name)
        # One sampling decision covers the whole batch: a sampled-out batch
        # with no stats attached skips every per-observer clock read.
        traced = tracer is not None and tracer.take()
        timed = stats is not None or traced
        fault_handler = self.fault_handler
        observers = self._observers if fault_handler is None else list(self._observers)
        self._delta = delta
        try:
            for observer in observers:
                start = perf_counter() if timed else 0.0
                handler = getattr(observer, "on_ops", None)
                try:
                    if handler is not None:
                        handler(self, arr, kind)
                    else:
                        for row in arr:
                            observer.on_op(self, StreamOp(tuple(row), kind))
                except Exception as exc:
                    if fault_handler is None or not fault_handler(self, observer, exc):
                        raise
                if timed:
                    seconds = perf_counter() - start
                    key = _stats_key(observer)
                    if stats is not None:
                        stats.record_observer(key, seconds, batch)
                    if traced:
                        tracer.record(
                            "observer_update",
                            seconds,
                            count=batch,
                            start=start,
                            relation=self.name,
                            method=key,
                        )
        finally:
            self._delta = None

    # ------------------------------------------------------------------ #

    def load_counts(self, counts: NDArray[Any]) -> None:
        """Bulk-load an initial frequency tensor (no observer notification).

        Meant for experiment setup *before* observers are attached; attached
        synopses would silently miss the loaded tuples, so this raises if
        any observer is present.
        """
        if self._observers:
            raise ValueError("cannot bulk-load after observers are attached")
        counts = np.asarray(counts)
        if counts.shape != self.counts.shape:
            raise ValueError(f"counts shape {counts.shape} != {self.counts.shape}")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        self.counts = counts.astype(np.int64).copy()
        self._count = int(counts.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        schema = ", ".join(self.attributes)
        return f"StreamRelation({self.name}({schema}), N={self._count})"
