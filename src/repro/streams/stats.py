"""Engine instrumentation: a compatibility facade over the metrics registry.

:class:`EngineStats` keeps the PR-1 reading surface — ``tuples_ingested``,
``observer_time`` and friends, ``as_dict()`` / ``summary()`` / ``reset()``
— but no longer stores anything itself: every quantity lives in a
:class:`repro.obs.metrics.MetricsRegistry` as a ``Counter`` /
``LatencyHistogram``, labelled by relation, estimation method, and query.
The same numbers are therefore visible three ways at once: through this
facade (as before), through ``registry.snapshot()`` (JSON), and through
:func:`repro.obs.exporters.prometheus_text` (a ``/metrics`` payload).

Recording methods are called from the relation / engine hot paths; they
go through pre-resolved metric handles (label children cached per key),
so recording costs about what the previous ad-hoc dict updates did.
Timing uses ``time.perf_counter`` and is attributed per *stats key* — the
owning query's estimation method for engine-attached observers, the
observer's class name otherwise.  All counters are monotonic between
:meth:`EngineStats.reset` calls.
"""

from __future__ import annotations

from typing import Any

from ..obs import catalog
from ..obs.metrics import Counter, LatencyHistogram, MetricsRegistry
from .tuples import OpKind

__all__ = ["EngineStats"]


class EngineStats:
    """Counters for one engine's ingest and estimation activity.

    Constructed over an optional shared ``registry`` (a fresh private one
    by default, so standalone ``EngineStats()`` keeps working).  Metric
    names are stable public API: ``repro_ingest_*``, ``repro_relation_*``,
    ``repro_observer_*``, ``repro_estimate_*``, ``repro_query_*``.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        shard: str | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: When this engine is one shard of a fleet, every labelled family
        #: below grows a trailing ``shard`` label, so per-shard series stay
        #: distinct after :meth:`repro.obs.metrics.MetricsRegistry.merge`
        #: folds the fleet's registries together.  The reading surface
        #: (``relation_ops`` etc.) keys on the first label either way.
        self.shard = shard
        sharded = shard is not None
        r = self.registry
        self._ingested = r.register(catalog.INGEST_OPS)
        self._deleted = r.register(catalog.INGEST_DELETES)
        self._per_tuple = r.register(catalog.INGEST_PER_TUPLE_OPS)
        self._batches = r.register(catalog.INGEST_BATCHES)
        self._batched = r.register(catalog.INGEST_BATCHED_OPS)
        self._relation_ops = r.register(catalog.RELATION_OPS, sharded=sharded)
        self._obs_time = r.register(catalog.OBSERVER_SECONDS, sharded=sharded)
        self._obs_ops = r.register(catalog.OBSERVER_OPS, sharded=sharded)
        self._estimate_hist = r.register(catalog.ESTIMATE_LATENCY)
        self._query_estimates = r.register(catalog.QUERY_ESTIMATES, sharded=sharded)
        self._query_seconds = r.register(catalog.QUERY_ESTIMATE_SECONDS, sharded=sharded)
        # Label children resolved once per key, then hit as plain attributes.
        self._observer_cache: dict[str, tuple[Counter, Counter]] = {}
        self._relation_cache: dict[str, Counter] = {}
        self._query_cache: dict[str, tuple[Counter, Counter]] = {}

    def _labels(self, key: str) -> tuple[str, ...]:
        """The full label tuple for one key (appends the shard, if any)."""
        return (key,) if self.shard is None else (key, self.shard)

    # ------------------------------------------------------------------ #
    # recording (called from the relation / engine hot paths)
    # ------------------------------------------------------------------ #

    def record_ops(
        self, count: int, kind: OpKind, batched: bool, relation: str = ""
    ) -> None:
        """Record ``count`` same-kind operations entering a relation."""
        self._ingested.inc(count)
        if kind is OpKind.DELETE:
            self._deleted.inc(count)
        if batched:
            self._batches.inc()
            self._batched.inc(count)
        else:
            self._per_tuple.inc(count)
        if relation:
            child = self._relation_cache.get(relation)
            if child is None:
                child = self._relation_ops.labels(*self._labels(relation))
                self._relation_cache[relation] = child
            child.inc(count)

    def record_observer(self, key: str, seconds: float, count: int) -> None:
        """Record one observer update covering ``count`` operations."""
        pair = self._observer_cache.get(key)
        if pair is None:
            labels = self._labels(key)
            pair = (self._obs_time.labels(*labels), self._obs_ops.labels(*labels))
            self._observer_cache[key] = pair
        pair[0].inc(seconds)
        pair[1].inc(count)

    def record_estimate(self, seconds: float, query: str = "") -> None:
        """Record one estimate evaluation (optionally attributed to a query)."""
        self._estimate_hist.observe(seconds)
        if query:
            pair = self._query_cache.get(query)
            if pair is None:
                labels = self._labels(query)
                pair = (
                    self._query_estimates.labels(*labels),
                    self._query_seconds.labels(*labels),
                )
                self._query_cache[query] = pair
            pair[0].inc()
            pair[1].inc(seconds)

    # ------------------------------------------------------------------ #
    # reading (the PR-1 compatibility surface)
    # ------------------------------------------------------------------ #

    @property
    def tuples_ingested(self) -> int:
        """Total operations applied (insertions + deletions, any path)."""
        return int(self._ingested.value)

    @property
    def tuples_deleted(self) -> int:
        """Deletions among :attr:`tuples_ingested`."""
        return int(self._deleted.value)

    @property
    def per_tuple_ops(self) -> int:
        """Operations that went through the per-tuple ``process`` path."""
        return int(self._per_tuple.value)

    @property
    def batches(self) -> int:
        """Vectorized batch applications (one per same-kind run)."""
        return int(self._batches.value)

    @property
    def batched_ops(self) -> int:
        """Operations that arrived inside batches."""
        return int(self._batched.value)

    @property
    def observer_time(self) -> dict[str, float]:
        """Seconds spent inside observer updates, per stats key."""
        return {key[0]: child.value for key, child in self._obs_time.items()}

    @property
    def observer_ops(self) -> dict[str, int]:
        """Operations seen by observers, per stats key."""
        return {key[0]: int(child.value) for key, child in self._obs_ops.items()}

    @property
    def relation_ops(self) -> dict[str, int]:
        """Operations applied, per relation name."""
        return {key[0]: int(child.value) for key, child in self._relation_ops.items()}

    @property
    def estimate_calls(self) -> int:
        """``answer()`` / ``answers()`` estimate evaluations."""
        return self._estimate_hist.count

    @property
    def estimate_time(self) -> float:
        """Seconds spent evaluating estimates."""
        return self._estimate_hist.sum

    @property
    def estimate_latency_histogram(self) -> LatencyHistogram:
        """The estimate-latency distribution (count/sum/percentiles)."""
        return self._estimate_hist

    @property
    def query_estimates(self) -> dict[str, int]:
        """Estimate evaluations served, per query name."""
        return {key[0]: int(child.value) for key, child in self._query_estimates.items()}

    def as_dict(self) -> dict[str, Any]:
        """Snapshot as plain Python types (JSON-compatible)."""
        observer_time = self.observer_time
        observer_ops = self.observer_ops
        estimate_calls = self.estimate_calls
        out = {
            "tuples_ingested": self.tuples_ingested,
            "tuples_deleted": self.tuples_deleted,
            "per_tuple_ops": self.per_tuple_ops,
            "batches": self.batches,
            "batched_ops": self.batched_ops,
            "observer_time": observer_time,
            "observer_ops": observer_ops,
            "estimate_calls": estimate_calls,
            "estimate_time": self.estimate_time,
            "mean_estimate_latency": (
                self.estimate_time / estimate_calls if estimate_calls else None
            ),
            "ops_per_sec": {
                key: (observer_ops.get(key, 0) / seconds if seconds > 0 else None)
                for key, seconds in observer_time.items()
            },
        }
        if self.relation_ops:
            out["relation_ops"] = self.relation_ops
        return out

    def summary(self) -> str:
        """Human-readable multi-line report."""
        observer_time = self.observer_time
        observer_ops = self.observer_ops
        lines = [
            "engine stats:",
            f"  tuples ingested   {self.tuples_ingested:>12,}"
            f"  (deletions {self.tuples_deleted:,})",
            f"  per-tuple ops     {self.per_tuple_ops:>12,}",
            f"  batched ops       {self.batched_ops:>12,}"
            f"  in {self.batches:,} batches",
            f"  estimate calls    {self.estimate_calls:>12,}"
            f"  totalling {self.estimate_time * 1e3:,.2f} ms",
        ]
        if observer_time:
            lines.append("  observer update time by method:")
            width = max(len(k) for k in observer_time)
            for key in sorted(observer_time):
                seconds = observer_time[key]
                ops = observer_ops.get(key, 0)
                rate = (
                    f"{ops / seconds:>14,.0f} ops/s"
                    if seconds > 0
                    else f"{'n/a':>14} ops/s"
                )
                lines.append(
                    f"    {key:<{width}}  {seconds * 1e3:>10,.2f} ms"
                    f"  over {ops:>10,} ops {rate}"
                )
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every counter (object and metric identities are preserved).

        Only the metrics this facade owns are reset — other users of a
        shared registry (e.g. an accuracy tracker) keep their state.
        """
        for metric in (
            self._ingested,
            self._deleted,
            self._per_tuple,
            self._batches,
            self._batched,
            self._relation_ops,
            self._obs_time,
            self._obs_ops,
            self._estimate_hist,
            self._query_estimates,
            self._query_seconds,
        ):
            metric.reset()
        # Family resets drop their children; the cached handles went with them.
        self._observer_cache.clear()
        self._relation_cache.clear()
        self._query_cache.clear()
