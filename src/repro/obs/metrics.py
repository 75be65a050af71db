"""Metric primitives and the registry that owns them.

The observability layer's storage model is deliberately small: three
primitive kinds — monotonic :class:`Counter`, free-moving :class:`Gauge`,
and fixed-bucket :class:`LatencyHistogram` — owned by one
:class:`MetricsRegistry` per telemetry domain (one per engine in
practice).  Each metric may carry *labels* (relation / query / method
names), in which case the registry hands out a :class:`MetricFamily`
whose ``labels(...)`` method returns per-label-value children.

The primitives are plain Python attribute arithmetic — no locks, no
callbacks — so recording from the engine's ingest hot path costs about
as much as the ad-hoc dict updates they replaced.  Snapshots
(:meth:`MetricsRegistry.snapshot`) are JSON-compatible; the Prometheus
text rendering lives in :mod:`repro.obs.exporters`.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence, Union, cast

if TYPE_CHECKING:
    from .catalog import MetricSpec

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "RELATIVE_ERROR_BUCKETS",
]

#: Fixed latency buckets (seconds), a 1-2.5-5 ladder from 1µs to 10s.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fixed relative-error buckets, a 1-2.5-5 ladder from 0.01% to 1000%.
RELATIVE_ERROR_BUCKETS: tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing value (ops, seconds, bytes...)."""

    kind = "counter"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative; counters only go up)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def reset(self) -> None:
        self._value = 0.0

    def snapshot(self) -> float:
        value = self._value
        return int(value) if value.is_integer() else value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can go up and down (live queries, buffer fill...)."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def reset(self) -> None:
        self._value = 0.0

    def snapshot(self) -> float:
        value = self._value
        return int(value) if value.is_integer() else value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self._value})"


class LatencyHistogram:
    """Fixed-bucket histogram with streaming count/sum/percentiles.

    Buckets are cumulative-style upper bounds (Prometheus convention) with
    an implicit ``+Inf`` overflow bucket, so two histograms with the same
    bounds can be merged by adding their bucket counts.  ``percentile``
    interpolates linearly inside the winning bucket and clamps to the
    observed min/max, which keeps p50/p95 readable even when all mass
    lands in one bucket.  Despite the name, any non-negative quantity can
    be observed — the accuracy tracker reuses it for relative errors with
    :data:`RELATIVE_ERROR_BUCKETS`.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "bucket_counts", "_sum", "_count", "_min", "_max")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be a non-empty increasing sequence")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observed value (``+inf`` before any observation)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observed value (``-inf`` before any observation)."""
        return self._max

    def observe(self, value: float) -> None:
        """Record one observation (binary search into the fixed buckets)."""
        self._sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.bucket_counts[lo] += 1

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), interpolated within its bucket.

        Edge semantics: ``p == 0`` is exactly the observed minimum and
        ``p == 100`` exactly the observed maximum (no interpolation
        involved); with no observations every percentile is ``nan``.
        Interpolated results are always clamped into ``[min, max]``, and
        a single observation returns itself for every ``p``.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self._count == 0:
            return math.nan
        if p == 0:
            return self._min
        if p == 100:
            return self._max
        target = p / 100.0 * self._count
        cumulative = 0
        lower = 0.0
        for i, bucket_count in enumerate(self.bucket_counts):
            upper = self.bounds[i] if i < len(self.bounds) else self._max
            if bucket_count:
                cumulative += bucket_count
                if cumulative >= target:
                    hi = min(upper, self._max)
                    lo = max(lower, self._min)
                    if hi <= lo:
                        return lo
                    fraction = (target - (cumulative - bucket_count)) / bucket_count
                    return lo + min(1.0, max(0.0, fraction)) * (hi - lo)
            lower = upper if i < len(self.bounds) else lower
        return self._max  # pragma: no cover - target <= count always hits

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
        }
        if self._count:
            out["p50"] = self.percentile(50)
            out["p95"] = self.percentile(95)
            out["p99"] = self.percentile(99)
            out["min"] = self._min
            out["max"] = self._max
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LatencyHistogram({self.name}, n={self._count})"


#: Any unlabelled metric primitive.
Metric = Union[Counter, Gauge, LatencyHistogram]


class MetricFamily:
    """A labelled metric: one child primitive per label-value combination.

    ``family.labels(method="cosine")`` (or positionally,
    ``family.labels("cosine")``) returns the child metric for that label
    combination, creating it on first use.  Children are cached forever —
    label cardinality is expected to be small (relations, queries,
    methods), matching the Prometheus data model.
    """

    __slots__ = ("name", "help", "kind", "labelnames", "_factory", "_children")

    def __init__(
        self,
        factory: Callable[[str], Metric],
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> None:
        if not labelnames:
            raise ValueError("a MetricFamily needs at least one label name")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._factory = factory
        self._children: dict[tuple[str, ...], Metric] = {}
        self.kind = factory("_probe").kind

    def labels(self, *values: object, **kwvalues: object) -> Metric:
        """The child metric for one label-value combination (created lazily)."""
        if kwvalues:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                key = tuple(str(kwvalues.pop(name)) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r} for {self.name!r}") from None
            if kwvalues:
                raise ValueError(f"unknown labels {sorted(kwvalues)} for {self.name!r}")
        else:
            key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name!r} takes labels {self.labelnames}, got {len(key)} values"
            )
        child = self._children.get(key)
        if child is None:
            child = self._factory(self.name)
            self._children[key] = child
        return child

    def items(self) -> Iterator[tuple[tuple[str, ...], Metric]]:
        """Iterate ``(label_values, child_metric)`` pairs (sorted)."""
        return iter(sorted(self._children.items(), key=lambda kv: kv[0]))

    def as_value_dict(self) -> dict[str, object]:
        """``{label_values: snapshot}`` with single-label keys flattened."""
        out: dict[str, object] = {}
        for values, child in self.items():
            key = values[0] if len(values) == 1 else ",".join(values)
            out[key] = child.snapshot()
        return out

    def reset(self) -> None:
        """Forget every child (label combinations re-materialize on use).

        Matches dict-clear semantics: holders of child references must
        re-resolve through :meth:`labels` after a reset.
        """
        self._children.clear()

    def snapshot(self) -> dict[str, object]:
        return self.as_value_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricFamily({self.name}, labels={self.labelnames}, n={len(self._children)})"


class MetricsRegistry:
    """Owns a flat namespace of metrics; get-or-create by name.

    Re-requesting a name returns the existing object, so independent
    components (the :class:`~repro.streams.stats.EngineStats` facade, the
    accuracy tracker, user code) can share one registry without
    coordinating creation order.  Requesting an existing name with a
    different kind or label set is an error.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric | MetricFamily] = {}
        # Registration and merge are cold paths shared across threads
        # (shard registries fold into the coordinator's while the serve
        # daemon scrapes it); increments on the metrics themselves stay
        # lock-free.
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        # Shard registries cross process boundaries by pickle; the lock
        # is per-process state and is recreated on the other side.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def register(self, spec: "MetricSpec", sharded: bool = False) -> Metric | MetricFamily:
        """Get or create the metric a :mod:`repro.obs.catalog` spec defines.

        ``sharded`` appends the trailing ``shard`` label, which only specs
        flagged ``shard_suffix`` accept.
        """
        labels = spec.labels
        if sharded:
            if not spec.shard_suffix:
                raise ValueError(f"metric {spec.name!r} takes no shard label")
            labels += ("shard",)
        if spec.kind == "counter":
            return self.counter(spec.name, spec.help, labels)
        if spec.kind == "gauge":
            return self.gauge(spec.name, spec.help, labels)
        return self.histogram(spec.name, spec.help, labels, buckets=spec.buckets)

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter | MetricFamily:
        return cast(
            "Counter | MetricFamily", self._get_or_create(Counter, name, help, labelnames)
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge | MetricFamily:
        return cast(
            "Gauge | MetricFamily", self._get_or_create(Gauge, name, help, labelnames)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> LatencyHistogram | MetricFamily:
        # functools.partial of a module-level function (not a closure) so
        # the resulting family survives pickling across process shards.
        factory = functools.partial(_make_histogram, buckets=tuple(buckets))
        return cast(
            "LatencyHistogram | MetricFamily",
            self._get_or_create(LatencyHistogram, name, help, labelnames, factory),
        )

    def _get_or_create(
        self,
        cls: type[Metric],
        name: str,
        help: str,
        labelnames: Sequence[str],
        factory: Callable[[str], Metric] | None = None,
    ) -> Metric | MetricFamily:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                want_labels = tuple(labelnames)
                if isinstance(existing, MetricFamily):
                    if existing.kind != cls.kind or existing.labelnames != want_labels:
                        raise ValueError(f"metric {name!r} already registered differently")
                elif not isinstance(existing, cls) or want_labels:
                    raise ValueError(f"metric {name!r} already registered differently")
                return existing
            make: Callable[[str], Metric] = factory if factory is not None else cls
            metric: Metric | MetricFamily
            if labelnames:
                metric = MetricFamily(make, name, help, labelnames)
            else:
                metric = make(name)
                metric.help = help
            self._metrics[name] = metric
            return metric

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's metrics into this one, in place.

        Merge semantics per kind: counters (and counter children) *sum*;
        gauges take the incoming value (last write wins); histograms add
        their bucket counts, counts, and sums (bucket bounds must match).
        Families merge child-by-child per label-value tuple, so disjoint
        label values (e.g. per-shard ``shard`` labels) simply collect
        side by side while colliding tuples combine by kind.  A name
        registered here with a different kind, label set, or bucket
        layout raises ``ValueError``.  Returns ``self`` for chaining.
        """
        with self._lock:
            for name, theirs in other.collect():
                mine = self._metrics.get(name)
                if mine is None:
                    mine = _structural_clone(theirs)
                    self._metrics[name] = mine
                else:
                    _check_mergeable(name, mine, theirs)
                _merge_metric(mine, theirs)
            return self

    def get(self, name: str) -> Metric | MetricFamily | None:
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def collect(self) -> Iterator[tuple[str, Metric | MetricFamily]]:
        """Iterate ``(name, metric_or_family)`` sorted by name."""
        return iter(sorted(self._metrics.items(), key=lambda kv: kv[0]))

    def reset(self) -> None:
        """Zero every registered metric (identities are preserved)."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> dict[str, dict[str, object]]:
        """One JSON-compatible dict for the whole registry."""
        out: dict[str, dict[str, object]] = {}
        for name, metric in self.collect():
            entry: dict[str, object] = {"type": metric.kind}
            if isinstance(metric, MetricFamily):
                entry["labels"] = list(metric.labelnames)
                entry["values"] = metric.snapshot()
            elif isinstance(metric, LatencyHistogram):
                entry.update(metric.snapshot())
            else:
                entry["value"] = metric.snapshot()
            out[name] = entry
        return out

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


def as_labels(mapping: Mapping[str, object]) -> dict[str, str]:
    """Coerce attribute values to strings (exporter-friendly)."""
    return {k: str(v) for k, v in mapping.items()}


def _make_histogram(name: str, buckets: Sequence[float]) -> LatencyHistogram:
    """Module-level histogram factory (picklable, unlike a closure)."""
    return LatencyHistogram(name, buckets=buckets)


def _structural_clone(metric: Metric | MetricFamily) -> Metric | MetricFamily:
    """An empty metric with the same name/kind/labels/buckets as ``metric``."""
    if isinstance(metric, MetricFamily):
        return MetricFamily(metric._factory, metric.name, metric.help, metric.labelnames)
    if isinstance(metric, LatencyHistogram):
        return LatencyHistogram(metric.name, metric.help, buckets=metric.bounds)
    return type(metric)(metric.name, metric.help)


def _check_mergeable(
    name: str, mine: Metric | MetricFamily, theirs: Metric | MetricFamily
) -> None:
    """Reject merges across different kinds, label sets, or bucket layouts."""
    if isinstance(mine, MetricFamily) != isinstance(theirs, MetricFamily):
        raise ValueError(f"cannot merge metric {name!r}: labelled vs unlabelled")
    if isinstance(mine, MetricFamily) and isinstance(theirs, MetricFamily):
        if mine.kind != theirs.kind or mine.labelnames != theirs.labelnames:
            raise ValueError(
                f"cannot merge metric {name!r}: kind/labels differ "
                f"({mine.kind}{mine.labelnames} vs {theirs.kind}{theirs.labelnames})"
            )
        return
    if type(mine) is not type(theirs):
        raise ValueError(
            f"cannot merge metric {name!r}: {type(mine).__name__} "
            f"vs {type(theirs).__name__}"
        )
    if (
        isinstance(mine, LatencyHistogram)
        and isinstance(theirs, LatencyHistogram)
        and mine.bounds != theirs.bounds
    ):
        raise ValueError(f"cannot merge metric {name!r}: bucket bounds differ")


def _merge_metric(mine: Metric | MetricFamily, theirs: Metric | MetricFamily) -> None:
    """Fold one metric's value into its same-shape counterpart.

    ``mine`` is always the same shape as ``theirs`` here: callers go
    through :func:`_check_mergeable` (or a structural clone) first.
    """
    if isinstance(theirs, MetricFamily):
        assert isinstance(mine, MetricFamily)
        for values, child in theirs.items():
            _merge_metric(mine.labels(*values), child)
    elif isinstance(theirs, Counter):
        assert isinstance(mine, Counter)
        mine.inc(theirs.value)
    elif isinstance(theirs, Gauge):
        assert isinstance(mine, Gauge)
        mine.set(theirs.value)  # last write wins
    elif isinstance(theirs, LatencyHistogram):
        assert isinstance(mine, LatencyHistogram)
        for i, bucket_count in enumerate(theirs.bucket_counts):
            mine.bucket_counts[i] += bucket_count
        mine._sum += theirs._sum
        mine._count += theirs._count
        mine._min = min(mine._min, theirs._min)
        mine._max = max(mine._max, theirs._max)
    else:  # pragma: no cover - no other metric kinds exist
        raise TypeError(f"cannot merge metric of type {type(theirs).__name__}")
