"""Metric catalog: every ``repro_*`` metric this package registers.

Each metric is defined exactly once here, as a frozen :class:`MetricSpec`
constant, and registration sites pass the constant to
:meth:`repro.obs.metrics.MetricsRegistry.register`.  A misspelled
constant fails at import, a name defined twice raises while this module
loads, and no site can register a name, kind or label set of its own,
so shard registries always agree and merge.  A spec with
``shard_suffix`` may be registered with a trailing ``shard`` label by the
engines that run as one shard of a fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .metrics import DEFAULT_LATENCY_BUCKETS, RELATIVE_ERROR_BUCKETS

__all__ = ["CATALOG", "MetricSpec"]


@dataclass(frozen=True)
class MetricSpec:
    """The one definition of a metric: name, kind, help and label names."""

    name: str
    kind: Literal["counter", "gauge", "histogram"]
    help: str
    labels: tuple[str, ...] = ()
    shard_suffix: bool = False
    #: Bucket upper bounds; read for histograms only.
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS


#: Every defined spec, by metric name.
CATALOG: dict[str, MetricSpec] = {}


def _define(spec: MetricSpec) -> MetricSpec:
    if spec.name in CATALOG:
        raise ValueError(f"metric {spec.name!r} is defined twice")
    CATALOG[spec.name] = spec
    return spec


# -- engine ingest and estimation (repro.streams.stats) ------------------

INGEST_OPS = _define(MetricSpec(
    "repro_ingest_ops_total", "counter",
    "Total operations applied (insertions + deletions, any path).",
))
INGEST_DELETES = _define(MetricSpec(
    "repro_ingest_deletes_total", "counter",
    "Deletions among the ingested operations.",
))
INGEST_PER_TUPLE_OPS = _define(MetricSpec(
    "repro_ingest_per_tuple_ops_total", "counter",
    "Operations that went through the per-tuple process path.",
))
INGEST_BATCHES = _define(MetricSpec(
    "repro_ingest_batches_total", "counter",
    "Vectorized batch applications (one per same-kind run).",
))
INGEST_BATCHED_OPS = _define(MetricSpec(
    "repro_ingest_batched_ops_total", "counter",
    "Operations that arrived inside batches.",
))
RELATION_OPS = _define(MetricSpec(
    "repro_relation_ops_total", "counter",
    "Operations applied, per relation.",
    labels=("relation",), shard_suffix=True,
))
OBSERVER_SECONDS = _define(MetricSpec(
    "repro_observer_seconds_total", "counter",
    "Seconds spent inside observer updates, per stats key.",
    labels=("method",), shard_suffix=True,
))
OBSERVER_OPS = _define(MetricSpec(
    "repro_observer_ops_total", "counter",
    "Operations seen by observers, per stats key.",
    labels=("method",), shard_suffix=True,
))
ESTIMATE_LATENCY = _define(MetricSpec(
    "repro_estimate_latency_seconds", "histogram",
    "Latency of answer() / answers() estimate evaluations.",
))
QUERY_ESTIMATES = _define(MetricSpec(
    "repro_query_estimates_total", "counter",
    "Estimate evaluations served, per query.",
    labels=("query",), shard_suffix=True,
))
QUERY_ESTIMATE_SECONDS = _define(MetricSpec(
    "repro_query_estimate_seconds_total", "counter",
    "Seconds spent evaluating estimates, per query.",
    labels=("query",), shard_suffix=True,
))

# -- engine resilience and bounds ----------------------------------------

INGEST_DEAD_LETTERS = _define(MetricSpec(
    "repro_ingest_dead_letters_total", "counter",
    "Rows rejected into the dead-letter buffer.",
    labels=("relation", "reason"),
))
OBSERVER_FAULTS = _define(MetricSpec(
    "repro_observer_faults_total", "counter",
    "Observer exceptions absorbed by fault isolation, per method.",
    labels=("method",),
))
QUERIES_DEGRADED = _define(MetricSpec(
    "repro_queries_degraded", "gauge",
    "Registered queries currently degraded by a quarantined observer.",
))
RETRIES = _define(MetricSpec(
    "repro_retries_total", "counter",
    "I/O retries performed, by logical operation.",
    labels=("operation",),
))
BOUND_CLAMPS = _define(MetricSpec(
    "repro_bound_clamps_total", "counter",
    "Answers clamped because the point estimate exceeded the guaranteed "
    "upper bound, per query.",
    labels=("query",),
))
BOUND_TIGHTNESS = _define(MetricSpec(
    "repro_bound_tightness_ratio", "gauge",
    "Clamped estimate as a fraction of its guaranteed upper bound, per query "
    "(1.0 = estimate at or above the bound).",
    labels=("query",),
))

# -- accuracy, kernels and export ----------------------------------------

ACCURACY_RELATIVE_ERROR = _define(MetricSpec(
    "repro_accuracy_relative_error", "histogram",
    "Streaming relative error of answer() vs exact_answer(), per query.",
    labels=("query",), buckets=RELATIVE_ERROR_BUCKETS,
))
ACCURACY_SAMPLES = _define(MetricSpec(
    "repro_accuracy_samples_total", "counter",
    "Accuracy samples taken, per query.",
    labels=("query",),
))
ACCURACY_SAMPLING_SECONDS = _define(MetricSpec(
    "repro_accuracy_sampling_seconds_total", "counter",
    "Seconds spent computing accuracy samples (estimate + exact).",
))
FASTPATH_BACKEND = _define(MetricSpec(
    "repro_fastpath_backend", "gauge",
    "Active repro.fastpath kernel backend (1 on the selected label).",
    labels=("backend",),
))
EXPORT_DROPS = _define(MetricSpec(
    "repro_export_drops_total", "counter",
    "Snapshot lines dropped after exhausting write retries.",
))
OTEL_EXPORTS = _define(MetricSpec(
    "repro_otel_exports_total", "counter",
    "OTLP payloads exported successfully, by signal.",
    labels=("signal",),
))
OTEL_EXPORT_DROPS = _define(MetricSpec(
    "repro_otel_export_drops_total", "counter",
    "OTLP payloads dropped after exhausting export retries, by signal.",
    labels=("signal",),
))
OTEL_EXPORT_RETRIES = _define(MetricSpec(
    "repro_otel_export_retries_total", "counter",
    "OTLP export attempts that failed and were retried, by signal.",
    labels=("signal",),
))

# -- fleet ---------------------------------------------------------------

FLEET_RESTARTS = _define(MetricSpec(
    "repro_fleet_restarts_total", "counter",
    "Supervised shard worker restarts, by shard.",
    labels=("shard",),
))
FLEET_HEARTBEAT_MISSES = _define(MetricSpec(
    "repro_fleet_heartbeat_misses_total", "counter",
    "Heartbeat pings a shard worker failed to answer, by shard.",
    labels=("shard",),
))
FLEET_SHARD_UP = _define(MetricSpec(
    "repro_fleet_shard_up", "gauge",
    "Shard worker health (1 = serving, 0 = down).",
    labels=("shard",),
))
SERVE_REQUESTS = _define(MetricSpec(
    "repro_serve_requests_total", "counter",
    "Serve-daemon requests handled, by operation.",
    labels=("op",),
))
SERVE_CLIENTS = _define(MetricSpec(
    "repro_serve_clients", "gauge",
    "Serve-daemon client connections currently open.",
))
