"""Exporters: Prometheus text exposition, JSONL snapshots, live dashboard.

Three ways out of the in-memory registry:

* :func:`prometheus_text` renders a :class:`~repro.obs.metrics.MetricsRegistry`
  in the Prometheus text exposition format (version 0.0.4) — counters and
  gauges as plain samples, histograms as cumulative ``_bucket{le=...}``
  series plus ``_sum`` / ``_count`` — ready to serve from any HTTP
  endpoint or write to a textfile-collector directory.
* :class:`JsonlSnapshotWriter` appends timestamped registry snapshots to
  a JSONL file, on demand (:meth:`~JsonlSnapshotWriter.write`) or on a
  minimum wall-clock interval (:meth:`~JsonlSnapshotWriter.maybe_write`).
* :func:`render_dashboard` formats one engine's telemetry — counters,
  estimate-latency percentiles, accuracy table, recent spans — as the
  text screen the ``repro-experiments monitor`` subcommand refreshes.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from ..resilience.retry import RetryPolicy, retry_io
from . import catalog
from .metrics import LatencyHistogram, MetricFamily, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..streams.stats import EngineStats
    from .accuracy import AccuracyTracker
    from .tracing import Tracer

__all__ = ["prometheus_text", "JsonlSnapshotWriter", "render_dashboard"]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if math.isinf(value) and value > 0:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _histogram_lines(name: str, labels: str, hist: LatencyHistogram) -> list[str]:
    lines: list[str] = []
    cumulative = 0
    for bound, count in zip(hist.bounds + (math.inf,), hist.bucket_counts):
        cumulative += count
        le = f'le="{_format_value(bound)}"'
        inner = labels[1:-1] + "," + le if labels else le
        lines.append(f"{name}_bucket{{{inner}}} {cumulative}")
    lines.append(f"{name}_sum{labels} {_format_value(hist.sum)}")
    lines.append(f"{name}_count{labels} {hist.count}")
    return lines


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, MetricFamily):
            for values, child in metric.items():
                labels = _labels_text(metric.labelnames, values)
                if isinstance(child, LatencyHistogram):
                    lines.extend(_histogram_lines(name, labels, child))
                else:
                    lines.append(f"{name}{labels} {_format_value(child.value)}")
        elif isinstance(metric, LatencyHistogram):
            lines.extend(_histogram_lines(name, "", metric))
        else:
            lines.append(f"{name} {_format_value(metric.value)}")
    return "\n".join(lines) + "\n"


class JsonlSnapshotWriter:
    """Appends one JSON object per snapshot to a line-delimited file.

    Each line is ``{"ts": <unix seconds>, ...snapshot}``; a run of lines
    is a coarse time series any downstream tool can replay.  With
    ``every_s`` set, :meth:`maybe_write` rate-limits to one line per
    interval so it can be called from an ingest loop unconditionally.

    Appends are atomic (one ``O_APPEND`` write per line, so concurrent
    writers and crashes never interleave partial lines) and transient
    ``OSError`` is retried with capped exponential backoff.  An export is
    strictly less important than the ingest loop calling it, so a write
    that still fails after the retries is *dropped* rather than raised,
    and counted in :attr:`drops` (plus the ``repro_export_drops_total``
    counter when a registry is supplied).
    """

    def __init__(
        self,
        path: str | Path,
        every_s: float | None = None,
        retry: RetryPolicy | None = None,
        registry: MetricsRegistry | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        if every_s is not None and every_s <= 0:
            raise ValueError("every_s must be positive")
        self.path = Path(path)
        self.every_s = every_s
        self.retry = retry
        self.snapshots_written = 0
        self.drops = 0
        self._drop_counter = (
            registry.register(catalog.EXPORT_DROPS)
            if registry is not None
            else None
        )
        self._sleep = sleep
        self._last_write: float | None = None

    def write(self, snapshot: Mapping[str, object]) -> bool:
        """Append one snapshot line; returns whether the append landed.

        A failed append (after retries) is counted as a drop, not raised
        — and still advances the rate limiter, so a broken disk does not
        turn :meth:`maybe_write` into a hot retry loop.
        """
        line = json.dumps({"ts": time.time(), **snapshot}, sort_keys=True)
        data = (line + "\n").encode("utf-8")

        def attempt() -> None:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, data)
            finally:
                os.close(fd)

        kwargs: dict[str, Callable[[float], None]] = (
            {} if self._sleep is None else {"sleep": self._sleep}
        )
        self._last_write = time.monotonic()
        try:
            retry_io(attempt, policy=self.retry, **kwargs)
        except OSError:
            self.drops += 1
            if self._drop_counter is not None:
                self._drop_counter.inc()
            return False
        self.snapshots_written += 1
        return True

    def maybe_write(self, snapshot_fn: Callable[[], Mapping[str, object]]) -> bool:
        """Write if ``every_s`` elapsed since the last write (or ever).

        Takes a zero-argument callable so snapshot assembly is skipped
        entirely on the rate-limited path.  Returns whether it wrote.
        """
        now = time.monotonic()
        if (
            self.every_s is not None
            and self._last_write is not None
            and now - self._last_write < self.every_s
        ):
            return False
        self.write(snapshot_fn())
        return True


def _fmt_latency(seconds: float) -> str:
    if math.isnan(seconds):
        return "n/a"
    if seconds < 1e-3:
        return f"{seconds * 1e6:,.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:,.2f} ms"
    return f"{seconds:,.2f} s"


def render_dashboard(
    stats: "EngineStats",
    accuracy: "AccuracyTracker | None" = None,
    tracer: "Tracer | None" = None,
    elapsed_s: float | None = None,
) -> str:
    """One text screen: counters, latency percentiles, accuracy, spans."""
    sections: list[str] = []
    header = "telemetry dashboard"
    if elapsed_s is not None and elapsed_s > 0:
        header += (
            f"  (t+{elapsed_s:,.1f}s,"
            f" {stats.tuples_ingested / elapsed_s:,.0f} tuples/s overall)"
        )
    sections.append(header)
    sections.append(stats.summary())
    hist = stats.estimate_latency_histogram
    if hist.count:
        sections.append(
            "estimate latency:"
            f"  p50 {_fmt_latency(hist.percentile(50))}"
            f"  p95 {_fmt_latency(hist.percentile(95))}"
            f"  p99 {_fmt_latency(hist.percentile(99))}"
            f"  over {hist.count:,} calls"
        )
    if accuracy is not None:
        sections.append(accuracy.summary())
    if tracer is not None and len(tracer):
        sampling = (
            f" 1-in-{tracer.sample_every} sampling, sampled out {tracer.sampled_out:,},"
            if tracer.sample_every is not None
            else ""
        )
        lines = [
            f"recent spans (buffered {len(tracer)}/{tracer.capacity},"
            f"{sampling} dropped {tracer.dropped:,}):"
        ]
        for event in tracer.tail(5):
            attrs = " ".join(f"{k}={v}" for k, v in sorted(event.attrs.items()))
            lines.append(
                f"  {event.name:<16} {_fmt_latency(event.duration):>11}"
                f"  x{event.count:<7,} {attrs}"
            )
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
