"""OTLP export: file/stdout and HTTP exporters plus the periodic push loop.

Two destinations for the payloads :mod:`repro.obs.otel.encode` builds:

* :class:`OtlpJsonFileExporter` appends one JSON line per payload to a
  file (or stdout with path ``"-"``) — the collector-less path: the
  output replays into any OTLP pipeline later, or greps directly.
* :class:`OtlpHttpExporter` POSTs to a collector's
  ``/v1/traces`` / ``/v1/metrics`` endpoints with ``urllib`` — no
  client-library dependency.

Both follow the :class:`~repro.obs.exporters.JsonlSnapshotWriter`
contract: an export is strictly less important than the engine work
around it, so transient ``OSError`` (which covers ``urllib`` network
errors) is retried with capped exponential backoff via
:func:`~repro.resilience.retry.retry_io`, and an export that still
fails is *dropped* rather than raised.  The accounting is self-describing:
``repro_otel_exports_total`` / ``repro_otel_export_drops_total`` /
``repro_otel_export_retries_total`` (all labelled by ``signal``) land in
the same registry being exported, so the collector sees the export
path's own health.

:class:`OtelPushLoop` ties it together: drain span groups, encode both
signals, export, either on demand (:meth:`~OtelPushLoop.push_now`), on a
minimum interval from an ingest loop (:meth:`~OtelPushLoop.maybe_push`),
or from a daemon thread (:meth:`~OtelPushLoop.start`).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence

from ...resilience.retry import RetryPolicy, retry_io
from .. import catalog
from ..metrics import Counter, MetricFamily, MetricsRegistry
from ..tracing import SpanEvent
from .encode import default_resource, encode_metrics, encode_span_groups

__all__ = [
    "OtlpExporter",
    "OtlpJsonFileExporter",
    "OtlpHttpExporter",
    "OtelPushLoop",
    "SpanSource",
]

#: One drained span batch: ``(extra resource attributes, events)``.
SpanGroup = tuple[Mapping[str, object], Sequence[SpanEvent]]

#: Callable yielding span groups to export (e.g. a fleet drain).
SpanSource = Callable[[], Sequence[SpanGroup]]


class OtlpExporter(Protocol):
    """Anything that can ship one encoded OTLP payload somewhere."""

    def export(self, signal: str, payload: Mapping[str, Any]) -> bool:
        """Ship one payload; ``signal`` is ``"traces"`` or ``"metrics"``."""
        ...  # pragma: no cover - protocol


class _AccountedExporter:
    """Shared retry/drop accounting for the concrete exporters."""

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        registry: MetricsRegistry | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.retry = retry
        self.exports = 0
        self.drops = 0
        self.retries = 0
        self._sleep = sleep
        self._exports_family: MetricFamily | None = None
        self._drops_family: MetricFamily | None = None
        self._retries_family: MetricFamily | None = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Register the ``repro_otel_export_*`` self-metrics in ``registry``."""
        exports = registry.register(catalog.OTEL_EXPORTS)
        drops = registry.register(catalog.OTEL_EXPORT_DROPS)
        retries = registry.register(catalog.OTEL_EXPORT_RETRIES)
        assert (
            isinstance(exports, MetricFamily)
            and isinstance(drops, MetricFamily)
            and isinstance(retries, MetricFamily)
        )
        self._exports_family = exports
        self._drops_family = drops
        self._retries_family = retries

    def _count(self, family: MetricFamily | None, signal: str) -> None:
        if family is not None:
            child = family.labels(signal)
            assert isinstance(child, Counter)
            child.inc()

    def _send(self, signal: str, data: bytes) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def export(self, signal: str, payload: Mapping[str, Any]) -> bool:
        """Encode to JSON and ship with retries; returns whether it landed.

        A payload that still fails after the backoff schedule is counted
        as a drop, never raised — telemetry must not take down ingest.
        """
        data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")

        def on_retry(attempt: int, exc: BaseException) -> None:
            self.retries += 1
            self._count(self._retries_family, signal)

        kwargs: dict[str, Any] = {"policy": self.retry, "on_retry": on_retry}
        if self._sleep is not None:
            kwargs["sleep"] = self._sleep
        try:
            retry_io(lambda: self._send(signal, data), **kwargs)
        except OSError:
            self.drops += 1
            self._count(self._drops_family, signal)
            return False
        self.exports += 1
        self._count(self._exports_family, signal)
        return True


class OtlpJsonFileExporter(_AccountedExporter):
    """Appends one OTLP/JSON payload per line to a file, or stdout via ``"-"``.

    Each line is ``{"resourceSpans": ...}`` or ``{"resourceMetrics": ...}``
    exactly as a collector's HTTP body would be, so a recorded run can be
    replayed against ``/v1/traces`` later.  File appends are atomic
    (``O_APPEND``, one write per line), matching
    :class:`~repro.obs.exporters.JsonlSnapshotWriter`.
    """

    def __init__(
        self,
        path: str | Path,
        retry: RetryPolicy | None = None,
        registry: MetricsRegistry | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        super().__init__(retry=retry, registry=registry, sleep=sleep)
        self.path = Path(path) if path != "-" else None

    def _send(self, signal: str, data: bytes) -> None:
        if self.path is None:
            sys.stdout.write(data.decode("utf-8") + "\n")
            sys.stdout.flush()
            return
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data + b"\n")
        finally:
            os.close(fd)


class OtlpHttpExporter(_AccountedExporter):
    """POSTs OTLP/JSON to a collector endpoint with stdlib ``urllib``.

    ``endpoint`` is the collector base URL (e.g.
    ``http://localhost:4318``); the standard per-signal paths
    ``/v1/traces`` and ``/v1/metrics`` are appended.  Network failures
    (``urllib`` raises ``OSError`` subclasses) follow the shared
    retry-then-drop policy.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 5.0,
        headers: Mapping[str, str] | None = None,
        retry: RetryPolicy | None = None,
        registry: MetricsRegistry | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        super().__init__(retry=retry, registry=registry, sleep=sleep)
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.headers = dict(headers or {})

    def _send(self, signal: str, data: bytes) -> None:
        import urllib.request  # deferred: it loads http.client and ssl

        request = urllib.request.Request(
            f"{self.endpoint}/v1/{signal}",
            data=data,
            headers={"Content-Type": "application/json", **self.headers},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=self.timeout):
            pass


class OtelPushLoop:
    """Periodically encodes and exports the engine's spans and metrics.

    ``spans`` is a zero-argument callable returning drained span groups
    (``[(extra resource attrs, events), ...]`` — per-shard for a fleet,
    a single group for one engine); draining means each span is exported
    exactly once.  ``metrics`` is a registry or a zero-argument callable
    returning one (a fleet merges per-shard registries on demand).
    ``resource`` attributes are stamped on everything exported.

    Three driving styles: :meth:`push_now` on demand, :meth:`maybe_push`
    unconditionally from a loop (rate-limited to ``every_s``), or
    :meth:`start` for a daemon thread that pushes every ``every_s``
    until :meth:`stop` (which pushes one final time so shutdown never
    strands buffered spans).
    """

    def __init__(
        self,
        exporter: OtlpExporter,
        metrics: MetricsRegistry | Callable[[], MetricsRegistry] | None = None,
        spans: SpanSource | None = None,
        resource: Mapping[str, object] | None = None,
        every_s: float | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if every_s is not None and every_s <= 0:
            raise ValueError("every_s must be positive")
        self.exporter = exporter
        self.every_s = every_s
        self._metrics = metrics
        self._spans = spans
        self._resource = {**default_resource(), **(resource or {})}
        self._last_push: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # push_now() is reachable from the daemon thread, from stop()'s
        # final flush, and from user code; one push at a time.
        self._push_lock = threading.Lock()
        # Self-metrics need a *stable* home: ``registry`` explicitly, or
        # ``metrics`` when it is a registry object.  A callable source
        # (fleet merges built per push) would strand the counters in a
        # throwaway copy, so it is never bound implicitly.
        self_registry = registry
        if self_registry is None and isinstance(metrics, MetricsRegistry):
            self_registry = metrics
        if self_registry is not None and isinstance(self.exporter, _AccountedExporter):
            self.exporter.bind_registry(self_registry)

    def _registry_now(self) -> MetricsRegistry | None:
        if callable(self._metrics):
            return self._metrics()
        return self._metrics

    def push_now(self) -> dict[str, int]:
        """Drain, encode, and export both signals once.

        Returns ``{"spans": exported span count, "payloads": landed
        payload count}``.  The span payload is skipped when nothing was
        drained; a metrics payload goes out every push (cumulative
        counters must keep reporting).
        """
        with self._push_lock:
            self._last_push = time.monotonic()
            span_count = 0
            payloads = 0
            if self._spans is not None:
                groups = [
                    (dict(extra), list(events)) for extra, events in self._spans()
                ]
                span_count = sum(len(events) for _, events in groups)
                if span_count:
                    payload = encode_span_groups(groups, base_resource=self._resource)
                    if self.exporter.export("traces", payload):
                        payloads += 1
            registry = self._registry_now()
            if registry is not None:
                payload = encode_metrics(registry, resource=self._resource)
                if self.exporter.export("metrics", payload):
                    payloads += 1
            return {"spans": span_count, "payloads": payloads}

    def maybe_push(self) -> bool:
        """Push if ``every_s`` elapsed since the last push (or ever).

        Callable unconditionally from an ingest loop; the rate limiter
        advances even when the export drops, so a dead collector never
        turns the loop into a hot retry spin.
        """
        now = time.monotonic()
        if (
            self.every_s is not None
            and self._last_push is not None
            and now - self._last_push < self.every_s
        ):
            return False
        self.push_now()
        return True

    def start(self) -> None:
        """Push every ``every_s`` from a daemon thread until :meth:`stop`."""
        if self.every_s is None:
            raise ValueError("start() needs every_s; use push_now()/maybe_push() otherwise")
        if self._thread is not None:
            raise RuntimeError("push loop already started")
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(self.every_s):
                self.push_now()

        self._thread = threading.Thread(target=run, name="otel-push", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and push one final time (flush, not discard)."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self.push_now()
