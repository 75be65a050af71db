"""OpenTelemetry-compatible export for repro.obs — no hard dependency.

The engine's spans and metrics speak OTLP without installing anything:
:mod:`~repro.obs.otel.encode` maps them onto the OTLP/JSON data model
with the standard library alone, :mod:`~repro.obs.otel.export` ships the
payloads (HTTP collector or JSON-lines file/stdout) on a periodic push
loop with retry/backoff and drop accounting.

Combined with :class:`~repro.obs.tracing.TraceContext` propagation in
``repro.sharding``, a process-sharded run exports per-shard spans that
link under one coordinator trace — one query, one trace, any collector.

Quickstart (collector-less)::

    from repro.obs.otel import OtelPushLoop, OtlpJsonFileExporter

    engine = StreamEngine()            # telemetry on by default
    tracer = engine.telemetry.tracer
    loop = OtelPushLoop(
        OtlpJsonFileExporter("spans.otlp.jsonl"),
        metrics=engine.telemetry.registry,
        spans=lambda: [({}, tracer.drain())],
        every_s=5.0,
    )
    ...ingest...
    loop.push_now()                    # or loop.start()/stop()

The ``repro-experiments monitor`` subcommand wires this up via
``--otlp-endpoint`` / ``--otlp-file``.
"""

from .encode import (
    SCOPE_NAME,
    default_resource,
    encode_metrics,
    encode_span_groups,
    encode_spans,
    epoch_anchor_ns,
    metrics_from_otlp,
    spans_from_otlp,
    validate_metrics_payload,
    validate_traces_payload,
)
from .export import (
    OtelPushLoop,
    OtlpExporter,
    OtlpHttpExporter,
    OtlpJsonFileExporter,
    SpanSource,
)

__all__ = [
    "SCOPE_NAME",
    "default_resource",
    "encode_metrics",
    "encode_span_groups",
    "encode_spans",
    "epoch_anchor_ns",
    "metrics_from_otlp",
    "spans_from_otlp",
    "validate_metrics_payload",
    "validate_traces_payload",
    "OtelPushLoop",
    "OtlpExporter",
    "OtlpHttpExporter",
    "OtlpJsonFileExporter",
    "SpanSource",
]
