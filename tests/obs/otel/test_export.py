"""OTLP exporters: file/stdout output, retry/drop accounting, push loop."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.otel.encode import (
    encode_metrics,
    validate_metrics_payload,
    validate_traces_payload,
)
from repro.obs.otel.export import OtelPushLoop, OtlpJsonFileExporter
from repro.obs.tracing import Tracer
from repro.resilience.retry import RetryPolicy


class FlakyExporter(OtlpJsonFileExporter):
    """File exporter whose first ``fail_times`` sends raise ``OSError``."""

    def __init__(self, path, fail_times=0, **kwargs):
        super().__init__(path, **kwargs)
        self.fail_times = fail_times
        self.attempts = 0

    def _send(self, signal, data):
        self.attempts += 1
        if self.attempts <= self.fail_times:
            raise OSError("collector unreachable")
        super()._send(signal, data)


def make_registry():
    registry = MetricsRegistry()
    registry.counter("repro_test_ops_total", "ops").inc(10)
    return registry


def make_spans():
    tracer = Tracer()
    tracer.emit("ingest_batch", 0.001, count=32, relation="R1")
    tracer.emit("estimate", 0.0002, query="q0")
    return tracer.drain()


class TestFileExporter:
    def test_appends_one_validating_payload_per_line(self, tmp_path):
        out = tmp_path / "otel.jsonl"
        exporter = OtlpJsonFileExporter(out)
        assert exporter.export("metrics", encode_metrics(make_registry()))
        assert exporter.export("metrics", encode_metrics(make_registry()))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert validate_metrics_payload(json.loads(line)) == []
        assert exporter.exports == 2
        assert exporter.drops == 0

    def test_dash_path_writes_stdout(self, capsys):
        exporter = OtlpJsonFileExporter("-")
        assert exporter.export("metrics", encode_metrics(make_registry()))
        line = capsys.readouterr().out.strip()
        assert validate_metrics_payload(json.loads(line)) == []

    def test_unwritable_path_drops_not_raises(self, tmp_path):
        exporter = OtlpJsonFileExporter(
            tmp_path / "missing" / "dir" / "otel.jsonl",
            retry=RetryPolicy(attempts=2, base_delay=0.0),
            sleep=lambda _s: None,
        )
        assert exporter.export("metrics", encode_metrics(make_registry())) is False
        assert exporter.drops == 1
        assert exporter.retries == 1  # one failed attempt was retried


class TestRetryAccounting:
    def test_transient_failure_retries_then_lands(self, tmp_path):
        sleeps = []
        exporter = FlakyExporter(
            tmp_path / "otel.jsonl",
            fail_times=2,
            retry=RetryPolicy(attempts=4, base_delay=0.01),
            sleep=sleeps.append,
        )
        assert exporter.export("traces", {"resourceSpans": []})
        assert exporter.attempts == 3
        assert exporter.retries == 2
        assert exporter.exports == 1
        assert exporter.drops == 0
        assert len(sleeps) == 2  # backed off between the failed attempts

    def test_exhausted_retries_become_a_drop(self, tmp_path):
        exporter = FlakyExporter(
            tmp_path / "otel.jsonl",
            fail_times=99,
            retry=RetryPolicy(attempts=3, base_delay=0.0),
            sleep=lambda _s: None,
        )
        assert exporter.export("traces", {"resourceSpans": []}) is False
        assert exporter.attempts == 3
        assert exporter.retries == 2
        assert exporter.drops == 1
        assert exporter.exports == 0
        assert not (tmp_path / "otel.jsonl").exists()

    def test_self_metrics_land_in_registry_by_signal(self, tmp_path):
        registry = make_registry()
        exporter = FlakyExporter(
            tmp_path / "otel.jsonl",
            fail_times=1,
            retry=RetryPolicy(attempts=2, base_delay=0.0),
            registry=registry,
            sleep=lambda _s: None,
        )
        exporter.export("traces", {"resourceSpans": []})
        exporter.export("metrics", encode_metrics(registry))
        snapshot = registry.snapshot()
        assert snapshot["repro_otel_exports_total"]["values"] == {"traces": 1, "metrics": 1}
        assert snapshot["repro_otel_export_retries_total"]["values"] == {"traces": 1}
        assert snapshot["repro_otel_export_drops_total"]["values"] == {}  # nothing dropped


class TestPushLoop:
    def test_push_now_exports_both_signals(self, tmp_path):
        out = tmp_path / "otel.jsonl"
        tracer = Tracer()
        tracer.emit("ingest_batch", 0.001)
        loop = OtelPushLoop(
            OtlpJsonFileExporter(out),
            metrics=make_registry(),
            spans=lambda: [({"shard": "0"}, tracer.drain())],
        )
        result = loop.push_now()
        assert result == {"spans": 1, "payloads": 2}
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        traces = [p for p in lines if "resourceSpans" in p]
        metrics = [p for p in lines if "resourceMetrics" in p]
        assert len(traces) == 1 and len(metrics) == 1
        assert validate_traces_payload(traces[0]) == []
        assert validate_metrics_payload(metrics[0]) == []

    def test_drained_spans_export_exactly_once(self, tmp_path):
        out = tmp_path / "otel.jsonl"
        tracer = Tracer()
        tracer.emit("ingest_batch", 0.001)
        loop = OtelPushLoop(
            OtlpJsonFileExporter(out),
            spans=lambda: [({}, tracer.drain())],
        )
        assert loop.push_now()["spans"] == 1
        assert loop.push_now()["spans"] == 0  # nothing left; no trace payload
        payloads = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(1 for p in payloads if "resourceSpans" in p) == 1

    def test_metrics_push_every_time_even_without_spans(self, tmp_path):
        out = tmp_path / "otel.jsonl"
        loop = OtelPushLoop(OtlpJsonFileExporter(out), metrics=make_registry())
        loop.push_now()
        loop.push_now()
        payloads = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("resourceMetrics" in p for p in payloads)
        assert len(payloads) == 2

    def test_maybe_push_rate_limits(self, tmp_path):
        loop = OtelPushLoop(
            OtlpJsonFileExporter(tmp_path / "otel.jsonl"),
            metrics=make_registry(),
            every_s=60.0,
        )
        assert loop.maybe_push() is True  # first call always pushes
        assert loop.maybe_push() is False  # interval not elapsed
        loop._last_push -= 61.0
        assert loop.maybe_push() is True

    def test_registry_metrics_gain_backend_gauge_and_export_counters(self, tmp_path):
        registry = make_registry()
        loop = OtelPushLoop(OtlpJsonFileExporter(tmp_path / "otel.jsonl"), metrics=registry)
        loop.push_now()
        snapshot = registry.snapshot()
        assert snapshot["repro_otel_exports_total"]["values"]["metrics"] == 1

    def test_callable_source_never_binds_self_metrics_implicitly(self, tmp_path):
        registry = make_registry()
        exporter = OtlpJsonFileExporter(tmp_path / "otel.jsonl")
        loop = OtelPushLoop(exporter, metrics=lambda: registry)
        loop.push_now()
        assert exporter.exports == 1
        assert "repro_otel_exports_total" not in registry.snapshot()

    def test_explicit_registry_hosts_self_metrics_for_callable_source(self, tmp_path):
        merged = make_registry()
        stable = MetricsRegistry()
        loop = OtelPushLoop(
            OtlpJsonFileExporter(tmp_path / "otel.jsonl"),
            metrics=lambda: merged,
            registry=stable,
        )
        loop.push_now()
        assert stable.snapshot()["repro_otel_exports_total"]["values"]["metrics"] == 1

    def test_start_requires_interval(self, tmp_path):
        loop = OtelPushLoop(OtlpJsonFileExporter(tmp_path / "otel.jsonl"))
        with pytest.raises(ValueError, match="every_s"):
            loop.start()

    def test_non_positive_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            OtelPushLoop(OtlpJsonFileExporter(tmp_path / "otel.jsonl"), every_s=0.0)

    def test_stop_flushes_buffered_spans(self, tmp_path):
        out = tmp_path / "otel.jsonl"
        tracer = Tracer()
        loop = OtelPushLoop(
            OtlpJsonFileExporter(out),
            spans=lambda: [({}, tracer.drain())],
            every_s=3600.0,
        )
        loop.start()
        with pytest.raises(RuntimeError, match="already started"):
            loop.start()
        tracer.emit("ingest_batch", 0.001)
        loop.stop()  # final push delivers the span recorded mid-run
        payloads = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(1 for p in payloads if "resourceSpans" in p) == 1
