"""MetricsServer HTTP endpoint and the runtime catalog conformance check."""

import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, MetricsServer
from repro.obs.server import CONTENT_TYPE


def fetch(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers["Content-Type"], response.read().decode()


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("repro_ingest_ops_total", "Total operations.").inc(7)
    return reg


class TestEndpoints:
    def test_metrics_serves_prometheus_text(self, registry):
        with MetricsServer(registry) as server:
            status, content_type, body = fetch(server.url)
        assert status == 200
        assert content_type == CONTENT_TYPE
        assert "# TYPE repro_ingest_ops_total counter" in body
        assert "repro_ingest_ops_total 7" in body

    def test_root_serves_metrics_too(self, registry):
        with MetricsServer(registry) as server:
            _, _, body = fetch(f"http://{server.host}:{server.port}/")
        assert "repro_ingest_ops_total 7" in body

    def test_healthz(self, registry):
        with MetricsServer(registry) as server:
            status, _, body = fetch(f"http://{server.host}:{server.port}/healthz")
        assert status == 200 and body == "ok\n"

    def test_unknown_path_is_404(self, registry):
        with MetricsServer(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                fetch(f"http://{server.host}:{server.port}/nope")
        assert exc.value.code == 404

    def test_head_matches_get_without_body(self, registry):
        with MetricsServer(registry) as server:
            request = urllib.request.Request(server.url, method="HEAD")
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                assert int(response.headers["Content-Length"]) > 0
                assert response.read() == b""

    def test_head_healthz_for_probes(self, registry):
        with MetricsServer(registry) as server:
            request = urllib.request.Request(
                f"http://{server.host}:{server.port}/healthz", method="HEAD"
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 200
                assert response.read() == b""

    def test_head_unknown_path_is_404(self, registry):
        with MetricsServer(registry) as server:
            request = urllib.request.Request(
                f"http://{server.host}:{server.port}/nope", method="HEAD"
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=5)
        assert exc.value.code == 404

    def test_query_string_is_ignored(self, registry):
        with MetricsServer(registry) as server:
            status, _, body = fetch(f"{server.url}?format=prometheus")
        assert status == 200
        assert "repro_ingest_ops_total 7" in body

    def test_concurrent_scrapes_all_succeed(self, registry):
        results: list[tuple[int, str, str]] = []
        errors: list[Exception] = []

        def scrape(url):
            try:
                results.append(fetch(url))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        with MetricsServer(registry) as server:
            threads = [
                threading.Thread(target=scrape, args=(server.url,)) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert errors == []
        assert len(results) == 8
        assert all(status == 200 for status, _, _ in results)
        assert all("repro_ingest_ops_total 7" in body for _, _, body in results)

    def test_scrape_during_ingest_sees_consistent_text(self, registry):
        counter = registry.counter("repro_ingest_deletes_total", "Deletes.")
        stop = threading.Event()

        def ingest():
            while not stop.is_set():
                counter.inc()

        writer = threading.Thread(target=ingest)
        with MetricsServer(registry) as server:
            writer.start()
            try:
                bodies = [fetch(server.url)[2] for _ in range(5)]
            finally:
                stop.set()
                writer.join(timeout=10)
        for body in bodies:  # scrapes never observe a torn/partial rendering
            assert "# TYPE repro_ingest_deletes_total counter" in body
            assert "repro_ingest_ops_total 7" in body

    def test_scrape_reflects_live_updates(self, registry):
        counter = registry.counter("repro_ingest_deletes_total", "Deletes.")
        with MetricsServer(registry) as server:
            _, _, before = fetch(server.url)
            counter.inc(3)
            _, _, after = fetch(server.url)
        assert "repro_ingest_deletes_total 0" in before
        assert "repro_ingest_deletes_total 3" in after


class TestLifecycle:
    def test_port_zero_binds_a_free_port(self, registry):
        with MetricsServer(registry, port=0) as a, MetricsServer(registry, port=0) as b:
            assert a.port != 0 and b.port != 0
            assert a.port != b.port

    def test_start_twice_is_an_error(self, registry):
        server = MetricsServer(registry).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()

    def test_stop_releases_the_port(self, registry):
        server = MetricsServer(registry).start()
        url = server.url
        server.stop()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            fetch(url)

    def test_callable_provider_is_resolved_per_scrape(self):
        registries = []

        def provider():
            reg = MetricsRegistry()
            reg.counter("repro_ingest_ops_total", "Total operations.").inc(len(registries))
            registries.append(reg)
            return reg

        with MetricsServer(provider) as server:
            _, _, first = fetch(server.url)
            _, _, second = fetch(server.url)
        assert "repro_ingest_ops_total 0" in first
        assert "repro_ingest_ops_total 1" in second
        assert len(registries) == 2
