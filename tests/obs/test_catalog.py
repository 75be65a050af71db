"""The hand-written metric catalog: one definition per metric."""

import pytest

from repro.obs import MetricFamily, MetricsRegistry, catalog


def test_a_second_definition_of_a_name_raises():
    with pytest.raises(ValueError, match="defined twice"):
        catalog._define(catalog.MetricSpec("repro_ingest_ops_total", "counter", "Again."))


def test_every_spec_registers_as_defined():
    registry = MetricsRegistry()
    for spec in catalog.CATALOG.values():
        metric = registry.register(spec)
        assert metric.kind == spec.kind
        labels = metric.labelnames if isinstance(metric, MetricFamily) else ()
        assert labels == spec.labels
    assert [name for name, _ in registry.collect()] == sorted(catalog.CATALOG)


def test_shard_label_only_where_the_spec_allows_it():
    registry = MetricsRegistry()
    family = registry.register(catalog.RELATION_OPS, sharded=True)
    assert family.labelnames == ("relation", "shard")
    with pytest.raises(ValueError, match="takes no shard label"):
        registry.register(catalog.INGEST_DEAD_LETTERS, sharded=True)
