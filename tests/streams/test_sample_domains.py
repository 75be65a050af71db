"""The sample estimator joins on values, over the query's unified domains.

At ``probability=1.0`` every tuple is kept, so the sample answer must be
the exact join size — also when the joined attributes have different
(offset) domains, where relation-local indices of equal values differ.
"""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine


@pytest.fixture(params=["in_process", "sharded"])
def engine(request):
    if request.param == "in_process":
        yield StreamEngine(seed=1)
        return
    with ShardedStreamEngine(num_shards=3, seed=1, executor="serial") as fleet:
        yield fleet


class TestSampleOverOffsetDomains:
    def test_two_way_join_of_disjoint_values_is_empty(self, engine):
        engine.create_relation("R1", ["A"], [Domain.integer_range(0, 99)])
        engine.create_relation("R2", ["A"], [Domain.integer_range(50, 149)])
        query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
        engine.register_query("q", query, method="sample", probability=1.0)
        engine.ingest_batch("R1", [[0], [0], [0], [70]])
        engine.ingest_batch("R2", [[50], [120]])
        assert engine.exact_answer("q") == 0.0
        assert engine.answer("q") == engine.exact_answer("q")
        engine.ingest_batch("R2", [[70], [70]])
        assert engine.answer("q") == engine.exact_answer("q") == 2.0

    def test_chain_over_offset_domains_matches_exact(self, engine):
        rng = np.random.default_rng(4)
        engine.create_relation("R1", ["A"], [Domain.integer_range(0, 19)])
        engine.create_relation(
            "R2", ["A", "B"], [Domain.integer_range(10, 29), Domain.integer_range(100, 109)]
        )
        engine.create_relation("R3", ["B"], [Domain.integer_range(105, 119)])
        query = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])
        # One query sees the history replayed at registration, one sees it live.
        engine.ingest_batch("R1", rng.integers(0, 20, (50, 1)))
        engine.register_query("replayed", query, method="sample", probability=1.0)
        engine.register_query("live", query, method="sample", probability=1.0)
        engine.ingest_batch(
            "R2", np.stack([rng.integers(10, 30, 80), rng.integers(100, 110, 80)], axis=1)
        )
        engine.ingest_batch("R3", rng.integers(105, 120, (60, 1)))
        engine.ingest_batch("R1", rng.integers(0, 20, (30, 1)))
        exact = engine.exact_answer("live")
        assert exact > 0
        assert engine.answer("live") == exact
        assert engine.answer("replayed") == exact
