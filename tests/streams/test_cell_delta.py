"""The per-batch ``CellDelta``: computed once, shared by every observer."""

import numpy as np
import pytest

from repro.core.normalization import Domain, unify_domains
from repro.streams import JoinQuery, OpKind, StreamEngine
from repro.streams.engine import _SampleObserver
from repro.streams.relation import StreamObserver, StreamRelation
from repro.streams.tuples import StreamOp


class DeltaRecorder(StreamObserver):
    def __init__(self):
        self.deltas = []

    def on_op(self, relation, op):  # pragma: no cover - batches only here
        raise AssertionError("per-op path not expected")

    def on_ops(self, relation, rows, kind):
        self.deltas.append(relation.delta_of(rows, kind))


def make_relation():
    return StreamRelation(
        "R", ["A", "B"], [Domain.integer_range(10, 14), Domain.categorical(["x", "y", "z"])]
    )


ROWS = [(12, "y"), (10, "z"), (12, "y"), (14, "x"), (12, "z")]


class TestDelta:
    def test_observers_share_one_delta(self):
        relation = make_relation()
        first, second = DeltaRecorder(), DeltaRecorder()
        relation.attach(first)
        relation.attach(second)
        relation.insert_rows(np.array(ROWS, dtype=object))
        (delta,) = first.deltas
        assert second.deltas[0] is delta
        np.testing.assert_array_equal(delta.cells, [[0, 2], [2, 1], [2, 2], [4, 0]])
        np.testing.assert_array_equal(delta.counts, [1, 2, 1, 1])
        assert delta.kind is OpKind.INSERT and relation._delta is None

    def test_deletes_carry_negative_counts(self):
        relation = make_relation()
        recorder = DeltaRecorder()
        relation.insert_rows(np.array(ROWS, dtype=object))
        relation.attach(recorder)
        relation.delete_rows(np.array(ROWS[:3], dtype=object))
        np.testing.assert_array_equal(recorder.deltas[0].counts, [-1, -2])
        assert relation.count == 2
        assert relation.counts[2, 2] == 1 and relation.counts[4, 0] == 1

    def test_project_marginalizes_and_reindexes(self):
        relation = make_relation()
        delta = relation.delta_of(np.array(ROWS, dtype=object), OpKind.INSERT)
        cells, counts = delta.project([0], [Domain.integer_range(8, 20)])
        np.testing.assert_array_equal(cells, [[2], [4], [6]])
        np.testing.assert_array_equal(counts, [1, 3, 1])
        wider = unify_domains(Domain.categorical(["w", "z"]), relation.domains[1])
        cells, counts = delta.project([1], [wider])
        np.testing.assert_array_equal(cells[:, 0], [wider.index_of(v) for v in "xyz"])
        np.testing.assert_array_equal(counts, [1, 2, 2])

    def test_delta_outside_a_batch_is_built_fresh(self):
        relation = make_relation()
        rows = np.array(ROWS[:2], dtype=object)
        delta = relation.delta_of(rows, OpKind.DELETE)
        np.testing.assert_array_equal(delta.counts, [-1, -1])
        assert relation.delta_of(rows, OpKind.DELETE) is not delta


class TestKeptRowSampling:
    def test_batched_observer_keeps_the_rows_per_tuple_keeps(self, rng):
        # Coin parity: one coin per tuple from the same stream, so a batch
        # keeps exactly the rows that tuple-at-a-time on_op keeps.
        rows = rng.integers(0, 30, size=(500, 2))

        def observer():
            return _SampleObserver(
                0.2, np.random.default_rng(8), [0, 1], [Domain.of_size(30)] * 2
            )

        relation = StreamRelation("R", ["A", "B"], [Domain.of_size(30)] * 2)
        batched, sequential = observer(), observer()
        batched.on_ops(relation, rows, OpKind.INSERT)
        kept = []
        for row in rows:
            values = tuple(int(v) for v in row)
            before = sequential.sampled_size
            sequential.on_op(relation, StreamOp(values, OpKind.INSERT))
            if sequential.sampled_size > before:
                kept.append(values)
        expected = np.zeros((30, 30), dtype=np.int64)
        for a, b in kept:
            expected[a, b] += 1
        np.testing.assert_array_equal(batched.counts, expected)
        np.testing.assert_array_equal(sequential.counts, expected)
        assert batched.sampled_size == sequential.sampled_size == len(kept)
        assert batched.stream_size == sequential.stream_size == 500

    @pytest.mark.parametrize("arity", [1, 2])
    def test_engine_sample_equals_per_tuple_ingest(self, rng, arity):
        domains = [Domain.of_size(40)] * arity
        attributes = ["A", "B"][:arity]
        rows = rng.integers(0, 40, size=(300, arity))

        def build():
            engine = StreamEngine(seed=3)
            engine.create_relation("R1", attributes, domains)
            engine.create_relation("R2", ["A"], [Domain.of_size(40)])
            query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
            engine.register_query("q", query, method="sample", probability=0.3)
            return engine

        batched, sequential = build(), build()
        batched.ingest_batch("R1", rows)
        for row in rows:
            sequential.insert("R1", tuple(int(v) for v in row))
        observers = [
            [obs for _, obs in engine._queries["q"].attachments]
            for engine in (batched, sequential)
        ]
        for a, b in zip(*observers):
            np.testing.assert_array_equal(a.counts, b.counts)
            assert (a.sampled_size, a.stream_size) == (b.sampled_size, b.stream_size)
        assert batched.answer("q") == sequential.answer("q")
