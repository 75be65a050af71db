"""Bounds survive checkpoints: restored engines answer identically.

Degree observers join the regular checkpoint plumbing — their frequency
vectors are serialized with every other observer's state and their
structural fields (domain, axis) are rebuilt from the query spec at
restore.  These tests pin the strongest version of that contract:
restored state is *bit-identical*, bound reports are equal before and
after a restore, and the crash-at-any-batch-boundary chaos harness from
``tests/resilience`` keeps bounds answer-identical to an uncrashed
control engine.  Sharded fleets restore per shard or wholesale with the
same guarantee.
"""

import numpy as np
import pytest

from repro.bounds.degree import DegreeObserver
from repro.resilience import CheckpointStore, SimulatedCrash
from repro.resilience.chaos import CrashingIngest
from repro.sharding import ShardedStreamEngine
from repro.streams import StreamEngine
from repro.streams.tuples import OpKind

from .test_soundness import build_engine, feed, make_stream, methods_for


def insert_batches(data_seed=4, n_batches=7):
    ops = make_stream(2, data_seed, n_batches, with_deletes=False)
    return [(rel, rows) for rel, rows, _ in ops]


def degree_states(engine):
    """Every degree observer's state, in deterministic attachment order."""
    states = []
    for name in sorted(engine._queries):
        for _, observer in engine._queries[name].attachments:
            if isinstance(observer, DegreeObserver):
                states.append((name, observer.sketch.state_dict()))
    return states


def bound_reports(engine, methods):
    return {m: engine.bound_report(f"q_{m}") for m in methods}


class TestSingleEngineRoundTrip:
    def test_degree_state_restores_bit_identically(self, tmp_path):
        methods = methods_for(2, with_deletes=True)
        engine = build_engine(2, methods)
        feed(engine, make_stream(2, 9, 6, with_deletes=True))
        engine.save_checkpoint(tmp_path / "x.ckpt")
        restored = StreamEngine.load_checkpoint(tmp_path / "x.ckpt")

        original = degree_states(engine)
        recovered = degree_states(restored)
        assert len(original) == len(recovered) > 0
        for (name_a, state_a), (name_b, state_b) in zip(original, recovered):
            assert name_a == name_b
            assert state_a["freq"].dtype == state_b["freq"].dtype == np.int64
            np.testing.assert_array_equal(state_a["freq"], state_b["freq"])

        assert bound_reports(restored, methods) == bound_reports(engine, methods)

    def test_reports_stay_identical_under_further_ingest(self, tmp_path):
        methods = methods_for(2, with_deletes=True)
        engine = build_engine(2, methods)
        feed(engine, make_stream(2, 13, 4, with_deletes=True))
        engine.save_checkpoint(tmp_path / "x.ckpt")
        restored = StreamEngine.load_checkpoint(tmp_path / "x.ckpt")

        future = make_stream(2, 14, 5, with_deletes=False)
        feed(engine, future)
        feed(restored, future)
        assert bound_reports(restored, methods) == bound_reports(engine, methods)

    def test_deletes_after_restore_keep_reports_identical(self, tmp_path):
        engine = build_engine(2, ["cosine", "basic_sketch"])
        rows = np.column_stack([np.arange(30) % 16, np.arange(30) % 12])
        engine.ingest_batch("R", rows)
        engine.ingest_batch("S", rows[:, 1:])
        engine.save_checkpoint(tmp_path / "x.ckpt")
        restored = StreamEngine.load_checkpoint(tmp_path / "x.ckpt")

        engine.ingest_batch("R", rows[:10], kind=OpKind.DELETE)
        restored.ingest_batch("R", rows[:10], kind=OpKind.DELETE)
        methods = ["cosine", "basic_sketch"]
        assert bound_reports(restored, methods) == bound_reports(engine, methods)


class TestCrashChaos:
    @pytest.mark.parametrize("crash_at", [1, 3, 5, 7])
    def test_crash_at_any_batch_boundary_keeps_bounds_identical(
        self, tmp_path, crash_at
    ):
        batches = insert_batches()
        methods = methods_for(2, with_deletes=False)

        control = build_engine(2, methods)
        CrashingIngest(control).run(batches)
        expected = bound_reports(control, methods)

        victim = build_engine(2, methods)
        store = CheckpointStore(tmp_path / f"crash{crash_at}", keep=3)
        harness = CrashingIngest(victim, store, checkpoint_every=1, crash_at=crash_at)
        with pytest.raises(SimulatedCrash):
            harness.run(batches)

        if store.latest() is None:
            restored = build_engine(2, methods)
            remaining = batches
        else:
            restored = StreamEngine.load_checkpoint(store.latest())
            remaining = batches[harness.batches_applied :]
        CrashingIngest(restored).run(remaining)

        recovered = bound_reports(restored, methods)
        for method in methods:
            assert recovered[method] == expected[method], method


class TestShardedRoundTrip:
    def test_full_fleet_restore_keeps_bounds_identical(self, tmp_path):
        methods = methods_for(2, with_deletes=True)
        ops = make_stream(2, 21, 6, with_deletes=True)
        control = build_engine(2, methods, sharded=3)
        fleet = build_engine(2, methods, sharded=3)
        feed(control, ops[:4])
        feed(fleet, ops[:4])
        fleet.save_checkpoints(tmp_path)
        fleet.close()

        restored = ShardedStreamEngine.restore(tmp_path)
        feed(control, ops[4:])
        feed(restored, ops[4:])
        assert bound_reports(restored, methods) == bound_reports(control, methods)
        restored.close()
        control.close()

    def test_single_shard_revival_keeps_bounds_identical(self, tmp_path):
        methods = methods_for(2, with_deletes=False)
        batches = insert_batches(data_seed=31, n_batches=6)
        control = build_engine(2, methods, sharded=3)
        victim = build_engine(2, methods, sharded=3)
        for rel, rows in batches:
            control.ingest_batch(rel, rows)
            victim.ingest_batch(rel, rows)
            victim.save_checkpoints(tmp_path)

        worker = victim._executor.workers[1]
        worker.engine = worker._fresh_engine()
        victim.restore_shard(1, tmp_path)

        assert bound_reports(victim, methods) == bound_reports(control, methods)
        victim.close()
        control.close()
