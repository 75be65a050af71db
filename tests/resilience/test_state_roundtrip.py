"""Checkpoint completeness at runtime: restore reproduces every attribute.

Observer and synopsis state is derived from ``vars()`` minus the
declared structural names (:class:`repro.core.stateful.Stateful`), so an
attribute can only be lost if it is wrongly declared structural or is
rebuilt differently on restore.  These tests save and load every method
(with bounds) on a chain with deletes, in process and through a serial
sharded fleet, then require every observer and every nested synopsis of
the restored engine to hold recursively equal ``vars()`` — including
attributes assigned outside ``__init__``, such as the ``stats_key`` that
``register_query`` sets.
"""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.core.stateful import Stateful
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind

ALL_METHODS = [
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
]
#: The histogram/wavelet/partitioned baselines support one join only.
SINGLE_JOIN = {"histogram", "wavelet", "partitioned_sketch"}
N = 24


def build(method, sharded):
    engine = (
        ShardedStreamEngine(num_shards=3, seed=5, executor="serial")
        if sharded
        else StreamEngine(seed=5)
    )
    domain = Domain.of_size(N)
    engine.create_relation("R", ["A"], [domain])
    engine.create_relation("S", ["A", "B"], [domain, domain])
    if method in SINGLE_JOIN:
        query = JoinQuery.parse(["R", "S"], ["R.A = S.A"])
    else:
        engine.create_relation("T", ["B"], [domain])
        query = JoinQuery.parse(["R", "S", "T"], ["R.A = S.A", "S.B = T.B"])
    options = {"probability": 0.5} if method == "sample" else {}
    engine.register_query("q", query, method=method, budget=16, bounds=True, **options)
    return engine


def feed(engine, method):
    rng = np.random.default_rng(9)
    names = ["R", "S"] if method in SINGLE_JOIN else ["R", "S", "T"]
    for step in range(6):
        for name in names:
            rows = rng.integers(0, N, size=(40, 2 if name == "S" else 1))
            engine.ingest_batch(name, rows)
            if method != "sample" and step % 2:
                # Bernoulli samples refuse deletions; every other method
                # sees half of the batch deleted again.
                engine.ingest_batch(name, rows[:20], kind=OpKind.DELETE)


def assert_same(original, restored, where):
    """Recursive equality of a restored value, by the value's kind."""
    if isinstance(original, Stateful):
        assert type(restored) is type(original), where
        assert vars(restored).keys() == vars(original).keys(), where
        for key, value in vars(original).items():
            assert_same(value, vars(restored)[key], f"{where}.{key}")
    elif isinstance(original, np.ndarray):
        assert isinstance(restored, np.ndarray), where
        assert restored.dtype == original.dtype, where
        assert np.array_equal(restored, original), where
    elif isinstance(original, np.random.Generator):
        assert restored.bit_generator.state == original.bit_generator.state, where
    elif isinstance(original, (list, tuple)):
        assert type(restored) is type(original) and len(restored) == len(original), where
        for i, (a, b) in enumerate(zip(original, restored)):
            assert_same(a, b, f"{where}[{i}]")
    elif isinstance(original, dict):
        assert restored.keys() == original.keys(), where
        for key in original:
            assert_same(original[key], restored[key], f"{where}[{key!r}]")
    elif type(original).__eq__ is object.__eq__:
        # Helpers without value equality (sign families) are rebuilt
        # from the seed and spec; their caches may differ.
        assert type(restored) is type(original), where
    else:
        assert restored == original, where


def assert_engines_same(original, restored, label):
    assert original._queries.keys() == restored._queries.keys()
    for name, state in original._queries.items():
        observers = [obs for _, obs in state.attachments]
        others = [obs for _, obs in restored._queries[name].attachments]
        assert len(observers) == len(others) > 1  # synopsis + degree observers
        for i, (a, b) in enumerate(zip(observers, others)):
            assert_same(a, b, f"{label}:{name}[{i}]:{type(a).__name__}")


@pytest.mark.parametrize("method", ALL_METHODS)
def test_in_process_restore_reproduces_every_attribute(method, tmp_path):
    engine = build(method, sharded=False)
    feed(engine, method)
    engine.save_checkpoint(tmp_path / "x.ckpt")
    restored = StreamEngine.load_checkpoint(tmp_path / "x.ckpt")
    assert_engines_same(engine, restored, "engine")
    assert restored.answer("q") == engine.answer("q")


@pytest.mark.parametrize("method", ALL_METHODS)
def test_sharded_restore_reproduces_every_attribute(method, tmp_path):
    with build(method, sharded=True) as fleet:
        feed(fleet, method)
        fleet.save_checkpoints(tmp_path)
        with ShardedStreamEngine.restore(tmp_path, executor="serial") as restored:
            shards = zip(fleet._executor.workers, restored._executor.workers)
            for shard, (a, b) in enumerate(shards):
                assert_engines_same(a.engine, b.engine, f"shard{shard}")
            if fleet._coordinator is not None:
                assert_engines_same(fleet._coordinator, restored._coordinator, "coordinator")
            assert restored.answer("q") == fleet.answer("q")
