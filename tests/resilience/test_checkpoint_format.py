"""Checkpoint file format, integrity checking, rotation, and write retries."""

import json

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.resilience.chaos import FailingFilesystem
from repro.resilience.checkpoint import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    CheckpointStore,
    domain_from_spec,
    domain_to_spec,
    iter_payload_arrays,
    payload_nbytes,
    read_checkpoint,
    write_checkpoint,
)
from repro.resilience.errors import CheckpointError, CheckpointIntegrityError
from repro.resilience.retry import RetryPolicy
from repro.streams import StreamEngine

from .test_recovery import ALL_METHODS, build_engine, make_batches


def sample_payload() -> dict:
    return {
        "engine": {"seed": 7},
        "arrays": [np.arange(10, dtype=np.int64), np.eye(3)],
        "nested": {"text": "hello"},
    }


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.ckpt"
        size = write_checkpoint(path, sample_payload())
        assert path.stat().st_size == size
        restored = read_checkpoint(path)
        assert restored["engine"] == {"seed": 7}
        np.testing.assert_array_equal(restored["arrays"][0], np.arange(10))
        np.testing.assert_array_equal(restored["arrays"][1], np.eye(3))

    def test_header_is_ascii_json_first_line(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, sample_payload())
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["magic"] == FORMAT_MAGIC
        assert header["version"] == FORMAT_VERSION
        assert len(header["sha256"]) == 64

    def test_overwrite_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, {"v": 1})
        write_checkpoint(path, {"v": 2})
        assert read_checkpoint(path)["v"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not a checkpoint\n\x00\x01")
        with pytest.raises(CheckpointIntegrityError):
            read_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, sample_payload())
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["magic"] = "other-format"
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(CheckpointIntegrityError, match="bad magic"):
            read_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, sample_payload())
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = FORMAT_VERSION + 1
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(CheckpointIntegrityError, match="unsupported"):
            read_checkpoint(path)

    def test_version_1_sample_state_rejected(self, tmp_path):
        # Version 1 kept the sample as a value counter; version 2 reads a
        # count tensor, so an old checkpoint is refused, not misread.
        assert FORMAT_VERSION == 3
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, sample_payload())
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = 1
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(CheckpointIntegrityError, match="version 1 "):
            read_checkpoint(path)

    def test_version_2_flat_observer_state_rejected(self, tmp_path):
        # Version 2 held hand-listed flat observer states; version 3
        # derives them from attributes and nests each synopsis's state,
        # so a version 2 file is refused by the header check.
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, sample_payload())
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["version"] = 2
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(CheckpointIntegrityError, match="version 2 "):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, sample_payload())
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        with pytest.raises(CheckpointIntegrityError, match="truncated"):
            read_checkpoint(path)

    def test_flipped_payload_byte_fails_sha256(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_checkpoint(path, sample_payload())
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointIntegrityError, match="SHA-256"):
            read_checkpoint(path)


class TestWriteRetries:
    def test_transient_rename_failure_is_absorbed(self, tmp_path):
        path = tmp_path / "x.ckpt"
        with FailingFilesystem(fail_replaces=2) as fs:
            write_checkpoint(
                path,
                sample_payload(),
                retry=RetryPolicy(attempts=4, base_delay=0.01),
                sleep=lambda s: None,
            )
        assert fs.replace_calls == 3
        assert read_checkpoint(path)["engine"]["seed"] == 7

    def test_persistent_failure_raises_and_cleans_temp(self, tmp_path):
        path = tmp_path / "x.ckpt"
        with FailingFilesystem(fail_replaces=99):
            with pytest.raises(OSError, match="injected rename"):
                write_checkpoint(
                    path, sample_payload(), retry=RetryPolicy(attempts=2), sleep=lambda s: None
                )
        assert list(tmp_path.iterdir()) == []


class TestCheckpointStore:
    class _FakeEngine:
        def __init__(self):
            self.saves = 0

        def save_checkpoint(self, path, **options):
            self.saves += 1
            return write_checkpoint(path, {"save": self.saves}, **options)

    def test_sequential_naming_and_latest(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpts", keep=5)
        engine = self._FakeEngine()
        assert store.latest() is None
        first = store.save(engine)
        second = store.save(engine)
        assert first.name == "checkpoint-00000001.ckpt"
        assert second.name == "checkpoint-00000002.ckpt"
        assert store.latest() == second

    def test_rotation_keeps_newest_k(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        engine = self._FakeEngine()
        for _ in range(5):
            store.save(engine)
        names = [p.name for p in store.paths()]
        assert names == ["checkpoint-00000004.ckpt", "checkpoint-00000005.ckpt"]
        assert read_checkpoint(store.latest())["save"] == 5

    def test_sequence_continues_across_store_instances(self, tmp_path):
        engine = self._FakeEngine()
        CheckpointStore(tmp_path, keep=3).save(engine)
        path = CheckpointStore(tmp_path, keep=3).save(engine)
        assert path.name == "checkpoint-00000002.ckpt"

    def test_ignores_foreign_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a checkpoint")
        (tmp_path / "checkpoint-bad.ckpt").write_text("bad name")
        store = CheckpointStore(tmp_path, keep=3)
        assert store.paths() == []
        assert store.next_path().name == "checkpoint-00000001.ckpt"

    def test_rejects_keep_below_one(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep=0)


class TestDomainSpecs:
    def test_integer_range_round_trip(self):
        domain = Domain.integer_range(5, 42)
        restored = domain_from_spec(domain_to_spec(domain))
        assert restored.low == domain.low
        assert restored.size == domain.size

    def test_categorical_round_trip(self):
        domain = Domain.categorical(["red", "green", "blue"])
        restored = domain_from_spec(domain_to_spec(domain))
        assert restored.is_categorical
        assert restored.index_of("blue") == domain.index_of("blue")


class TestPayloadDiagnostics:
    def test_payload_nbytes_counts_array_bytes(self):
        payload = {"a": np.zeros(100, dtype=np.int64)}
        assert payload_nbytes(payload) >= 800

    def test_iter_payload_arrays_finds_nested_arrays(self):
        found = list(iter_payload_arrays(sample_payload()))
        assert len(found) == 2


def _first_array_path(state, path=()):
    """Key path of the first array in a (nested) observer state."""
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            return path + (key,)
        if isinstance(value, dict):
            found = _first_array_path(value, path + (key,))
            if found:
                return found
    return None


def _replace_first_array(state, change):
    *parents, leaf = _first_array_path(state)
    for key in parents:
        state = state[key]
    state[leaf] = change(state[leaf])


OBSERVER_STATE_DAMAGE = {
    "unknown_key": lambda state: state.__setitem__("bogus", 1),
    "missing_key": lambda state: state.pop(next(iter(state))),
    "wrong_shape": lambda state: _replace_first_array(state, lambda a: np.append(a, a[:1])),
    "wrong_dtype": lambda state: _replace_first_array(state, lambda a: a.astype(np.float32)),
}


class TestObserverStateRestoreErrors:
    """A damaged observer state is refused with a typed error, never misread."""

    @pytest.mark.parametrize("damage", sorted(OBSERVER_STATE_DAMAGE))
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_damaged_observer_state_raises_checkpoint_error(self, tmp_path, method, damage):
        engine = build_engine(methods=[method])
        for relation, rows in make_batches(n_batches=4):
            engine.ingest_batch(relation, rows)
        path = tmp_path / "x.ckpt"
        engine.save_checkpoint(path)
        payload = read_checkpoint(path)
        (entry,) = [q for q in payload["queries"] if q["name"] == f"q_{method}"]
        OBSERVER_STATE_DAMAGE[damage](entry["observers"][0])
        write_checkpoint(path, payload)
        with pytest.raises(CheckpointError):
            StreamEngine.load_checkpoint(path)
