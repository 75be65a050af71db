"""Journal compaction: a fleet nobody checkpoints keeps a bounded journal.

Past :data:`repro.fleet.supervisor.JOURNAL_COMPACT_BYTES` of unmarked
ingest rows, the supervisor checkpoints the shard into its own scratch
directory and truncates the journal.  The cap is lowered here so that a
short stream crosses it several times; SIGKILL revival after compaction
must stay answer-identical to an uninterrupted serial fleet.
"""

import os
import signal
from pathlib import Path

from repro.fleet import supervisor as supervisor_module
from tests.fleet.conftest import assert_fleet_answers_equal, build_socket_fleet

#: Eight int64 rows: every shard crosses it within the shared stream.
SMALL_CAP = 64


def test_pending_stays_bounded_past_the_cap(serial_expected, monkeypatch):
    monkeypatch.setattr(supervisor_module, "JOURNAL_COMPACT_BYTES", SMALL_CAP)
    batches, expected = serial_expected
    fleet = build_socket_fleet()
    supervisor = fleet._executor.supervisor
    try:
        setup_entries = [len(supervisor.journal(s)) for s in range(fleet.num_shards)]
        for name, rows in batches:
            fleet.ingest_batch(name, rows)
            # Unmarked ingest rows never stay past the cap after a command.
            assert max(supervisor._pending_bytes) <= SMALL_CAP
        scratch = Path(supervisor._scratch)
        for shard in range(fleet.num_shards):
            journal = supervisor.journal(shard)
            assert journal.has_mark
            assert Path(journal.mark_ref).parent == scratch
            # Truncation dropped the registration prefix with the rows.
            assert len(journal) == journal.pending < setup_entries[shard]
        assert_fleet_answers_equal(fleet, expected)
    finally:
        fleet.close()
    assert not scratch.exists()


def test_sigkill_after_compaction_is_answer_identical(serial_expected, monkeypatch):
    monkeypatch.setattr(supervisor_module, "JOURNAL_COMPACT_BYTES", SMALL_CAP)
    batches, expected = serial_expected
    fleet = build_socket_fleet()
    supervisor = fleet._executor.supervisor
    try:
        for number, (name, rows) in enumerate(batches, start=1):
            fleet.ingest_batch(name, rows)
            if number == 5:
                assert supervisor.journal(1).has_mark
                os.kill(supervisor.pid(1), signal.SIGKILL)
        assert_fleet_answers_equal(fleet, expected)
        assert supervisor.restart_count(1) == 1
    finally:
        fleet.close()


def test_default_cap_leaves_small_streams_unmarked(serial_expected):
    batches, _ = serial_expected
    fleet = build_socket_fleet()
    supervisor = fleet._executor.supervisor
    try:
        for name, rows in batches:
            fleet.ingest_batch(name, rows)
        assert not any(supervisor.journal(s).has_mark for s in range(fleet.num_shards))
    finally:
        fleet.close()
