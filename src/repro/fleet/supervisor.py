"""Shard process supervision: launch, heartbeat, restart, replay.

:class:`ShardSupervisor` owns one worker process per shard (entry point
:func:`repro.fleet.worker.shard_server_main`), talks to each over a
per-shard TCP connection speaking :mod:`repro.fleet.protocol` frames,
and keeps the fleet answer-correct across worker crashes:

* every state-mutating command is appended to that shard's
  :class:`~repro.resilience.journal.CommandJournal` *before* dispatch;
* a successful ``save_checkpoint`` marks the journal (and truncates the
  replayed prefix), so the journal holds exactly the post-checkpoint
  suffix;
* once a shard's unmarked ingest rows pass :data:`JOURNAL_COMPACT_BYTES`,
  the supervisor checkpoints that shard itself, into a scratch directory
  it owns and removes in :meth:`ShardSupervisor.stop`, so a fleet nobody
  checkpoints (the ``serve`` daemon) still holds a bounded journal;
* when a worker is gone — connection reset, clean EOF, or a call
  timeout, all treated identically — the supervisor respawns the
  process, restores the latest checkpoint (if one was ever marked) and
  replays the journal suffix in order.  Replay is correct because a
  crash discards *all* partial effects of the in-flight command, and
  every journaled command is deterministic given the restored state.

Liveness has two detectors.  The command path detects death
synchronously (the failed send/recv triggers the revive before the
caller sees a result), which is what makes chaos-kill at a batch
boundary deterministic.  The optional heartbeat thread pings idle
shards every ``heartbeat_interval`` seconds so a crashed worker is
revived even when no commands are flowing; a busy shard is skipped (its
in-flight command is the better liveness probe).

A shard that exhausts ``max_restarts`` (or crashes with ``restart``
disabled, or fails *during* recovery) is marked down: subsequent
commands raise :class:`~repro.sharding.executor.ShardError`
immediately, which is the signal the engine's ``partial`` degradation
policy turns into a survivor-scaled answer.

Everything is observable: ``repro_fleet_restarts_total{shard}``,
``repro_fleet_heartbeat_misses_total{shard}`` and the
``repro_fleet_shard_up{shard}`` gauge live in the supervisor's
:class:`~repro.obs.metrics.MetricsRegistry` (merged into
``fleet_metrics()`` by the sharded engine).
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import socket
import tempfile
import threading
from pathlib import Path
from typing import Any, Sequence

from ..obs import catalog
from ..obs.metrics import MetricsRegistry
from ..resilience.journal import CommandJournal
from ..sharding.executor import ShardError
from .protocol import ProtocolError, recv_frame, send_frame
from .worker import shard_server_main

__all__ = ["JOURNALED_METHODS", "ShardSupervisor", "WorkerGone"]

#: Worker methods that mutate shard state and must be replayed after a
#: restore; everything else is a read and is simply retried.
JOURNALED_METHODS = frozenset(
    {
        "create_relation",
        "register_query",
        "unregister_query",
        "enable_fault_isolation",
        "ingest",
    }
)

#: Seconds to wait for a freshly spawned worker's port handshake.
_SPAWN_TIMEOUT = 30.0

#: Bytes of ingested rows a shard's journal may hold past its last mark
#: before the supervisor checkpoints the shard and truncates the journal.
JOURNAL_COMPACT_BYTES = 8 << 20


class WorkerGone(ConnectionError):
    """Transport-level loss of a shard worker (crash, reset, or timeout)."""

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard} worker gone: {message}")
        self.shard = shard


class _ShardProcess:
    """One worker process plus the connected command socket."""

    def __init__(
        self,
        shard: int,
        seed: int,
        telemetry: bool,
        ctx: Any,
        call_timeout: float | None,
    ) -> None:
        self.shard = shard
        self._seed = seed
        self._telemetry = telemetry
        self._ctx = ctx
        self._call_timeout = call_timeout
        self._proc: Any = None
        self._sock: socket.socket | None = None

    @property
    def pid(self) -> int | None:
        return None if self._proc is None else self._proc.pid

    def spawn(self) -> None:
        """Start the worker process and connect to its command socket."""
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=shard_server_main,
            args=(send_conn, self.shard, self._seed, self._telemetry),
            daemon=True,
            name=f"repro-fleet-shard-{self.shard}",
        )
        proc.start()
        send_conn.close()
        try:
            if not recv_conn.poll(_SPAWN_TIMEOUT):
                raise WorkerGone(self.shard, "no port handshake before timeout")
            port = recv_conn.recv()
        except (EOFError, OSError) as exc:
            proc.terminate()
            raise WorkerGone(self.shard, f"died during startup: {exc}") from exc
        finally:
            recv_conn.close()
        sock = socket.create_connection(("127.0.0.1", port), timeout=_SPAWN_TIMEOUT)
        sock.settimeout(self._call_timeout)
        self._proc = proc
        self._sock = sock

    def request(self, method: str, args: Sequence[Any], kwargs: dict[str, Any]) -> Any:
        """One command round-trip; raises :class:`WorkerGone` on transport loss.

        A timed-out call also raises :class:`WorkerGone`: the connection
        then has an unconsumed reply in flight, so it cannot be reused —
        the supervisor's response (kill + respawn + replay) is exactly
        the desynchronization recovery this needs.
        """
        if self._sock is None:
            raise WorkerGone(self.shard, "not connected")
        try:
            send_frame(self._sock, (method, tuple(args), dict(kwargs)))
            status, payload = recv_frame(self._sock)
        except (EOFError, OSError, ProtocolError) as exc:
            raise WorkerGone(self.shard, f"{type(exc).__name__}: {exc}") from exc
        if status == "err":
            raise ShardError(self.shard, payload)
        return payload

    def stop(self) -> None:
        """Graceful shutdown: request exit, wait briefly, then escalate."""
        if self._sock is not None:
            try:
                send_frame(self._sock, None)
                recv_frame(self._sock)  # shutdown ack
            except (EOFError, OSError, ProtocolError):
                pass
            self._close_sock()
        self._reap(graceful_timeout=5.0)

    def destroy(self) -> None:
        """Tear the worker down now (crash recovery path)."""
        self._close_sock()
        self._reap(graceful_timeout=0.0)

    def _close_sock(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._sock = None

    def _reap(self, graceful_timeout: float) -> None:
        proc = self._proc
        if proc is None:
            return
        if graceful_timeout > 0:
            proc.join(timeout=graceful_timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - terminate resisted
            proc.kill()
            proc.join(timeout=1.0)
        self._proc = None


class ShardSupervisor:
    """Launch, monitor, and self-heal a fleet of shard worker processes."""

    def __init__(
        self,
        restart: bool = True,
        max_restarts: int = 5,
        call_timeout: float | None = 30.0,
        heartbeat_interval: float | None = None,
        heartbeat_misses: int = 3,
        registry: MetricsRegistry | None = None,
        mp_context: str | None = None,
    ) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive (or None)")
        if heartbeat_misses < 1:
            raise ValueError(f"heartbeat_misses must be >= 1, got {heartbeat_misses}")
        self.restart = restart
        self.max_restarts = max_restarts
        self.call_timeout = call_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.registry = registry if registry is not None else MetricsRegistry()
        self._ctx_name = mp_context
        self.num_shards = 0
        self._procs: list[_ShardProcess] = []
        self._journals: list[CommandJournal] = []
        self._locks: list[threading.Lock] = []
        self._restart_counts: list[int] = []
        self._miss_counts: list[int] = []
        self._down: dict[int, str] = {}
        self._pending_bytes: list[int] = []
        self._scratch: str | None = None
        self._stop_event = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        self._restarts_metric = self.registry.register(catalog.FLEET_RESTARTS)
        self._misses_metric = self.registry.register(catalog.FLEET_HEARTBEAT_MISSES)
        self._up_metric = self.registry.register(catalog.FLEET_SHARD_UP)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self, num_shards: int, seed: int, telemetry: bool = True) -> None:
        if self._procs:
            raise RuntimeError("supervisor already started")
        name = self._ctx_name
        if name is None:
            name = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(name)
        self.num_shards = num_shards
        self._journals = [CommandJournal() for _ in range(num_shards)]
        self._locks = [threading.Lock() for _ in range(num_shards)]
        self._restart_counts = [0] * num_shards
        self._miss_counts = [0] * num_shards
        self._pending_bytes = [0] * num_shards
        self._scratch = tempfile.mkdtemp(prefix="repro-fleet-journal-")
        self._down = {}
        for shard in range(num_shards):
            proc = _ShardProcess(shard, seed, telemetry, ctx, self.call_timeout)
            proc.spawn()
            self._procs.append(proc)
            self._up_metric.labels(str(shard)).set(1.0)
        if self.heartbeat_interval is not None:
            self._stop_event.clear()
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="repro-fleet-heartbeat", daemon=True
            )
            self._heartbeat_thread.start()

    def stop(self) -> None:
        """Shut every worker down (idempotent)."""
        self._stop_event.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=10.0)
            self._heartbeat_thread = None
        for shard, proc in enumerate(self._procs):
            with self._locks[shard]:
                proc.stop()
                self._up_metric.labels(str(shard)).set(0.0)
        self._procs = []
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None

    # ------------------------------------------------------------------ #
    # command dispatch
    # ------------------------------------------------------------------ #

    def command(
        self,
        shard: int,
        method: str,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> Any:
        """Run one worker command with journaling and crash recovery.

        A journaled command that dies in flight is *not* re-sent after
        the revive: the revive's replay already applied it (exactly once,
        onto state with no partial effects), so the call returns ``None``
        for that rare case.  Read commands are retried once against the
        revived worker.
        """
        kwargs = kwargs if kwargs is not None else {}
        lock = self._locks[shard]
        with lock:
            self._check_up(shard)
            journaled = method in JOURNALED_METHODS
            if journaled:
                self._journals[shard].append(method, tuple(args), dict(kwargs))
            try:
                result = self._procs[shard].request(method, args, kwargs)
            except WorkerGone as exc:
                self._revive_locked(shard, str(exc))
                if journaled:
                    return None
                result = self._procs[shard].request(method, args, kwargs)
            if method == "save_checkpoint":
                # The checkpoint now covers everything journaled so far:
                # mark it (remembering the store directory for revives)
                # and drop the prefix replay no longer needs.
                self._mark_locked(shard, str(args[0]))
            elif method == "load_latest_checkpoint":
                # The worker's state *is* the checkpoint now; any journal
                # history predates it and must not be replayed on top.
                self._journals[shard].clear()
                self._mark_locked(shard, str(args[0]))
            elif method == "ingest":
                self._pending_bytes[shard] += sum(getattr(a, "nbytes", 0) for a in args)
                if self._pending_bytes[shard] > JOURNAL_COMPACT_BYTES:
                    self._compact_locked(shard)
            return result

    def _mark_locked(self, shard: int, ref: str) -> None:
        journal = self._journals[shard]
        journal.mark(ref)
        journal.truncate()
        self._pending_bytes[shard] = 0

    def _compact_locked(self, shard: int) -> None:
        """Checkpoint a shard into the supervisor's scratch dir (lock held).

        Reuses the ``save_checkpoint`` mark/truncate path.  A failed save
        leaves the journal as it was: it still replays everything since
        the previous mark, so compaction never costs correctness.
        """
        assert self._scratch is not None
        directory = str(Path(self._scratch) / f"shard-{shard}")
        try:
            self._procs[shard].request("save_checkpoint", (directory,), {"keep": 1})
        except WorkerGone as exc:
            self._revive_locked(shard, str(exc))
            return
        except ShardError:
            return
        self._mark_locked(shard, directory)

    def _check_up(self, shard: int) -> None:
        reason = self._down.get(shard)
        if reason is not None:
            raise ShardError(shard, f"worker is down ({reason})")

    def _mark_down_locked(self, shard: int, reason: str) -> None:
        self._down[shard] = reason
        self._up_metric.labels(str(shard)).set(0.0)

    def _revive_locked(self, shard: int, cause: str) -> None:
        """Respawn a dead worker and rebuild its state (lock held)."""
        self._procs[shard].destroy()
        self._up_metric.labels(str(shard)).set(0.0)
        if not self.restart:
            self._mark_down_locked(shard, f"restart disabled; {cause}")
            raise ShardError(shard, f"worker died ({cause}) and restart is disabled")
        if self._restart_counts[shard] >= self.max_restarts:
            self._mark_down_locked(shard, f"max_restarts exhausted; {cause}")
            raise ShardError(
                shard,
                f"worker died ({cause}) after {self.max_restarts} restarts",
            )
        self._restart_counts[shard] += 1
        self._restarts_metric.labels(str(shard)).inc()
        journal = self._journals[shard]
        try:
            self._procs[shard].spawn()
            if journal.has_mark:
                self._procs[shard].request(
                    "load_latest_checkpoint", (journal.mark_ref,), {}
                )
                entries = journal.since_mark()
            else:
                entries = journal.all_entries()
            for entry in entries:
                self._procs[shard].request(entry.method, entry.args, entry.kwargs)
        except (WorkerGone, ShardError) as exc:
            # Recovery itself failed (checkpoint unreadable, replay
            # rejected, or the fresh worker died too): this shard cannot
            # be made consistent, so it must not serve partial state.
            self._procs[shard].destroy()
            self._mark_down_locked(shard, f"recovery failed: {exc}")
            raise ShardError(shard, f"restart failed: {exc}") from exc
        self._up_metric.labels(str(shard)).set(1.0)

    # ------------------------------------------------------------------ #
    # heartbeats
    # ------------------------------------------------------------------ #

    def _heartbeat_loop(self) -> None:
        assert self.heartbeat_interval is not None
        while not self._stop_event.wait(self.heartbeat_interval):
            for shard in range(self.num_shards):
                self._heartbeat_one(shard)

    def _heartbeat_one(self, shard: int) -> None:
        lock = self._locks[shard]
        if not lock.acquire(blocking=False):
            # Busy shard: its in-flight command is the liveness probe.
            return
        try:
            if shard in self._down:
                return
            try:
                self._procs[shard].request("ping", (), {})
            except (WorkerGone, ShardError):
                self._miss_counts[shard] += 1
                self._misses_metric.labels(str(shard)).inc()
                if self._miss_counts[shard] >= self.heartbeat_misses:
                    self._miss_counts[shard] = 0
                    try:
                        self._revive_locked(shard, "heartbeat misses exhausted")
                    except ShardError:
                        pass  # marked down; the next command reports it
            else:
                self._miss_counts[shard] = 0
        finally:
            lock.release()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def pid(self, shard: int) -> int | None:
        """The worker process id (chaos tests aim SIGKILL at this)."""
        return self._procs[shard].pid

    def pids(self) -> list[int | None]:
        return [proc.pid for proc in self._procs]

    def shard_up(self, shard: int) -> bool:
        return shard not in self._down

    def restart_count(self, shard: int) -> int:
        return self._restart_counts[shard]

    def journal(self, shard: int) -> CommandJournal:
        return self._journals[shard]

    def health(self) -> dict[str, object]:
        """JSON-compatible fleet health snapshot (serve's ``stats`` op)."""
        return {
            "num_shards": self.num_shards,
            "up": [self.shard_up(shard) for shard in range(self.num_shards)],
            "down": dict(self._down),
            "restarts": list(self._restart_counts),
            "journals": [journal.as_dict() for journal in self._journals],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSupervisor(shards={self.num_shards}, "
            f"down={sorted(self._down)}, restarts={self._restart_counts})"
        )
