"""Supervised network shard fleet: socket executor, supervisor, serve daemon.

This package moves the shard fleet out of the coordinator process.  The
pieces, bottom-up:

* :mod:`repro.fleet.protocol` — length-prefixed pickle frames over a
  stream socket, the wire format every fleet connection speaks.
* :mod:`repro.fleet.worker` — the worker-process entry point: one
  :class:`~repro.sharding.worker.ShardWorker` served over a TCP socket.
* :mod:`repro.fleet.supervisor` — :class:`ShardSupervisor` launches the
  worker processes, heartbeats them, and on crash restarts a worker from
  its latest checkpoint then replays the post-checkpoint
  :class:`~repro.resilience.journal.CommandJournal` suffix.
* :mod:`repro.fleet.executor` — :class:`SocketExecutor`, the
  :class:`~repro.sharding.executor.ShardExecutor` implementation that
  plugs supervised network workers into the unchanged
  :class:`~repro.sharding.engine.ShardedStreamEngine`.
* :mod:`repro.fleet.serve` / :mod:`repro.fleet.client` — the
  ``repro-experiments serve`` asyncio front-end (newline-JSON protocol,
  bounded per-client backpressure, graceful-degradation query policies)
  and its small synchronous client; :mod:`repro.fleet.rows` is the
  packed int64 form both use for ingest rows.

The supervision contract the chaos suite enforces: SIGKILL any shard at
any batch boundary and, after the supervised restart + journal replay,
every estimation method answers identically to an engine that never
crashed.
"""

from .client import FleetClient
from .executor import SocketExecutor
from .protocol import recv_frame, send_frame
from .supervisor import ShardSupervisor, WorkerGone

__all__ = [
    "FleetClient",
    "FleetServer",
    "ShardSupervisor",
    "SocketExecutor",
    "WorkerGone",
    "recv_frame",
    "send_frame",
]


def __getattr__(name: str) -> object:
    """Import :class:`FleetServer` on first use: asyncio loads ssl."""
    if name == "FleetServer":
        from .serve import FleetServer

        return FleetServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
