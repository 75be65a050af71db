"""The asyncio serving front-end: newline-JSON over TCP, backpressured.

:class:`FleetServer` puts a :class:`~repro.sharding.engine.ShardedStreamEngine`
behind a long-running socket daemon (the ``repro-experiments serve``
subcommand).  Protocol: one JSON object per line in, one JSON object per
line out, in request order per connection.  Requests carry ``op`` plus
op-specific fields; responses carry ``ok`` and either the result fields
or ``error``, echoing the request's ``id`` when one was given.

Memory is bounded per client by construction, both directions:

* inbound, the stream reader's ``limit`` (``read_limit``) caps one
  line, so a client cannot feed an unbounded request;
* outbound, responses are written through ``drain()`` with the
  transport's write high-water mark set to ``write_high_water`` — when
  a slow client stops reading, ``drain()`` suspends that client's
  coroutine, which *also* stops us reading its next request.  A slow
  consumer throttles itself; it never grows server-side queues.

Engine commands execute on one single-thread pool: the engine is not
thread-safe, and a single apply lane preserves the per-connection and
cross-connection ordering that ingest correctness needs, while the event
loop stays free to accept and parse other clients.

Degradation policy: ``query`` ops run under the server's default policy
(or a per-request override) — ``raise`` propagates shard loss as an
error response; ``partial`` answers from the surviving shards via
:meth:`~repro.sharding.engine.ShardedStreamEngine.answer_partial`, with
the degradation flag and survivor counts in the response.

Tracing: a request's ``traceparent`` is adopted around the engine work,
so one client request is one fleet trace (the PR 7 propagation path,
now reaching across the serve boundary).  Requests are counted in
``repro_serve_requests_total{op}``; connected clients in the
``repro_serve_clients`` gauge.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..obs import catalog
from ..obs.metrics import MetricsRegistry
from ..resilience.errors import DegradedQueryError
from ..sharding.engine import ShardedStreamEngine
from ..sharding.executor import ShardError
from ..streams.tuples import OpKind
from .rows import unpack_rows

__all__ = ["FleetServer"]

#: Default per-client line / write-buffer bound (bytes).  Packed int64
#: rows cost ~10.7 bytes of base64 per value, so this holds as many rows
#: as 256 KiB of short JSON lists.
DEFAULT_LIMIT = 512 * 1024

_POLICIES = ("raise", "partial")


class FleetServer:
    """Serve one sharded engine to concurrent newline-JSON clients."""

    def __init__(
        self,
        fleet: ShardedStreamEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: str = "raise",
        read_limit: int = DEFAULT_LIMIT,
        write_high_water: int = DEFAULT_LIMIT,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {_POLICIES}")
        self.fleet = fleet
        self.host = host
        self.port = port
        self.policy = policy
        self.read_limit = read_limit
        self.write_high_water = write_high_water
        self.registry = registry if registry is not None else MetricsRegistry()
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fleet-serve")
        self._server: asyncio.AbstractServer | None = None
        self._client_tasks: set[asyncio.Task[None]] = set()
        self._requests_metric = self.registry.register(catalog.SERVE_REQUESTS)
        self._clients_metric = self.registry.register(catalog.SERVE_CLIENTS)
        #: Requests whose engine work has completed (the backpressure
        #: tests read this to prove a slow client throttles dispatch).
        self.dispatched = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=self.read_limit
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Stop serving open connections too: a daemon shutdown must not
        # leave handler coroutines suspended in readline()/drain().
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        # shutdown(wait=True) drains the apply lane; run it off-loop so a
        # slow in-flight command cannot stall the whole event loop.
        await asyncio.get_running_loop().run_in_executor(None, self._pool.shutdown)

    # ------------------------------------------------------------------ #
    # per-client loop
    # ------------------------------------------------------------------ #

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        self._clients_metric.inc()
        writer.transport.set_write_buffer_limits(high=self.write_high_water)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        {"ok": False, "error": "request exceeds read limit"},
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except ValueError as exc:
                    response: dict[str, Any] = {
                        "ok": False,
                        "error": f"malformed JSON: {exc}",
                    }
                else:
                    response = await self._dispatch(request)
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-exchange; nothing to clean up
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            self._clients_metric.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, response: dict[str, Any]) -> None:
        writer.write(json.dumps(response).encode() + b"\n")
        # The backpressure point: past the write high-water mark this
        # suspends until the client reads, pausing *this* client's loop.
        await writer.drain()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    async def _dispatch(self, request: Any) -> dict[str, Any]:
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = str(request.get("op", ""))
        self._requests_metric.labels(op or "unknown").inc()
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._pool, self._apply, op, request)
        except (ShardError, DegradedQueryError) as exc:
            response: dict[str, Any] = {"ok": False, "error": str(exc), "degraded": True}
        except Exception as exc:  # a bad request must not take the daemon down
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        else:
            response = {"ok": True, **result}
            self.dispatched += 1
        if "id" in request:
            response["id"] = request["id"]
        return response

    def _apply(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        """Run one op on the engine (single apply lane, traced)."""
        tracer = self.fleet.tracer
        if tracer is None:
            return self._run_op(op, request)
        saved = tracer.context
        try:
            traceparent = request.get("traceparent")
            if traceparent is not None:
                tracer.adopt(str(traceparent))
            with tracer.span("serve_request", op=op):
                return self._run_op(op, request)
        finally:
            tracer.context = saved

    def _run_op(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        fleet = self.fleet
        if op == "ping":
            supervisor = getattr(fleet._executor, "supervisor", None)
            up = (
                [supervisor.shard_up(s) for s in range(fleet.num_shards)]
                if supervisor is not None
                else [True] * fleet.num_shards
            )
            return {"num_shards": fleet.num_shards, "up": up}
        if op == "create_relation":
            from ..resilience.checkpoint import domain_from_spec

            domains = [domain_from_spec(spec) for spec in request["domains"]]
            fleet.create_relation(
                str(request["name"]),
                [str(a) for a in request["attributes"]],
                domains,
                partition_by=request.get("partition_by"),
            )
            return {"relation": request["name"]}
        if op == "register":
            fleet.register_query_spec(str(request["name"]), dict(request["spec"]))
            return {"query": request["name"]}
        if op == "unregister":
            fleet.unregister_query(str(request["name"]))
            return {"query": request["name"]}
        if op == "ingest":
            kind = (
                OpKind.DELETE
                if str(request.get("kind", "insert")) == "delete"
                else OpKind.INSERT
            )
            rows = request["rows"]
            if isinstance(rows, dict):
                rows = unpack_rows(rows)
            before = 0 if fleet.dead_letters is None else fleet.dead_letters.total
            fleet.ingest_batch(str(request["relation"]), rows, kind)
            after = 0 if fleet.dead_letters is None else fleet.dead_letters.total
            return {"rows": len(rows), "dead_lettered": after - before}
        if op == "query":
            name = str(request["name"])
            policy = str(request.get("policy", self.policy))
            if policy not in _POLICIES:
                raise ValueError(
                    f"unknown policy {policy!r}; choose from {_POLICIES}"
                )
            mode = str(request.get("mode", "answer"))
            if mode not in ("answer", "upper_bound", "clamped"):
                raise ValueError(
                    f"unknown estimation mode {mode!r}; "
                    "choose from 'answer', 'upper_bound', 'clamped'"
                )
            if policy == "partial":
                # A partial answer is already missing shards' state, so
                # no sound bound exists for it; bound modes must not
                # silently serve a partial count as a "guarantee".
                if mode != "answer":
                    raise ValueError(
                        "bound modes are not available under the 'partial' "
                        "policy (a partial merge has no sound bound)"
                    )
                partial = fleet.answer_partial(name)
                return partial.as_dict()
            report = fleet.bound_report(name)
            if report is None:
                if mode != "answer":
                    raise ValueError(
                        f"query {name!r} was not registered with bounds=True; "
                        f"mode {mode!r} needs degree statistics"
                    )
                return {"value": fleet.answer(name), "degraded": False}
            value = report["estimate" if mode == "answer" else mode]
            return {
                "value": value,
                "degraded": False,
                "mode": mode,
                "bound": {
                    "upper_bound": report["upper_bound"],
                    "clamped": report["clamped"],
                    "clamp_fired": report["clamp_fired"],
                },
            }
        if op == "deadletters":
            if fleet.dead_letters is None:
                raise ValueError("dead-lettering is not enabled on this fleet")
            if request.get("replay"):
                return {"replay": fleet.replay_dead_letters().as_dict()}
            return {"deadletters": fleet.dead_letters.as_dict()}
        if op == "stats":
            supervisor = getattr(fleet._executor, "supervisor", None)
            shards: list[dict[str, Any] | None] = []
            for shard in range(fleet.num_shards):
                try:
                    shards.append(fleet._executor.call(shard, "stats_dict"))
                except ShardError:
                    shards.append(None)  # a down shard must not sink stats
            return {
                "relations": fleet.relation_names(),
                "queries": fleet.query_names(),
                "shards": shards,
                "health": None if supervisor is None else supervisor.health(),
            }
        raise ValueError(f"unknown op {op!r}")
