"""A small synchronous client for the serve daemon's newline-JSON protocol.

One connection, strict request/response alternation — deliberately the
simplest correct consumer of :class:`~repro.fleet.serve.FleetServer`
(tests, the CLI's smoke paths, and scripts).  Pipelined / async
consumers can speak the wire protocol directly; it is just JSON lines,
with integer ingest rows packed as in :mod:`repro.fleet.rows`.
"""

from __future__ import annotations

import json
import socket
from typing import Any

import numpy as np

from .rows import pack_rows

__all__ = ["FleetClient"]


class FleetClient:
    """Blocking request/response client for one serve-daemon connection."""

    def __init__(self, host: str, port: int, timeout: float | None = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one op and block for its response object."""
        payload: dict[str, Any] = dict(fields)
        payload["op"] = op
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("serve daemon closed the connection")
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ConnectionError(f"malformed response: {response!r}")
        return response

    def check(self, op: str, **fields: Any) -> dict[str, Any]:
        """Like :meth:`request`, but raise on an ``ok: false`` response."""
        response = self.request(op, **fields)
        if not response.get("ok"):
            raise RuntimeError(f"{op} failed: {response.get('error')}")
        return response

    # Convenience wrappers mirroring the ops (see serve.py for fields).

    def ping(self) -> dict[str, Any]:
        return self.check("ping")

    def create_relation(
        self,
        name: str,
        attributes: list[Any],
        domains: list[Any],
        partition_by: str | None = None,
    ) -> dict[str, Any]:
        return self.check(
            "create_relation",
            name=name,
            attributes=attributes,
            domains=domains,
            partition_by=partition_by,
        )

    def register(self, name: str, spec: dict[str, Any]) -> dict[str, Any]:
        return self.check("register", name=name, spec=spec)

    def ingest(self, relation: str, rows: Any, kind: str = "insert") -> dict[str, Any]:
        """Send one batch: packed when the rows are 2-d int64, else as lists."""
        packed = pack_rows(rows)
        if packed is None and isinstance(rows, np.ndarray):
            rows = rows.tolist()
        return self.check(
            "ingest", relation=relation, rows=rows if packed is None else packed, kind=kind
        )

    def query(
        self,
        name: str,
        policy: str | None = None,
        mode: str | None = None,
    ) -> dict[str, Any]:
        fields: dict[str, Any] = {"name": name}
        if policy is not None:
            fields["policy"] = policy
        if mode is not None:
            fields["mode"] = mode
        return self.check("query", **fields)

    def stats(self) -> dict[str, Any]:
        return self.check("stats")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
