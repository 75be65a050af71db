"""Importing the stream engine leaves heavy optional modules unloaded.

scipy (the DCT cross-check), ``http.server`` (the metrics endpoint),
``urllib.request`` (OTLP push) and asyncio (the serve daemon) are each
imported by the one function or class that needs them.  Every serve
daemon and shard worker imports the package, so these dependencies would
otherwise cost each process their import time and resident memory.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
DEFERRED = ("scipy", "ssl", "http.server", "urllib.request", "asyncio")


def loaded_after(statement: str) -> list[str]:
    probe = (
        f"import sys; {statement}; "
        f"print(','.join(m for m in {DEFERRED!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    return [m for m in result.stdout.strip().split(",") if m]


def test_import_streams_leaves_deferred_modules_out():
    assert loaded_after("import repro.streams") == []


def test_import_fleet_and_obs_leaves_deferred_modules_out():
    assert loaded_after("import repro.fleet, repro.obs, repro.sharding") == []


def test_deferred_names_still_resolve():
    assert loaded_after(
        "from repro.fleet import FleetServer; from repro.obs import MetricsServer"
    ) == ["ssl", "http.server", "asyncio"]
