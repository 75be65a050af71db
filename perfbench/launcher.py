"""Run a ``repro-experiments`` command with the benchmark's span wrappers installed.

Usage: ``python perfbench/launcher.py SPANS_OUT serve --shards 2``

The wrappers of :mod:`perfbench.spans` are installed before the CLI starts;
forked shard workers drop them again, so only the daemon process records.
When the command returns (the daemon exits on SIGINT), the spans are
written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import Recorder, spans_to_json  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    recorder = Recorder()
    recorder.install()
    os.register_at_fork(after_in_child=recorder.uninstall)
    from repro.experiments.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        partial = out.with_suffix(".partial")
        partial.write_text(json.dumps(spans_to_json(recorder.spans)))
        partial.replace(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
