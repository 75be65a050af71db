"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload append_ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, from a traced run.  A table of
every metric (plus the failed fraction and any failed check) comes first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.  The program is imported from the
checkout's ``src/``; without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("append_ingest", "window_chain", "serve_fleet")
#: Measured and printed, but not in ``BENCHMARK.json``: ``failed_frac`` is 0
#: on a correct run; the p95s, and the median answer that falls between the
#: methods' clusters, move between runs by more than the benchmark's bounds
#: (see README.md, End-to-end metrics).
PRINTED_ONLY = {
    "failed_frac": "ratio",
    "answer_p50_ms": "ms",
    "batch_p95_ms": "ms",
    "answer_p95_ms": "ms",
    "tick_p95_ms": "ms",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from there only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program source at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro was imported from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        _import_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from perfbench.daemon import DaemonError
    from perfbench.workloads import run_workload

    try:
        values, tally = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT
        )
    except DaemonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value measured for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics: dict[str, Any] = {}
    for m in wanted:
        value = values[m["name"]]
        tally.check(math.isfinite(value), f"{m['name']} was not measured")
        metrics[m["name"]] = {"value": value if math.isfinite(value) else 0.0, "unit": m["unit"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_ONLY)
    for name in sorted(values):
        print(f"{name:<52} {values[name]:>16.6g} {units.get(name, '')}")
    print(f"{'attempted':<52} {tally.attempted:>16d}")
    print(f"{'failed':<52} {tally.failed:>16d}")
    for problem in tally.problems:
        print(f"check failed: {problem}")
    correct = tally.correct
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _terminate(signum: int, frame: Any) -> None:
    # Unwind through every ``finally``, which stops the serve daemon.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    raise SystemExit(main())
