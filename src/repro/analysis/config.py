"""Per-rule configuration: shipped defaults + ``pyproject.toml`` overrides.

Every rule reads one mapping keyed by its kebab-case name.  The shipped
defaults below describe *this* repository (which paths must stay
deterministic, which modules hold the lock-ordered code); a
``[tool.repro-analysis]`` table in ``pyproject.toml`` can override any
of it per project::

    [tool.repro-analysis]
    select = ["REP003", "REP004"]          # run only these rules
    baseline = "analysis-baseline.json"

    [tool.repro-analysis.shard-safety]
    deterministic-paths = ["repro/core", "repro/sharding"]

TOML parsing uses :mod:`tomllib` (Python 3.11+); on 3.10 the shipped
defaults apply and pyproject overrides are ignored (the CI gate runs on
3.12, so the enforced configuration is always the merged one).
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any, Mapping

__all__ = ["DEFAULT_CONFIG", "load_config"]

#: Shipped per-rule defaults (rule name -> option mapping), plus the
#: engine-level keys ``select`` / ``ignore`` / ``baseline``.
DEFAULT_CONFIG: dict[str, Any] = {
    "select": [],  # empty = every registered rule
    "ignore": [],
    "baseline": "analysis-baseline.json",
    "shard-safety": {
        # Library paths that must stay deterministic: no wall-clock time,
        # no unseeded RNG (answer parity across shard replays depends on
        # it).  Matched as prefixes of the project-relative posix path.
        "deterministic-paths": [
            "src/repro/core",
            "src/repro/histograms",
            "src/repro/sampling",
            "src/repro/sharding",
            "src/repro/sketches",
            "src/repro/streams",
            "src/repro/wavelets",
        ],
    },
    "numeric-hygiene": {},
    "observer-protocol": {
        # Base classes whose subclasses must honour the observer protocol.
        "base-classes": ["StreamObserver"],
        # Methods that must never mutate observer/engine state.
        "read-only-methods": ["answer", "estimate", "state_dict"],
    },
    "executor-protocol": {
        # Base classes whose subclasses must honour the executor protocol.
        "base-classes": ["ShardExecutor"],
        # Methods every executor must implement itself (the base raises
        # NotImplementedError; broadcast/close have usable defaults).
        "required-methods": ["start", "call", "scatter"],
        # Protocol parameter names (after self) an override must keep, so
        # keyword call sites stay valid for every executor.
        "signatures": {
            "start": ["num_shards", "seed", "telemetry"],
            "call": ["shard", "method", "*args", "**kwargs"],
            "broadcast": ["method", "*args", "**kwargs"],
            "scatter": ["method", "per_shard"],
            "close": [],
        },
        # Executor dispatch (.call/.scatter/.broadcast on an executor
        # receiver) is only legitimate inside these layers; elsewhere it
        # bypasses journaling, partitioning, and degradation policy.
        "allowed-paths": ["src/repro/sharding", "src/repro/fleet"],
        "dispatch-methods": ["call", "scatter", "broadcast"],
    },
    "concurrency-discipline": {
        # Entry points the graph cannot discover statically: the HTTP
        # handler class is instantiated by socketserver per request, on
        # the metrics-server thread.
        "thread-roots": ["repro.obs.server._Handler"],
        # Telemetry objects every engine thread calls into concurrently;
        # all their methods count as concurrent entry points.
        "hot-path-classes": [
            "repro.obs.metrics.MetricsRegistry",
            "repro.obs.tracing.Tracer",
        ],
        # Modules where a lock-order inversion is reported (the repo's
        # multi-lock modules); inversions entirely outside are ignored.
        "lock-order-modules": [
            "src/repro/fleet/supervisor.py",
            "src/repro/obs/otel/export.py",
            "src/repro/obs/server.py",
        ],
    },
    "async-safety": {
        # Coroutine bodies under these prefixes must not block the loop.
        "paths": ["src/repro"],
        "extra-blocking": [],
    },
    "hot-path": {
        # Per-tuple hot-path methods: flag allocation-heavy idioms inside.
        "functions": ["on_op", "process", "_process_inner"],
        # Only methods defined under these path prefixes are checked.
        "paths": ["src/repro/streams"],
        # Batch coefficient-maintenance code: basis tables must come from
        # the repro.fastpath seam (Chebyshev recurrence / compiled
        # kernels), never per-entry trig evaluation.
        "kernel-paths": [
            "src/repro/core/join.py",
            "src/repro/core/range_query.py",
            "src/repro/core/synopsis.py",
            "src/repro/sketches",
            "src/repro/streams",
        ],
        # Calls that reintroduce a bypass of the seam in those paths.
        "kernel-calls": ["basis_matrix", "np.cos", "numpy.cos", "phi"],
        # The blessed kernel implementations themselves, exempt.
        "kernel-seam": ["src/repro/fastpath"],
    },
}


def _merge(base: dict[str, Any], override: Mapping[str, Any]) -> dict[str, Any]:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _load_pyproject_table(root: Path) -> dict[str, Any]:
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return {}
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - Python 3.10 fallback
        return {}
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-analysis", {})
    if not isinstance(table, dict):
        raise ValueError("[tool.repro-analysis] must be a table")
    return table


def load_config(root: Path, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Defaults, then ``pyproject.toml``, then explicit ``overrides``."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    config = _merge(config, _load_pyproject_table(root))
    if overrides:
        config = _merge(config, overrides)
    return config
