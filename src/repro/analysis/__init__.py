"""``repro.analysis``: the repository's own static-analysis pass.

The estimator/sharding/resilience stack rests on conventions no
off-the-shelf linter checks: functions dispatched through process shards
must stay picklable and deterministic, estimator math must never compare
floats with ``==``, observers must honour the batch protocol, and
thread- or loop-reachable code must keep its lock and async discipline.
(Metric names and checkpoint state hold by construction instead: see
:mod:`repro.obs.catalog` and :mod:`repro.core.stateful`.)  This package
turns those conventions into
CI-enforced invariants: a small AST-walking rule engine
(:mod:`repro.analysis.runner`) with per-rule configuration
(:mod:`repro.analysis.config`), inline ``# repro: noqa[CODE]``
suppressions, a baseline file (:mod:`repro.analysis.baseline`), and
text / JSON / SARIF reporters (:mod:`repro.analysis.reporters`).

Run it as ``python -m repro.analysis [paths]`` or ``make analyze``; the
rule catalog lives in :mod:`repro.analysis.rules` and is documented in
``docs/STATIC_ANALYSIS.md``.  The package is deliberately stdlib-only and
fully type-annotated — it is the ``mypy --strict`` beachhead for the rest
of the codebase.
"""

from __future__ import annotations

from .core import Finding, SourceFile, SourceTree
from .rules import ALL_RULES, Rule
from .runner import AnalysisReport, run_analysis

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "Rule",
    "SourceFile",
    "SourceTree",
    "run_analysis",
]
