"""The rule catalog: one class per repository invariant.

Every rule subclasses :class:`Rule` and implements
``check(tree, config) -> list[Finding]`` over the whole
:class:`~repro.analysis.core.SourceTree`; per-file rules simply loop.
REP008 and REP011 go further and query the shared
:class:`~repro.analysis.graph.ProjectGraph` (import graph, class
hierarchy, call graph) for whole-program invariants.  ``ALL_RULES`` is
the registry the runner and ``--list-rules`` consume; codes are stable
public API (they appear in ``# repro: noqa[...]`` comments and
baselines), so new rules append codes rather than renumbering, and the
codes of deleted rules (REP001, REP002, REP009, REP010) are not reused.
"""

from __future__ import annotations

from .async_safety import AsyncSafetyRule
from .base import Rule
from .concurrency import ConcurrencyDisciplineRule
from .executors import ExecutorProtocolRule
from .hotpath import HotPathPurityRule
from .numerics import NumericHygieneRule
from .observers import ObserverProtocolRule
from .sharding import ShardSafetyRule

__all__ = [
    "ALL_RULES",
    "AsyncSafetyRule",
    "ConcurrencyDisciplineRule",
    "ExecutorProtocolRule",
    "HotPathPurityRule",
    "NumericHygieneRule",
    "ObserverProtocolRule",
    "Rule",
    "ShardSafetyRule",
]

#: Registry order is report order for equal locations; codes must be unique.
ALL_RULES: tuple[Rule, ...] = (
    ShardSafetyRule(),
    NumericHygieneRule(),
    ObserverProtocolRule(),
    HotPathPurityRule(),
    ExecutorProtocolRule(),
    ConcurrencyDisciplineRule(),
    AsyncSafetyRule(),
)
