"""The sharded continuous-query engine: partitioned ingest, merged answers.

:class:`ShardedStreamEngine` presents the same relation / query / answer
surface as :class:`~repro.streams.engine.StreamEngine`, but hash-
partitions every relation's rows across ``num_shards`` independent
engines (each with its own telemetry registry and checkpoint directory)
behind a :class:`~repro.sharding.executor.ShardExecutor`.

Answering works per method family (see :mod:`repro.sharding.merge`):

* mergeable methods collect each shard's observer ``state_dict()``,
  sum them into a *template* engine's synopses (registered over the same
  specs and seed, so sign families and geometry match), and run the
  template's unchanged estimate closure — one code path for equi-joins,
  multi-joins, range and band queries alike;
* coordinator methods (``sample``, ``partitioned_sketch``, ``wavelet``)
  answer from a coordinator-resident replica that observed the full
  stream in arrival order, bit-identical to the unsharded engine;
* exact answers reduce the shards' exact tensors (cell-disjoint by
  construction) into the template and reuse its ground-truth path.

Per-shard checkpoints write one rotated
:class:`~repro.resilience.checkpoint.CheckpointStore` per shard plus a
fleet manifest; a crashed shard restores alone via
:meth:`ShardedStreamEngine.restore_shard` while the remaining shards
keep their live state.

Distributed tracing: the fleet owns a coordinator
:class:`~repro.obs.tracing.Tracer` whose ``ingest_batch`` / ``estimate``
spans pre-announce their span ids as W3C ``traceparent`` headers; the
headers ride the executor fan-out so every shard's engine spans join the
same trace, parented under the coordinator span that caused them.
:meth:`ShardedStreamEngine.drain_spans` collects the whole fleet's spans
(tagged per-shard) for :mod:`repro.obs.otel` export.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence, cast

import numpy as np
from numpy.typing import NDArray

from ..obs import catalog
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..obs.tracing import SpanEvent, Tracer
from ..resilience.checkpoint import (
    CheckpointStore,
    domain_from_spec,
    domain_to_spec,
)
from ..resilience.deadletter import (
    DeadLetter,
    DeadLetterBuffer,
    ReplayReport,
    validate_rows,
)
from ..resilience.errors import CheckpointError, DegradedQueryError
from ..streams.engine import StreamEngine
from ..streams.queries import JoinQuery
from ..streams.tuples import OpKind
from .executor import ShardError, ShardExecutor, resolve_executor
from .merge import COORDINATOR_METHODS, MERGEABLE_METHODS, merge_observer_states
from .partition import split_rows

__all__ = ["PartialAnswer", "ShardedStreamEngine"]

_MANIFEST_NAME = "fleet-manifest.json"


@dataclass(frozen=True)
class PartialAnswer:
    """A query answer that may be missing crashed shards' contributions.

    ``raw_value`` is the merged estimate over the surviving shards only;
    ``value`` scales it by ``total_shards / surviving_shards`` — a valid
    first-order correction because hash partitioning spreads every join
    key's tuples (and hence the additive per-shard contributions) evenly
    across shards in expectation.  ``degraded`` is True whenever any
    shard's contribution is missing, so callers can surface the widened
    uncertainty instead of silently serving a partial count.
    """

    value: float
    raw_value: float
    surviving_shards: int
    total_shards: int
    missing_shards: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.surviving_shards < self.total_shards

    def as_dict(self) -> dict[str, object]:
        return {
            "value": self.value,
            "raw_value": self.raw_value,
            "surviving_shards": self.surviving_shards,
            "total_shards": self.total_shards,
            "missing_shards": list(self.missing_shards),
            "degraded": self.degraded,
        }


class _RelationMeta:
    """Fleet-side schema record for one partitioned relation."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        domains: Sequence[Any],
        partition_axis: int,
    ) -> None:
        self.name = name
        self.attributes = tuple(attributes)
        self.domains = tuple(domains)
        self.partition_axis = partition_axis


class _QueryMeta:
    """Fleet-side record of one registered query."""

    def __init__(self, name: str, spec: dict[str, Any], coordinator: bool) -> None:
        self.name = name
        self.spec = spec
        self.coordinator = coordinator


class ShardedStreamEngine:
    """Hash-partitioned fleet of stream engines with merged answers."""

    def __init__(
        self,
        num_shards: int = 4,
        seed: int = 0,
        executor: str | ShardExecutor = "serial",
        telemetry: bool = True,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self._seed = seed
        self._telemetry_enabled = telemetry
        #: Coordinator tracer: fan-out spans recorded here hand their
        #: ``traceparent`` to the shards, linking the fleet's spans into
        #: one trace per fleet operation.
        self.tracer: Tracer | None = Tracer() if telemetry else None
        self._executor = resolve_executor(executor)
        self._executor.start(num_shards, seed, telemetry)
        self._relations: dict[str, _RelationMeta] = {}
        self._queries: dict[str, _QueryMeta] = {}
        #: Template engine: empty relations + mergeable query registrations,
        #: used to host merged synopsis state and reuse estimate closures.
        self._merge_engine = StreamEngine(seed=seed, telemetry=Telemetry.disabled())
        #: Full-stream replica for order-dependent methods; ``None`` until
        #: the first ``sample`` / ``partitioned_sketch`` query registers.
        self._coordinator: StreamEngine | None = None
        self._fault_policy: str | None = None
        #: Fleet-level dead-letter buffer (``None`` until
        #: :meth:`enable_dead_lettering`): malformed rows are quarantined
        #: *before* partitioning, so every shard only ever sees clean rows.
        self.dead_letters: DeadLetterBuffer | None = None
        #: Coordinator-side metrics (dead-letter accounting) merged into
        #: :meth:`fleet_metrics` alongside the shard registries.
        self._local_registry = MetricsRegistry()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # relations
    # ------------------------------------------------------------------ #

    def create_relation(
        self,
        name: str,
        attributes: Sequence[str],
        domains: Sequence[Any],
        partition_by: str | None = None,
    ) -> None:
        """Declare a relation on every shard, partitioned by one attribute.

        ``partition_by`` names the routing attribute (default: the first).
        Merged answers do not depend on the choice — synopsis merges are
        linear — but routing on the join attribute keeps each join key's
        tuples co-located, the layout a future shard-local join needs.
        """
        if name in self._relations:
            raise ValueError(f"relation {name!r} already exists")
        attributes = list(attributes)
        axis = 0 if partition_by is None else attributes.index(partition_by)
        self._merge_engine.create_relation(name, attributes, domains)
        specs = [domain_to_spec(d) for d in domains]
        self._executor.broadcast("create_relation", name, attributes, specs)
        if self._coordinator is not None:
            self._coordinator.create_relation(name, attributes, domains)
        self._relations[name] = _RelationMeta(name, attributes, domains, axis)

    def relation_names(self) -> list[str]:
        return list(self._relations)

    def total_count(self, relation_name: str) -> int:
        """Fleet-wide live tuple count of one relation."""
        if relation_name not in self._relations:
            raise KeyError(f"no relation named {relation_name!r}")
        return int(sum(self._executor.broadcast("relation_count", relation_name)))

    def merged_counts(self, relation_name: str) -> NDArray[Any]:
        """The relation's exact tensor, reduced across shards."""
        if self._coordinator is not None:
            return np.array(self._coordinator.relations[relation_name].counts)
        parts = self._executor.broadcast("relation_counts", relation_name)
        return np.asarray(np.sum(np.stack(parts), axis=0))

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    def ingest_batch(
        self,
        relation_name: str,
        rows: Sequence[Sequence[Any]] | NDArray[Any],
        kind: OpKind = OpKind.INSERT,
    ) -> None:
        """Partition a same-kind batch by routing hash and fan it out.

        The coordinator replica (when present) sees the whole batch first,
        in arrival order; each shard then applies its slice through the
        normal batched fast path.  Per-shard slices preserve the batch's
        relative order, so shard state is independent of batch framing.

        With :meth:`enable_dead_lettering` active, malformed rows are
        diverted into :attr:`dead_letters` *before* partitioning — the
        shards (and the coordinator replica) only ever ingest clean rows,
        so a poison row cannot crash a remote worker.
        """
        meta = self._relations[relation_name]
        relation = self._merge_engine.relations[relation_name]
        if self.dead_letters is not None:
            rows, rejects = validate_rows(relation, rows)
            if rejects:
                counter = self._local_registry.register(catalog.INGEST_DEAD_LETTERS)
                op_kind = kind.name.lower()
                for row, reason in rejects:
                    self.dead_letters.add(
                        DeadLetter(relation_name, row, op_kind, reason)
                    )
                    counter.labels(relation_name, reason).inc()
        arr = relation.rows_array(rows)
        if arr.shape[0] == 0:
            return
        span = (
            self.tracer.propagated_span(
                "ingest_batch", count=arr.shape[0], relation=relation_name, kind=kind.name
            )
            if self.tracer is not None
            else nullcontext(None)
        )
        with span as traceparent:
            if self._coordinator is not None:
                self._coordinator.ingest_batch(relation_name, arr, kind)
            parts = split_rows(arr, meta.partition_axis, self.num_shards)
            self._executor.scatter(
                "ingest",
                [
                    ((relation_name, part, kind), {"traceparent": traceparent})
                    if part.shape[0]
                    else None
                    for part in parts
                ],
            )

    def insert(self, relation_name: str, values: Sequence[Any]) -> None:
        self.ingest_batch(relation_name, [tuple(values)], OpKind.INSERT)

    def delete(self, relation_name: str, values: Sequence[Any]) -> None:
        self.ingest_batch(relation_name, [tuple(values)], OpKind.DELETE)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def register_query(
        self,
        name: str,
        query: JoinQuery,
        method: str = "cosine",
        budget: int = 200,
        **options: Any,
    ) -> None:
        """Register a continuous join-COUNT query across the fleet.

        Mergeable methods register on every shard (each replays its own
        slice of history); coordinator methods register on the full-stream
        replica, which is created — seeded with the merged exact tensors —
        on first use.
        """
        if method in COORDINATOR_METHODS:
            coordinator = True
        elif method in MERGEABLE_METHODS:
            coordinator = False
        else:
            raise ValueError(
                f"unknown method {method!r}; choose from "
                f"{sorted(MERGEABLE_METHODS | COORDINATOR_METHODS)}"
            )
        spec = {
            "kind": "join",
            "relations": list(query.relations),
            "predicates": [str(p) for p in query.predicates],
            "method": method,
            "budget": budget,
            "options": dict(options),
        }
        self._register_spec(name, spec, coordinator)

    def register_range_query(
        self, name: str, relation_name: str, attribute: str, low: Any, high: Any,
        budget: int = 200, **options: Any,
    ) -> None:
        """Register a range-COUNT query (cosine marginal; always mergeable)."""
        spec = {
            "kind": "range",
            "relation": relation_name,
            "attribute": attribute,
            "low": low,
            "high": high,
            "budget": budget,
            "options": dict(options),
        }
        self._register_spec(name, spec, coordinator=False)

    def register_band_query(
        self, name: str, left: tuple[str, str], right: tuple[str, str],
        width: int, budget: int = 200, **options: Any,
    ) -> None:
        """Register a band-join COUNT query (cosine marginals; mergeable)."""
        spec = {
            "kind": "band",
            "left": list(left),
            "right": list(right),
            "width": width,
            "budget": budget,
            "options": dict(options),
        }
        self._register_spec(name, spec, coordinator=False)

    def register_query_spec(self, name: str, spec: dict[str, Any]) -> None:
        """Register a query from its serialized spec (the wire/manifest form).

        Accepts the same ``{"kind": "join" | "range" | "band", ...}``
        dictionaries the fleet manifest and the serve daemon's newline-JSON
        protocol carry, deriving the coordinator/mergeable placement from
        the method exactly as :meth:`register_query` does.
        """
        kind = spec.get("kind")
        if kind == "join":
            method = str(spec.get("method", "cosine"))
            if method in COORDINATOR_METHODS:
                coordinator = True
            elif method in MERGEABLE_METHODS:
                coordinator = False
            else:
                raise ValueError(
                    f"unknown method {method!r}; choose from "
                    f"{sorted(MERGEABLE_METHODS | COORDINATOR_METHODS)}"
                )
        elif kind in ("range", "band"):
            coordinator = False
        else:
            raise ValueError(
                f"unknown query kind {kind!r}; choose from 'join', 'range', 'band'"
            )
        self._register_spec(name, dict(spec), coordinator)

    def _register_spec(self, name: str, spec: dict[str, Any], coordinator: bool) -> None:
        if name in self._queries:
            raise ValueError(f"query {name!r} already registered")
        if coordinator:
            self._ensure_coordinator()
            assert self._coordinator is not None
            self._coordinator._register_from_spec(name, spec)
        else:
            # The template registration validates the spec before any shard
            # sees it, and builds the observers merged state is loaded into.
            self._merge_engine._register_from_spec(name, spec)
            self._executor.broadcast("register_query", name, spec)
        self._queries[name] = _QueryMeta(name, spec, coordinator)

    def _ensure_coordinator(self) -> None:
        if self._coordinator is not None:
            return
        coordinator = StreamEngine(
            seed=self._seed,
            telemetry=(
                Telemetry(tracing=False)
                if self._telemetry_enabled
                else Telemetry.disabled()
            ),
            shard="coordinator",
        )
        for meta in self._relations.values():
            relation = coordinator.create_relation(
                meta.name, meta.attributes, meta.domains
            )
            merged = self.merged_counts(meta.name) if self.num_shards else None
            if merged is not None and merged.sum() > 0:
                relation.load_counts(merged)
        if self._fault_policy is not None:
            coordinator.enable_fault_isolation(self._fault_policy)
        self._coordinator = coordinator

    def unregister_query(self, name: str) -> None:
        meta = self._queries.pop(name, None)
        if meta is None:
            raise KeyError(f"no query named {name!r}")
        if meta.coordinator:
            assert self._coordinator is not None
            self._coordinator.unregister_query(name)
        else:
            self._merge_engine.unregister_query(name)
            self._executor.broadcast("unregister_query", name)

    def query_names(self) -> list[str]:
        return list(self._queries)

    # ------------------------------------------------------------------ #
    # answers
    # ------------------------------------------------------------------ #

    def answer(self, name: str) -> float:
        """Current fleet estimate of a registered query.

        Coordinator-method queries answer from the replica; mergeable
        queries merge per-shard synopsis state into the template and run
        its estimate closure.  A query degraded on *any* shard follows the
        :meth:`enable_fault_isolation` policy (raise / NaN / exact),
        leaving every other query untouched.
        """
        meta = self._queries[name]
        if meta.coordinator:
            assert self._coordinator is not None
            return float(self._coordinator.answer(name))
        method = str(meta.spec.get("method", meta.spec.get("kind", "")))
        span = (
            self.tracer.propagated_span("estimate", query=name, method=method)
            if self.tracer is not None
            else nullcontext(None)
        )
        with span as traceparent:
            replies = self._executor.broadcast("query_observers", name, traceparent)
            return self._merge_answer(name, replies)

    def _merge_answer(self, name: str, replies: list[Any]) -> float:
        degraded = {
            shard: reason for shard, (reason, _) in enumerate(replies) if reason
        }
        if degraded:
            shard, reason = next(iter(degraded.items()))
            policy = self._fault_policy or "raise"
            if policy == "raise":
                raise DegradedQueryError(name, f"shard {shard}: {reason}")
            if policy == "nan":
                return float("nan")
            return self.exact_answer(name)
        state = self._merge_engine._queries[name]
        self._load_merged_states(state, replies)
        return float(state.estimate())

    def _load_merged_states(self, state: Any, replies: list[Any]) -> None:
        """Sum per-shard observer states into the template's observers."""
        per_observer = zip(*[states for _, states in replies])
        for (_, observer), states in zip(state.attachments, per_observer):
            observer.load_state(merge_observer_states(list(states)))

    def answers(self) -> dict[str, float]:
        return {name: self.answer(name) for name in self._queries}

    def answer_partial(self, name: str) -> PartialAnswer:
        """Answer from whichever shards still respond, flagged and scaled.

        The graceful-degradation path for fleets that have lost shards
        beyond recovery (a :class:`~repro.fleet.supervisor.ShardSupervisor`
        past ``max_restarts``, or any executor raising
        :class:`~repro.sharding.executor.ShardError`): each shard is asked
        individually, unreachable or per-query-degraded shards are
        dropped, and the survivors' merged estimate is scaled by
        ``total / surviving`` (see :class:`PartialAnswer` for why that is
        the right first-order correction under hash partitioning).

        Coordinator-method queries answer from the replica, which no
        shard crash can touch, so they come back undegraded.  A query
        with *no* surviving shard raises
        :class:`~repro.resilience.errors.DegradedQueryError`.
        """
        meta = self._queries[name]
        if meta.coordinator:
            assert self._coordinator is not None
            value = float(self._coordinator.answer(name))
            return PartialAnswer(value, value, self.num_shards, self.num_shards)
        method = str(meta.spec.get("method", meta.spec.get("kind", "")))
        span = (
            self.tracer.propagated_span(
                "estimate_partial", query=name, method=method
            )
            if self.tracer is not None
            else nullcontext(None)
        )
        with span as traceparent:
            survivors: dict[int, Any] = {}
            missing: list[int] = []
            for shard in range(self.num_shards):
                try:
                    reason, states = self._executor.call(
                        shard, "query_observers", name, traceparent
                    )
                except ShardError:
                    missing.append(shard)
                    continue
                if reason:
                    # Answered, but this query is quarantined on that
                    # shard: its synopsis state is unusable, same as lost.
                    missing.append(shard)
                else:
                    survivors[shard] = states
            if not survivors:
                raise DegradedQueryError(name, "no surviving shards")
            state = self._merge_engine._queries[name]
            per_observer = zip(*survivors.values())
            for (_, observer), states in zip(state.attachments, per_observer):
                observer.load_state(merge_observer_states(list(states)))
            raw = float(state.estimate())
        scale = self.num_shards / len(survivors)
        return PartialAnswer(
            raw * scale, raw, len(survivors), self.num_shards, tuple(missing)
        )

    def estimate(self, name: str, mode: str = "answer") -> float:
        """Answer one query in a chosen estimation mode (fleet surface).

        Mirrors :meth:`repro.streams.engine.StreamEngine.estimate`:
        ``"answer"`` is the merged point estimate, ``"upper_bound"`` the
        guaranteed degree-sequence bound, ``"clamped"`` their minimum.
        The bound modes require ``bounds=True`` at registration.
        """
        if mode == "answer":
            return self.answer(name)
        if mode not in ("upper_bound", "clamped"):
            raise ValueError(
                f"unknown estimation mode {mode!r}; "
                "choose from 'answer', 'upper_bound', 'clamped'"
            )
        if mode == "upper_bound":
            return self._merged_upper_bound(name)
        report = self.bound_report(name)
        if report is None:
            raise ValueError(
                f"query {name!r} was not registered with bounds=True; "
                f"mode {mode!r} needs degree statistics"
            )
        return float(report["clamped"])

    def _merged_upper_bound(self, name: str) -> float:
        """The fleet bound alone: no point estimate is computed, so it
        works even where the method's estimator cannot answer yet."""
        meta = self._queries[name]
        if meta.coordinator:
            assert self._coordinator is not None
            return float(self._coordinator.estimate(name, mode="upper_bound"))
        state = self._merge_engine._queries[name]
        if state.bound_calc is None:
            raise ValueError(
                f"query {name!r} was not registered with bounds=True; "
                "mode 'upper_bound' needs degree statistics"
            )
        replies = self._executor.broadcast("query_observers", name, None)
        if any(reason for reason, _ in replies):
            return float("nan")
        self._load_merged_states(state, replies)
        return float(state.bound_calc.upper_bound())

    def bound_report(self, name: str) -> dict[str, Any] | None:
        """Bound metadata for one query, or ``None`` when bounds are off.

        Coordinator-method queries delegate to the full-stream replica.
        Mergeable queries sum per-shard degree vectors (exact ``int64``
        sums, see :mod:`repro.sharding.merge`) into the template engine,
        so the fleet bound is *identical* to a single unsharded engine's
        — the parity the sharded soundness tests pin down.  A query
        degraded on any shard answers per the fault policy and reports a
        NaN bound (its degree state on that shard is unusable).
        """
        meta = self._queries[name]
        if meta.coordinator:
            assert self._coordinator is not None
            return cast("dict[str, Any] | None", self._coordinator.bound_report(name))
        state = self._merge_engine._queries[name]
        if state.bound_calc is None:
            return None
        replies = self._executor.broadcast("query_observers", name, None)
        estimate = self._merge_answer(name, replies)
        if any(reason for reason, _ in replies):
            return {
                "estimate": estimate,
                "upper_bound": float("nan"),
                "clamped": estimate,
                "clamp_fired": False,
            }
        # _merge_answer loaded every observer's merged state — including
        # the degree sketches the template's calculator reads.
        bound = float(state.bound_calc.upper_bound())
        clamped = estimate if estimate <= bound else bound
        fired = bool(estimate > bound)
        if fired:
            self._local_registry.register(catalog.BOUND_CLAMPS).labels(name).inc()
        tightness = 1.0 if bound <= 0 else min(1.0, max(clamped, 0.0) / bound)
        self._local_registry.register(catalog.BOUND_TIGHTNESS).labels(name).set(tightness)
        return {
            "estimate": estimate,
            "upper_bound": bound,
            "clamped": clamped,
            "clamp_fired": fired,
        }

    def exact_answer(self, name: str) -> float:
        """Ground-truth answer from the merged exact tensors."""
        meta = self._queries[name]
        if meta.coordinator:
            assert self._coordinator is not None
            return float(self._coordinator.exact_answer(name))
        template = self._merge_engine
        saved: dict[str, tuple[Any, Any]] = {}
        for rel_name, relation in template.relations.items():
            saved[rel_name] = (relation.counts, relation._count)
            merged = self.merged_counts(rel_name)
            relation.counts = merged
            relation._count = int(merged.sum())
        try:
            return float(template.exact_answer(name))
        finally:
            for rel_name, (counts, count) in saved.items():
                relation = template.relations[rel_name]
                relation.counts = counts
                relation._count = count

    # ------------------------------------------------------------------ #
    # fault isolation
    # ------------------------------------------------------------------ #

    def enable_fault_isolation(self, policy: str = "raise") -> None:
        """Quarantine throwing observers shard-locally (fleet-wide policy)."""
        if policy not in ("raise", "nan", "exact"):
            raise ValueError(
                f"unknown degraded-answer policy {policy!r}; "
                "choose from 'raise', 'nan', 'exact'"
            )
        self._fault_policy = policy
        self._executor.broadcast("enable_fault_isolation", policy)
        if self._coordinator is not None:
            self._coordinator.enable_fault_isolation(policy)

    def enable_dead_lettering(self, capacity: int = 1024) -> DeadLetterBuffer:
        """Quarantine malformed rows fleet-side instead of raising.

        Validation runs on the coordinator before partitioning (see
        :meth:`ingest_batch`); rejected rows land in the returned
        :class:`~repro.resilience.deadletter.DeadLetterBuffer` (also
        available as :attr:`dead_letters`), counted per relation and
        reason in ``repro_ingest_dead_letters_total``.
        """
        self.dead_letters = DeadLetterBuffer(capacity)
        return self.dead_letters

    def replay_dead_letters(self) -> ReplayReport:
        """Re-validate and re-ingest every buffered dead letter.

        Rows that are now clean flow through the normal partitioned
        ingest; rows that are still malformed land back in
        :attr:`dead_letters`.  Raises ``ValueError`` when dead-lettering
        was never enabled.
        """
        if self.dead_letters is None:
            raise ValueError(
                "dead-lettering is not enabled (call enable_dead_lettering() first)"
            )
        return self.dead_letters.replay(self)

    def degraded_queries(self) -> dict[str, dict[int, str]]:
        """Degraded queries mapped to ``{shard_index: reason}``."""
        out: dict[str, dict[int, str]] = {}
        for shard, shard_map in enumerate(self._executor.broadcast("degraded_queries")):
            for query, reason in shard_map.items():
                out.setdefault(query, {})[shard] = reason
        if self._coordinator is not None:
            for query, reason in self._coordinator.degraded_queries().items():
                out.setdefault(query, {})[-1] = reason
        return out

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def fleet_metrics(self) -> MetricsRegistry:
        """All shard registries (plus the coordinator's) merged into one.

        Unlabelled counters sum into fleet totals; ``shard``-labelled
        families keep one child per shard, the layout fleet dashboards
        aggregate over (see :meth:`repro.obs.metrics.MetricsRegistry.merge`).
        """
        merged = MetricsRegistry()
        for registry in self._executor.broadcast("registry"):
            merged.merge(registry)
        if self._coordinator is not None:
            merged.merge(self._coordinator.telemetry.registry)
        merged.merge(self._local_registry)
        supervisor_registry = getattr(self._executor, "metrics_registry", None)
        if isinstance(supervisor_registry, MetricsRegistry):
            merged.merge(supervisor_registry)
        return merged

    def shard_stats(self) -> list[dict[str, Any]]:
        """Each shard's ``EngineStats.as_dict()`` snapshot, in shard order."""
        return self._executor.broadcast("stats_dict")

    def drain_spans(self) -> list[tuple[dict[str, str], list[SpanEvent]]]:
        """The whole fleet's undelivered spans, grouped by origin.

        Returns ``(resource attributes, events)`` groups — the
        coordinator tracer's fan-out spans under ``shard="coordinator"``,
        then each shard's engine spans under its index — exactly the
        shape :class:`repro.obs.otel.OtelPushLoop` exports, so every span
        is shipped once with the resource telling collectors where it
        ran.  Empty groups are omitted.
        """
        groups: list[tuple[dict[str, str], list[SpanEvent]]] = []
        if self.tracer is not None:
            events = self.tracer.drain()
            if events:
                groups.append(({"shard": "coordinator"}, events))
        for shard, events in enumerate(self._executor.broadcast("drain_spans")):
            if events:
                groups.append(({"shard": str(shard)}, events))
        return groups

    # ------------------------------------------------------------------ #
    # checkpoint / recovery
    # ------------------------------------------------------------------ #

    def _shard_dir(self, directory: str | Path, shard: int) -> Path:
        return Path(directory) / f"shard-{shard:02d}"

    def save_checkpoints(self, directory: str | Path, keep: int = 3) -> list[str]:
        """Checkpoint every shard (and the coordinator) independently.

        Each shard rotates its own ``shard-NN/checkpoint-*.ckpt`` store;
        a JSON fleet manifest records the partitioning and query layout so
        :meth:`restore` can rebuild the fleet.  Returns the written paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = self._executor.scatter(
            "save_checkpoint",
            [
                ((str(self._shard_dir(directory, shard)),), {"keep": keep})
                for shard in range(self.num_shards)
            ],
        )
        if self._coordinator is not None:
            store = CheckpointStore(directory / "coordinator", keep=keep)
            paths.append(str(store.save(self._coordinator)))
        manifest = {
            "version": 1,
            "num_shards": self.num_shards,
            "seed": self._seed,
            "fault_policy": self._fault_policy,
            "dead_letter_capacity": (
                None if self.dead_letters is None else self.dead_letters.capacity
            ),
            "has_coordinator": self._coordinator is not None,
            "relations": [
                {
                    "name": meta.name,
                    "attributes": list(meta.attributes),
                    "domains": [domain_to_spec(d) for d in meta.domains],
                    "partition_axis": meta.partition_axis,
                }
                for meta in self._relations.values()
            ],
            "queries": [
                {"name": meta.name, "spec": meta.spec, "coordinator": meta.coordinator}
                for meta in self._queries.values()
            ],
        }
        (directory / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
        return [p for p in paths if p is not None]

    def restore_shard(self, shard: int, directory: str | Path) -> str:
        """Reload one crashed shard from its own newest checkpoint.

        Only that shard's engine is replaced; every other shard keeps its
        live state, so recovery cost is one shard's checkpoint, not the
        fleet's.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range for {self.num_shards} shards")
        return str(
            self._executor.call(
                shard, "load_latest_checkpoint", str(self._shard_dir(directory, shard))
            )
        )

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        executor: str | ShardExecutor = "serial",
        telemetry: bool = True,
    ) -> "ShardedStreamEngine":
        """Rebuild a fleet from :meth:`save_checkpoints` output.

        The manifest recreates the fleet layout (shard count, partition
        axes, query specs); each shard then restores from its own store,
        and the coordinator replica (if any) from ``coordinator/``.
        """
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read fleet manifest {manifest_path}: {exc}"
            ) from exc
        engine = cls(
            num_shards=int(manifest["num_shards"]),
            seed=int(manifest["seed"]),
            executor=executor,
            telemetry=telemetry,
        )
        for rel in manifest["relations"]:
            domains = [domain_from_spec(s) for s in rel["domains"]]
            engine._merge_engine.create_relation(rel["name"], rel["attributes"], domains)
            engine._relations[rel["name"]] = _RelationMeta(
                rel["name"], rel["attributes"], domains, int(rel["partition_axis"])
            )
        engine._executor.scatter(
            "load_latest_checkpoint",
            [
                ((str(engine._shard_dir(directory, shard)),), {})
                for shard in range(engine.num_shards)
            ],
        )
        if manifest.get("has_coordinator"):
            store = CheckpointStore(directory / "coordinator")
            latest = store.latest()
            if latest is None:
                raise CheckpointError(f"no coordinator checkpoints in {directory}")
            engine._coordinator = StreamEngine.load_checkpoint(
                latest,
                telemetry=(
                    Telemetry(tracing=False) if telemetry else Telemetry.disabled()
                ),
                shard="coordinator",
            )
        for entry in manifest["queries"]:
            if not entry["coordinator"]:
                engine._merge_engine._register_from_spec(entry["name"], entry["spec"])
            engine._queries[entry["name"]] = _QueryMeta(
                entry["name"], entry["spec"], entry["coordinator"]
            )
        if manifest.get("fault_policy") is not None:
            engine._fault_policy = manifest["fault_policy"]
        if manifest.get("dead_letter_capacity") is not None:
            # The buffer's *contents* are not checkpointed (letters are a
            # quarantine, not state); only the guard itself is restored.
            engine.enable_dead_lettering(int(manifest["dead_letter_capacity"]))
        return engine

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStreamEngine(shards={self.num_shards}, "
            f"executor={type(self._executor).__name__}, "
            f"relations={len(self._relations)}, queries={len(self._queries)})"
        )
