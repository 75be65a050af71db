"""The benchmark's three workloads, driven through the public API only.

* ``append_ingest`` — insert-only batches into one in-process engine that
  holds all seven methods: the observer kernels and the exact-tensor
  scatter do nearly all the work; no answers run inside the timed loop.
* ``window_chain`` — a 32-tick sliding window over a two-join chain, with
  deletes and an answer of every query on every tick (closed loop).
* ``serve_fleet`` — the ``serve`` daemon with two socket shard workers,
  driven by one :class:`~repro.fleet.FleetClient` in a closed loop, all
  four processes on one CPU.

Inputs come from the ``seed`` argument only, as Zipf(1.3) values
``(zipf - 1) mod domain``, and are generated before timing.  Engine seeds,
sizes and budgets are constants, so a new seed changes the inputs and
nothing else.  Each loop pauses its clock for the output checks, at fixed
points of the stream, so every run checks the same prefix of its inputs.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.core.normalization import Domain
from repro.fleet import FleetClient
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind

from . import checks
from .daemon import ServeDaemon
from .spans import ENTRY_POINTS, METHODS, Recorder, Span, aggregate, in_windows
from .spans import observer_busy, spans_from_json, top_level_seconds

ZIPF_EXPONENT = 1.3
BUDGET = 200
#: Engine and daemon seed.  Fixed: the ``--seed`` argument changes inputs only.
ENGINE_SEED = 0
SAMPLE_PROBABILITY = 0.1
#: Set-ups per untraced run; ``setup_s`` is their median.
IN_PROCESS_SETUPS = 25
SERVE_SETUPS = 5

Rows = NDArray[np.int64]


def zipf_values(rng: np.random.Generator, size: int, domain: int) -> Rows:
    return ((rng.zipf(ZIPF_EXPONENT, size=size) - 1) % domain).astype(np.int64)


def method_options(method: str) -> dict[str, Any]:
    return {"probability": SAMPLE_PROBABILITY} if method == "sample" else {}


def distinct_fraction(rows: Rows) -> float:
    return len(np.unique(rows, axis=0)) / len(rows)


class Clock:
    """The timed windows of a loop that pauses its clock for checks."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.windows: list[tuple[float, float]] = []
        self._closed = 0.0
        self._start: float | None = None

    def resume(self) -> None:
        self._start = perf_counter()

    def pause(self) -> None:
        assert self._start is not None
        end = perf_counter()
        self.windows.append((self._start, end))
        self._closed += end - self._start
        self._start = None

    @property
    def elapsed(self) -> float:
        running = 0.0 if self._start is None else perf_counter() - self._start
        return self._closed + running

    def running(self) -> bool:
        return self.elapsed < self.seconds


@dataclass
class Run:
    """What one workload phase measured."""

    clock: Clock
    tally: checks.Tally = field(default_factory=checks.Tally)
    tuples: int = 0
    setup_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    answer_s: list[float] = field(default_factory=list)
    tick_s: list[float] = field(default_factory=list)
    #: Relative error per method at the fixed check points.
    rel_errs: dict[str, list[float]] = field(default_factory=dict)
    #: Distinct-row fraction of every insert batch sent in the timed loop.
    distinct: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Traced phase only: spans of the process that holds the synopses,
    #: and the engine's own per-method observer seconds.
    spans: list[Span] = field(default_factory=list)
    observer_s: dict[str, float] = field(default_factory=dict)

    @property
    def tps(self) -> float:
        elapsed = self.clock.elapsed
        return self.tuples / elapsed if elapsed else float("nan")

    def timed(
        self, samples: list[float], op: Callable[[], Any], what: str
    ) -> tuple[bool, Any]:
        """Run one operation, time it and count it: ``(ok, result)``."""
        self.tally.attempted += 1
        start = perf_counter()
        try:
            return True, op()
        except Exception as exc:  # counted, not fatal: the run goes on
            self.tally.fail(f"{what} raised {type(exc).__name__}: {exc}")
            return False, None
        finally:
            samples.append(perf_counter() - start)

    def record_error(self, method: str, estimate: float, exact: float) -> None:
        self.rel_errs.setdefault(method, []).append(checks.relative_error(estimate, exact))


@dataclass
class Phase:
    """How to run one workload phase."""

    seed: int
    seconds: float
    setups: int
    traced: bool
    root: Path

    @property
    def run_dir(self) -> Path:
        return self.root / ".perfbench_run"


@contextmanager
def tracing(run: Run, traced: bool) -> Iterator[None]:
    """Install the span wrappers in this process for a traced phase."""
    if not traced:
        yield
        return
    recorder = Recorder()
    recorder.install()
    try:
        yield
    finally:
        recorder.uninstall()
        run.spans = recorder.spans


def set_up(run: Run, count: int, build: Callable[[], StreamEngine]) -> StreamEngine:
    """Build the engine ``count`` times, each from a collected heap; keep the last."""
    for _ in range(count):
        gc.collect()
        start = perf_counter()
        engine = build()
        run.setup_s.append(perf_counter() - start)
    return engine


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# append_ingest
# ---------------------------------------------------------------------- #

APPEND_DOMAIN = 2_000
APPEND_BATCH = 1_024
APPEND_POOL = 256  # distinct batches; the loop cycles through them
APPEND_CHECKS = tuple(range(16, APPEND_POOL + 1, 16))  # batches sent when the clock pauses
ANSWER_REPEATS = 2  # answers per query at each check point: 224 answer samples


def append_inputs(seed: int) -> list[Rows]:
    """Batch ``i`` goes to R1 when ``i`` is even and to R2 when it is odd."""
    rng = np.random.default_rng(seed)
    return [zipf_values(rng, APPEND_BATCH, APPEND_DOMAIN)[:, None] for _ in range(APPEND_POOL)]


def build_append() -> StreamEngine:
    engine = StreamEngine(seed=ENGINE_SEED)
    domain = Domain.of_size(APPEND_DOMAIN)
    for relation in ("R1", "R2"):
        engine.create_relation(relation, ["A"], [domain])
    query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    for method in METHODS:
        engine.register_query(method, query, method=method, budget=BUDGET, **method_options(method))
    return engine


def _check_append(engine: StreamEngine, sent: dict[str, list[Rows]], run: Run, fixed: bool) -> None:
    exact = checks.join_size(
        checks.frequencies(sent["R1"], 0, APPEND_DOMAIN),
        checks.frequencies(sent["R2"], 0, APPEND_DOMAIN),
    )
    for method in METHODS:
        run.tally.equal(engine.exact_answer(method), exact, f"exact_answer({method})")
        for _ in range(ANSWER_REPEATS):
            ok, value = run.timed(
                run.answer_s, lambda: engine.answer(method), f"answer({method})"
            )
        if not ok:
            continue
        run.tally.finite(value, f"answer({method})")
        if fixed:
            run.record_error(method, value, exact)


def run_append(phase: Phase) -> Run:
    inputs = append_inputs(phase.seed)
    distinct = [distinct_fraction(rows) for rows in inputs]
    run = Run(Clock(phase.seconds))
    relations = ("R1", "R2")
    with tracing(run, phase.traced):
        engine = set_up(run, phase.setups, build_append)
        sent: dict[str, list[Rows]] = {"R1": [], "R2": []}
        batches = 0
        run.clock.resume()
        while run.clock.running():
            relation, rows = relations[batches % 2], inputs[batches % APPEND_POOL]
            ok, _ = run.timed(
                run.batch_s, lambda: engine.ingest_batch(relation, rows), "ingest_batch"
            )
            run.tick_s.append(run.batch_s[-1])
            if ok:
                sent[relation].append(rows)
                run.tuples += len(rows)
                run.distinct.append(distinct[batches % APPEND_POOL])
            batches += 1
            if batches in APPEND_CHECKS:
                run.clock.pause()
                _check_append(engine, sent, run, fixed=True)
                run.clock.resume()
        run.clock.pause()
        if batches not in APPEND_CHECKS:
            _check_append(engine, sent, run, fixed=not run.rel_errs)
    run.observer_s = dict(engine.stats().observer_time)
    run.peak_rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
    return run


# ---------------------------------------------------------------------- #
# window_chain
# ---------------------------------------------------------------------- #

CHAIN_A = 2_000
CHAIN_B = 200
CHAIN_BATCH = 256
WINDOW_TICKS = 32
CHAIN_POOL = 256  # distinct ticks; the loop cycles through them
CHAIN_CHECK_EVERY = 16
CHAIN_CHECK_LAST = 192  # rel_err comes from the checks at ticks 16, 32, ..., 192
CHAIN_METHODS = ("cosine", "basic_sketch", "skimmed_sketch")
JOIN_METHODS = ("histogram", "wavelet", "partitioned_sketch")
BOUNDED = "cosine"  # registered with bounds=True
CHAIN_RELATIONS = ("R1", "R2", "R3")


def chain_inputs(seed: int) -> list[dict[str, Rows]]:
    rng = np.random.default_rng(seed)
    ticks = []
    for _ in range(CHAIN_POOL):
        r1 = zipf_values(rng, CHAIN_BATCH, CHAIN_A)[:, None]
        r2 = np.stack(
            [zipf_values(rng, CHAIN_BATCH, CHAIN_A), zipf_values(rng, CHAIN_BATCH, CHAIN_B)],
            axis=1,
        )
        r3 = zipf_values(rng, CHAIN_BATCH, CHAIN_B)[:, None]
        ticks.append({"R1": r1, "R2": r2, "R3": r3})
    return ticks


def build_chain() -> StreamEngine:
    engine = StreamEngine(seed=ENGINE_SEED)
    a, b = Domain.of_size(CHAIN_A), Domain.of_size(CHAIN_B)
    engine.create_relation("R1", ["A"], [a])
    engine.create_relation("R2", ["A", "B"], [a, b])
    engine.create_relation("R3", ["B"], [b])
    chain = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])
    join = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    for method in CHAIN_METHODS:
        engine.register_query(method, chain, method=method, budget=BUDGET, bounds=method == BOUNDED)
    for method in JOIN_METHODS:
        engine.register_query(method, join, method=method, budget=BUDGET)
    return engine


def _check_chain(
    engine: StreamEngine,
    live: Sequence[dict[str, Rows]],
    values: dict[str, float],
    clamped: float | None,
    run: Run,
    fixed: bool,
) -> None:
    f1 = checks.frequencies([tick["R1"] for tick in live], 0, CHAIN_A)
    f12 = checks.pair_frequencies([tick["R2"] for tick in live], CHAIN_A, CHAIN_B)
    f3 = checks.frequencies([tick["R3"] for tick in live], 0, CHAIN_B)
    exact = {"chain": checks.chain_size(f1, f12, f3), "join": checks.join_size(f1, f12.sum(axis=1))}
    for method in CHAIN_METHODS + JOIN_METHODS:
        reference = exact["chain" if method in CHAIN_METHODS else "join"]
        run.tally.equal(engine.exact_answer(method), reference, f"exact_answer({method})")
        if method not in values:
            continue
        run.tally.finite(values[method], f"answer({method})")
        if fixed:
            run.record_error(method, values[method], reference)
    bound = engine.estimate(BOUNDED, mode="upper_bound")
    run.tally.check(bound >= exact["chain"], f"upper_bound {bound} < exact {exact['chain']}")
    if clamped is not None:
        run.tally.check(clamped <= bound, f"clamped {clamped} > upper_bound {bound}")


def run_chain(phase: Phase) -> Run:
    inputs = chain_inputs(phase.seed)
    distinct = [
        {rel: distinct_fraction(tick[rel]) for rel in CHAIN_RELATIONS} for tick in inputs
    ]
    run = Run(Clock(phase.seconds))
    queries = CHAIN_METHODS + JOIN_METHODS
    with tracing(run, phase.traced):
        engine = set_up(run, phase.setups, build_chain)
        ticks = 0
        values: dict[str, float] = {}
        clamped = None
        run.clock.resume()
        while run.clock.running():
            start = perf_counter()
            fresh = inputs[ticks % CHAIN_POOL]
            for relation in CHAIN_RELATIONS:
                rows = fresh[relation]
                ok, _ = run.timed(
                    run.batch_s, lambda: engine.ingest_batch(relation, rows), "insert"
                )
                if ok:
                    run.tuples += len(rows)
                    run.distinct.append(distinct[ticks % CHAIN_POOL][relation])
            if ticks >= WINDOW_TICKS:
                stale = inputs[(ticks - WINDOW_TICKS) % CHAIN_POOL]
                for relation in CHAIN_RELATIONS:
                    rows = stale[relation]
                    ok, _ = run.timed(
                        run.batch_s,
                        lambda: engine.ingest_batch(relation, rows, kind=OpKind.DELETE),
                        "delete",
                    )
                    if ok:
                        run.tuples += len(rows)
            values = {}
            for method in queries:
                ok, value = run.timed(
                    run.answer_s, lambda: engine.answer(method), f"answer({method})"
                )
                if ok:
                    values[method] = value
            _, clamped = run.timed(
                run.answer_s, lambda: engine.estimate(BOUNDED, mode="clamped"), "clamped"
            )
            run.tick_s.append(perf_counter() - start)
            ticks += 1
            if ticks % CHAIN_CHECK_EVERY == 0:
                run.clock.pause()
                live = [inputs[t % CHAIN_POOL] for t in range(max(0, ticks - WINDOW_TICKS), ticks)]
                _check_chain(engine, live, values, clamped, run, ticks <= CHAIN_CHECK_LAST)
                run.clock.resume()
        run.clock.pause()
        if ticks % CHAIN_CHECK_EVERY:
            live = [inputs[t % CHAIN_POOL] for t in range(max(0, ticks - WINDOW_TICKS), ticks)]
            _check_chain(engine, live, values, clamped, run, fixed=not run.rel_errs)
    run.observer_s = dict(engine.stats().observer_time)
    run.peak_rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
    return run


# ---------------------------------------------------------------------- #
# serve_fleet
# ---------------------------------------------------------------------- #

SERVE_DOMAIN = 2_000
SERVE_BATCH = 2_048
SERVE_POOL = 64  # distinct requests; the loop cycles through them
QUERY_EVERY = 4  # ingests between query rounds
SERVE_CHECK_ROUNDS = 8  # query rounds replayed against the in-process reference
#: Untimed requests sent first.  The sample's answer walks its counter of
#: distinct sampled values, which fills over the first few hundred thousand
#: tuples; timing from a fixed point after that keeps the answer timings
#: off that ramp, whose position would otherwise follow the host's speed.
SERVE_WARMUP = 192
SERVE_METHODS = ("cosine", "basic_sketch", "sample")
DOMAIN_SPEC = {"low": 0, "size": SERVE_DOMAIN}


def serve_specs() -> dict[str, dict[str, Any]]:
    return {
        method: {
            "kind": "join",
            "relations": ["R1", "R2"],
            "predicates": ["R1.A = R2.A"],
            "method": method,
            "budget": BUDGET,
            "options": method_options(method),
        }
        for method in SERVE_METHODS
    }


def serve_inputs(seed: int) -> list[Rows]:
    """Request ``i`` goes to R1 when ``i`` is even and to R2 when it is odd."""
    rng = np.random.default_rng(seed)
    return [zipf_values(rng, SERVE_BATCH, SERVE_DOMAIN)[:, None] for _ in range(SERVE_POOL)]


def open_fleet(daemon: ServeDaemon) -> FleetClient:
    """Start the daemon, wait for a ``ping`` ok, create relations and queries."""
    host, port = daemon.start()
    client = FleetClient(host, port, timeout=120.0)
    client.ping()
    for relation in ("R1", "R2"):
        client.create_relation(relation, ["A"], [DOMAIN_SPEC])
    for name, spec in serve_specs().items():
        client.register(name, spec)
    return client


def _check_serve(inputs: list[Rows], served: list[dict[str, float]], run: Run) -> None:
    """Replay the checked rounds into an in-process serial fleet and compare."""
    reference = ShardedStreamEngine(num_shards=2, seed=ENGINE_SEED, executor="serial")
    try:
        domain = Domain.of_size(SERVE_DOMAIN)
        for relation in ("R1", "R2"):
            reference.create_relation(relation, ["A"], [domain])
        for name, spec in serve_specs().items():
            reference.register_query_spec(name, spec)
        sent: dict[str, list[Rows]] = {"R1": [], "R2": []}
        for round_number, values in enumerate(served):
            for i in range(round_number * QUERY_EVERY, (round_number + 1) * QUERY_EVERY):
                relation, rows = ("R1", "R2")[i % 2], inputs[i % SERVE_POOL]
                reference.ingest_batch(relation, rows.tolist())
                sent[relation].append(rows)
            exact = checks.join_size(
                checks.frequencies(sent["R1"], 0, SERVE_DOMAIN),
                checks.frequencies(sent["R2"], 0, SERVE_DOMAIN),
            )
            for method, value in values.items():
                what = f"round {round_number} {method}"
                run.tally.equal(value, reference.answer(method), f"served answer, {what}")
                run.tally.equal(reference.exact_answer(method), exact, f"exact_answer, {what}")
                run.tally.finite(value, f"served answer, {what}")
                run.record_error(method, value, exact)
    finally:
        reference.close()


@contextmanager
def one_cpu() -> Iterator[None]:
    """Run this process, and every process it starts, on one CPU.

    A ``serve_fleet`` request hands off between the client, the daemon and
    two workers.  Spread over several virtual CPUs, each hand-off wakes an
    idle one, and how fast the host schedules it back decides the timings:
    on a busy host throughput dropped by more than a quarter.  On one CPU the hand-offs
    stay on a CPU that is kept busy, so the figures measure the work of the
    four processes rather than the host's scheduler.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_serve(phase: Phase) -> Run:
    with one_cpu():
        return _run_serve(phase)


def _run_serve(phase: Phase) -> Run:
    inputs = serve_inputs(phase.seed)
    requests = [rows.tolist() for rows in inputs]
    # The request pool is a quarter million lists the client would not
    # hold; keep the collector from rescanning it inside timed requests.
    gc.freeze()
    distinct = [distinct_fraction(rows) for rows in inputs]
    run = Run(Clock(phase.seconds))
    spans_out = phase.run_dir / "daemon-spans.json" if phase.traced else None
    if spans_out is not None:
        spans_out.unlink(missing_ok=True)
    served: list[dict[str, float]] = []
    daemon: ServeDaemon | None = None
    client: FleetClient | None = None
    try:
        for _ in range(phase.setups):
            if daemon is not None and client is not None:
                client.close()
                daemon.stop()
            daemon = ServeDaemon(phase.root, phase.run_dir, spans_out)
            start = perf_counter()
            client = open_fleet(daemon)
            run.setup_s.append(perf_counter() - start)
        assert client is not None
        _serve_loop(client, run, requests, distinct, served)
    finally:
        if client is not None:
            client.close()
        if daemon is not None:
            daemon.stop()
    run.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if spans_out is not None:
        run.spans = spans_from_json(json.loads(spans_out.read_text()))
        spans_out.unlink()
    _check_serve(inputs, served, run)
    return run


def _serve_loop(
    fleet: FleetClient,
    run: Run,
    requests: list[Any],
    distinct: list[float],
    served: list[dict[str, float]],
) -> None:
    """Warm the daemon up, then time it for the rest of the run.

    Stops early when the connection or the daemon is gone.
    """
    sent = 0

    def send(batch_s: list[float], answer_s: list[float]) -> bool:
        """One ingest request and, after every fourth, a query round."""
        nonlocal sent
        relation, index = ("R1", "R2")[sent % 2], sent % SERVE_POOL
        ok, reply = run.timed(batch_s, lambda: fleet.ingest(relation, requests[index]), "ingest")
        if not ok:
            return False
        run.tally.check(reply.get("dead_lettered") == 0, f"ingest {sent} dead-lettered rows")
        sent += 1
        if sent % QUERY_EVERY == 0:
            values = {}
            for method in SERVE_METHODS:
                ok, reply = run.timed(answer_s, lambda: fleet.query(method), f"query({method})")
                if ok:
                    values[method] = float(reply["value"])
            if len(served) < SERVE_CHECK_ROUNDS:
                served.append(values)
        return True

    if not all(send([], []) for _ in range(SERVE_WARMUP)):
        return
    run.clock.resume()
    try:
        while run.clock.running():
            start = perf_counter()
            index = sent % SERVE_POOL
            if not send(run.batch_s, run.answer_s):
                return
            run.tuples += SERVE_BATCH
            run.distinct.append(distinct[index])
            run.tick_s.append(perf_counter() - start)
    finally:
        run.clock.pause()


RUNNERS: dict[str, Callable[[Phase], Run]] = {
    "append_ingest": run_append,
    "window_chain": run_chain,
    "serve_fleet": run_serve,
}


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #


def _ms(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if samples else float("nan")


def end_to_end(run: Run) -> dict[str, float]:
    errors = [e for values in run.rel_errs.values() for e in values]
    return {
        "ingest_tps": run.tps,
        "batch_p50_ms": _ms(run.batch_s, 50),
        "batch_p95_ms": _ms(run.batch_s, 95),
        "answer_mean_ms": statistics.fmean(run.answer_s) * 1e3 if run.answer_s else float("nan"),
        "answer_p50_ms": _ms(run.answer_s, 50),
        "answer_p95_ms": _ms(run.answer_s, 95),
        "tick_p50_ms": _ms(run.tick_s, 50),
        "tick_p95_ms": _ms(run.tick_s, 95),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": run.peak_rss_mb,
        "rel_err_p50": statistics.median(errors) if errors else float("nan"),
        "rel_err_worst_method": max(
            (statistics.median(v) for v in run.rel_errs.values()), default=float("nan")
        ),
        "failed_frac": run.tally.failed / max(run.tally.attempted, 1),
    }


#: Engine observer stats keys and the synopsis entry point each one calls.
CROSSCHECK = {
    "cosine": (("cosine",), ("core.synopsis.insert_batch", "core.synopsis.delete_batch")),
    "agms": (("basic_sketch", "skimmed_sketch"), ("sketches.basic.update_batch",)),
    "sample": (("sample",), ("sampling.reservoir.insert_batch",)),
    "histogram": (("histogram",), ("histograms.equiwidth.update_batch",)),
    "wavelet": (("wavelet",), ("wavelets.haar.update_batch",)),
    "partitioned_sketch": (("partitioned_sketch",), ("sketches.partitioned.update_batch",)),
    "bounds": (("bounds",), ("bounds.degree.update_batch",)),
}


def per_layer(traced: Run, plain: Run, name: str) -> dict[str, float]:
    """Per-layer totals of the traced phase's timed windows."""
    local = in_windows(traced.spans, traced.clock.windows)
    totals = aggregate(local)
    out: dict[str, float] = {}
    for entry in ENTRY_POINTS:
        metric = entry.metric
        if metric in ("streams.engine.answer", "streams.engine.estimate"):
            continue
        total = totals.get(metric)
        calls = total.calls if total else 0
        count = total.count if total else 0
        own = total.self_s if total else 0.0
        if metric.startswith("fleet.protocol."):
            out[f"{metric}.frames"] = calls
            out[f"{metric}.bytes"] = count
            out[f"{metric}.{'wait_s' if metric.endswith('recv') else 'self_s'}"] = own
            continue
        out[f"{metric}.calls"] = calls
        if entry.count is not None:
            out[f"{metric}.tuples"] = count
        out[f"{metric}.self_s"] = own
    for method in METHODS:
        total = totals.get(f"estimate.{method}")
        prefix = f"streams.engine.estimate.{method}"
        out[f"{prefix}.calls"] = total.calls if total else 0
        out[f"{prefix}.self_s"] = total.self_s if total else 0.0
        out[f"{prefix}.p50_ms"] = (
            statistics.median(total.durations) * 1e3 if total and total.durations else 0.0
        )
    out["streams.relation.distinct_frac"] = (
        statistics.fmean(traced.distinct) if traced.distinct else 0.0
    )
    wall = traced.clock.elapsed
    if name == "serve_fleet":
        round_trips = sum(traced.batch_s) + sum(traced.answer_s)
        out["streams.engine.unattributed_s"] = wall - round_trips
        out["fleet.serve.self_s"] = round_trips - top_level_seconds(local)
    else:
        out["streams.engine.unattributed_s"] = wall - top_level_seconds(local)
        out["fleet.serve.self_s"] = 0.0
    # The daemon's engines keep their observer stats to themselves, so the
    # cross-check runs on the in-process workloads only.
    busy = observer_busy(local) if traced.observer_s else {}
    for key, (stats_keys, entry_names) in CROSSCHECK.items():
        observed = sum(traced.observer_s.get(k, 0.0) for k in stats_keys)
        wrapped = sum(busy.get(e, 0.0) for e in entry_names)
        out[f"crosscheck.{key}.disagree_s"] = observed - wrapped
    out["trace.overhead_frac"] = plain.tps / traced.tps - 1.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[
    dict[str, float], checks.Tally
]:
    """Run one workload; returns its metrics and the merged check tally.

    Untraced: end-to-end metrics over ``seconds``.  Traced: an untraced
    phase and a traced phase of ``seconds / 2`` each, so the per-layer
    figures come with the overhead the wrappers added.
    """
    runner = RUNNERS[name]
    if not trace:
        setups = SERVE_SETUPS if name == "serve_fleet" else IN_PROCESS_SETUPS
        run = runner(Phase(seed, seconds, setups, False, root))
        return end_to_end(run), run.tally
    plain = runner(Phase(seed, seconds / 2, 1, False, root))
    traced = runner(Phase(seed, seconds / 2, 1, True, root))
    tally = checks.Tally(
        plain.tally.attempted + traced.tally.attempted,
        plain.tally.failed + traced.tally.failed,
        plain.tally.problems + traced.tally.problems,
    )
    return per_layer(traced, plain, name), tally
