"""Retry with capped exponential backoff for transient I/O failures.

Checkpoint writes and telemetry-snapshot appends go to filesystems that
can fail transiently (NFS hiccups, full-but-draining disks, containers
being live-migrated).  :func:`retry_io` retries a callable over such
failures with exponentially growing, capped sleeps, so one transient
``OSError`` does not cost weeks of accumulated synopsis state.

Two production safeguards on top of plain exponential backoff:

* **Full jitter** (``RetryPolicy(jitter=True)``): each delay is drawn
  uniformly from ``[0, capped_backoff]``.  A fleet of shards that all
  hit the same transient fault (one NFS server blip) would otherwise
  retry in lockstep and re-create the very stampede that caused the
  fault; jitter decorrelates them.  The RNG is injectable for
  deterministic tests.
* **Deadline cap** (``RetryPolicy(deadline=...)``): an overall budget in
  seconds across *all* attempts.  Backoff bounds the per-retry wait;
  the deadline bounds the total time a caller can be stuck inside
  ``retry_io``, which is what a heartbeat-supervised worker needs —
  better to fail the one write and stay responsive than to be declared
  dead while dutifully backing off.

Retries are observable: pass ``operation=...`` and a ``registry`` and
every retry increments ``repro_retries_total{operation=...}``.  The
sleep and clock functions are injectable, which is how the chaos tests
drive the policy without real waiting.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry

__all__ = ["RetryPolicy", "retry_io"]

T = TypeVar("T")


class RetryPolicy:
    """Attempt count plus capped exponential backoff delays.

    ``attempts`` is the total number of tries (1 = no retry).  The
    deterministic delay before retry ``i`` (1-based) is
    ``min(base_delay * 2**(i-1), max_delay)`` seconds; with
    ``jitter=True`` each delay is instead drawn uniformly from
    ``[0, min(base_delay * 2**(i-1), max_delay)]`` (AWS-style "full
    jitter").  ``deadline`` caps the *total* elapsed seconds across all
    attempts: once exceeded, the last failure is re-raised immediately
    rather than sleeping again.
    """

    def __init__(
        self,
        attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: bool = False,
        deadline: float | None = None,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.deadline = deadline

    def backoff_caps(self) -> Sequence[float]:
        """The capped exponential ceiling before each retry (length ``attempts - 1``)."""
        return [
            min(self.base_delay * (2.0**i), self.max_delay)
            for i in range(self.attempts - 1)
        ]

    def delays(self, rng: random.Random | None = None) -> Sequence[float]:
        """Concrete backoff delays; with jitter, drawn from ``rng``.

        Without jitter this is :meth:`backoff_caps` verbatim (the
        pre-jitter behaviour, kept deterministic for tests and for
        callers that want fixed pacing).
        """
        caps = self.backoff_caps()
        if not self.jitter:
            return caps
        rng = rng if rng is not None else random.Random()
        return [rng.uniform(0.0, cap) for cap in caps]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extras = ""
        if self.jitter:
            extras += ", jitter=True"
        if self.deadline is not None:
            extras += f", deadline={self.deadline}"
        return (
            f"RetryPolicy(attempts={self.attempts}, "
            f"base_delay={self.base_delay}, max_delay={self.max_delay}{extras})"
        )


def retry_io(
    fn: Callable[[], T],
    policy: RetryPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
    operation: str | None = None,
    registry: "MetricsRegistry | None" = None,
    rng: random.Random | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> T:
    """Call ``fn`` with retries over transient failures.

    Retries only exceptions matching ``retry_on`` (transient ``OSError``
    by default); anything else propagates immediately.  ``on_retry`` is
    invoked with ``(attempt_number, exception)`` before each backoff
    sleep — the engine uses it to count retries into its metrics
    registry.  With ``operation`` and ``registry`` given, every retry
    also increments the labeled ``repro_retries_total`` counter, the
    fleet-wide view of which subsystems are limping.  The policy's
    ``deadline`` (if any) is measured with ``clock`` from the first
    attempt; once spent, the last failure is re-raised without further
    sleeping.  The last failure is re-raised once attempts are
    exhausted.
    """
    policy = policy if policy is not None else RetryPolicy()
    delays = policy.delays(rng)
    started = clock()
    counter = None
    if registry is not None and operation is not None:
        from ..obs.catalog import RETRIES

        counter = registry.register(RETRIES).labels(operation)
    for attempt in range(policy.attempts):
        try:
            return fn()
        except retry_on as exc:
            if attempt == policy.attempts - 1:
                raise
            delay = delays[attempt]
            if policy.deadline is not None and (
                clock() - started + delay > policy.deadline
            ):
                raise
            if counter is not None:
                counter.inc()
            if on_retry is not None:
                on_retry(attempt + 1, exc)
            if delay > 0:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
