"""Merge semantics for per-shard synopsis state.

Which estimation methods can be sharded, and how their per-shard states
recombine into the single-engine state, is the correctness core of
:mod:`repro.sharding`:

* **Mergeable methods** — ``cosine``, ``basic_sketch``,
  ``skimmed_sketch``, ``histogram`` (plus the cosine range and band
  query kinds).  Their synopsis state is a *linear* function of the
  ingested multiset: cosine coefficient sums (Eq. 3.3 is a sum over
  tuples), AGMS atomic sketches (sums of ±1 signs; the skimmed estimator
  reads the same atoms), and equi-width bucket counts.  Summing the
  per-shard ``state_dict()`` fields therefore reproduces the state a
  single engine would hold after ingesting every shard's tuples —
  exactly for integer-valued state (sketch atoms, histogram buckets), up
  to float summation order for cosine coefficients, whose estimators are
  *continuous*, so the answer moves by the same last-ulp amount.  Shard
  sign families and histogram/cosine geometry match across shards
  because every shard engine is built from the same seed and specs.

* **Coordinator methods** — ``sample``, ``partitioned_sketch``, and
  ``wavelet``.  Bernoulli sampling consumes an RNG sequence in arrival
  order, and the partitioned sketch freezes its partition boundaries
  from the pilot distribution it sees at registration time; neither
  state is a partition-independent function of the multiset, so
  per-shard copies cannot be recombined into the single-engine state.
  The Haar synopsis is the subtle case: its full coefficient vector *is*
  linear, but its read path thresholds to the ``budget`` largest
  coefficients — a discontinuous selection that float summation-order
  noise in a merged vector can flip on near-ties, changing the answer by
  a whole coefficient's contribution.  All three live on a
  coordinator-resident replica that observes the full stream in arrival
  order (their state is O(budget + log n), so this costs the coordinator
  one small synopsis update per batch) and answers are *bit-identical*
  to the unsharded engine.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "COORDINATOR_METHODS",
    "MERGEABLE_METHODS",
    "merge_observer_states",
]

#: Methods whose per-shard synopsis states sum to the single-engine state.
MERGEABLE_METHODS = frozenset({"cosine", "basic_sketch", "skimmed_sketch", "histogram"})

#: Methods kept on the coordinator replica (order/geometry/threshold
#: dependent — see the module docstring for why wavelet is here).
COORDINATOR_METHODS = frozenset({"sample", "partitioned_sketch", "wavelet"})


def merge_observer_states(states: list[dict[str, Any]]) -> dict[str, Any]:
    """Combine per-shard ``state_dict()`` payloads of one observer.

    Array-valued fields are summed (coefficients, atoms, buckets), the
    integer count fields add, and nested dicts (an observer's synopsis
    state) merge field by field; any other field must be identical
    across shards (structural state such as partition boundaries is not
    mergeable and belongs to a coordinator method instead).
    """
    if not states:
        raise ValueError("cannot merge an empty state list")
    return _merge(states)


def _merge(states: list[dict[str, Any]]) -> dict[str, Any]:
    merged: dict[str, Any] = {}
    for key, first in states[0].items():
        if isinstance(first, dict):
            merged[key] = _merge([state[key] for state in states])
        elif isinstance(first, np.ndarray):
            total = first.copy()
            for other in states[1:]:
                value = np.asarray(other[key])
                if value.shape != total.shape:
                    raise ValueError(
                        f"shard states disagree on {key!r} shape: "
                        f"{value.shape} vs {total.shape}"
                    )
                total = total + value
            merged[key] = total
        elif isinstance(first, (int, float)) and not isinstance(first, bool):
            merged[key] = sum(state[key] for state in states)
        else:
            for other in states[1:]:
                if other[key] != first:
                    raise ValueError(
                        f"shard states disagree on non-mergeable field {key!r}: "
                        f"{other[key]!r} vs {first!r}"
                    )
            merged[key] = first
    return merged
