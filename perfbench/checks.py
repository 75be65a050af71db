"""Output checks: the benchmark's own reference answers and the failure tally.

The reference never asks the engine: it recounts the live rows the
benchmark sent with ``np.bincount`` and contracts the counts, so a wrong
``exact_answer`` (or a wrong estimate far from it) cannot check itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray


def frequencies(batches: Sequence[NDArray[np.int64]], column: int, size: int) -> NDArray[np.int64]:
    """Frequency vector of one attribute over a list of ``(B, ndim)`` batches."""
    if not batches:
        return np.zeros(size, dtype=np.int64)
    values = np.concatenate([batch[:, column] for batch in batches])
    return np.bincount(values, minlength=size)


def pair_frequencies(
    batches: Sequence[NDArray[np.int64]], size_a: int, size_b: int
) -> NDArray[np.int64]:
    """Joint ``(size_a, size_b)`` frequency matrix of a two-attribute relation."""
    if not batches:
        return np.zeros((size_a, size_b), dtype=np.int64)
    rows = np.concatenate(batches)
    cells = rows[:, 0] * size_b + rows[:, 1]
    return np.bincount(cells, minlength=size_a * size_b).reshape(size_a, size_b)


def join_size(f1: NDArray[np.int64], f2: NDArray[np.int64]) -> float:
    """``|R1 join R2|`` on one attribute: the dot product of the frequencies."""
    return float(np.dot(f1, f2))


def chain_size(f1: NDArray[np.int64], f12: NDArray[np.int64], f2: NDArray[np.int64]) -> float:
    """``|R1.A = R2.A, R2.B = R3.B|``: the contraction ``f1 @ F2 @ f3``."""
    return float(f1 @ f12 @ f2)


def relative_error(estimate: float, exact: float) -> float:
    return abs(estimate - exact) / exact if exact else abs(estimate)


@dataclass
class Tally:
    """Operations and output checks attempted, and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def finite(self, value: float, what: str) -> None:
        self.check(math.isfinite(value), f"{what} is not finite ({value})")

    def equal(self, value: float, reference: float, what: str) -> None:
        self.check(value == reference, f"{what}: {value!r} != reference {reference!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0
