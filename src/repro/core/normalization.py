"""Attribute domains and normalization onto the unit interval.

Implements section 3.1 (mapping attribute values into [0, 1]) and section
4.1 (unifying the domains of a join-attribute pair before normalization, by
extending both attributes to ``[min(l_A, l_B), max(r_A, r_B)]`` with zero
frequency outside their original ranges).

A :class:`Domain` describes the *discrete* set of values an attribute can
take — either a dense integer range or an explicit categorical value list —
and knows how to map raw values to domain indices ``0..n-1`` and onto a
normalized grid (see :mod:`repro.core.basis` for the two grid kinds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

import numpy as np
from numpy.typing import NDArray

from .basis import GridKind, make_grid


@dataclass(frozen=True)
class Domain:
    """A discrete attribute domain of ``size`` distinct values.

    Use the constructors :meth:`integer_range` and :meth:`categorical`
    rather than instantiating directly.
    """

    size: int
    low: int | None = None
    _categories: tuple[Hashable, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"domain size must be >= 1, got {self.size}")

    @classmethod
    def integer_range(cls, low: int, high: int) -> "Domain":
        """Domain of the consecutive integers ``low..high`` (inclusive)."""
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        return cls(size=high - low + 1, low=low)

    @classmethod
    def of_size(cls, n: int) -> "Domain":
        """Domain of the integers ``0..n-1`` — the common benchmark shape."""
        return cls.integer_range(0, n - 1)

    @classmethod
    def categorical(cls, values: Sequence[Hashable]) -> "Domain":
        """Domain of arbitrary hashable values, mapped to indices by position.

        This realizes the section 3.1 remark that categorical attributes are
        handled "by mapping each categorical value to a distinct number".
        """
        cats = tuple(values)
        if not cats:
            raise ValueError("categorical domain needs at least one value")
        if len(set(cats)) != len(cats):
            raise ValueError("categorical domain values must be distinct")
        return cls(size=len(cats), low=None, _categories=cats)

    @property
    def is_categorical(self) -> bool:
        return self._categories is not None

    @property
    def high(self) -> int | None:
        """Inclusive upper bound for integer-range domains, else ``None``."""
        if self.low is None:
            return None
        return self.low + self.size - 1

    def indices_of(self, values: NDArray[Any] | Sequence[Hashable]) -> NDArray[Any]:
        """Map raw attribute values to domain indices ``0..size-1``.

        Raises ``ValueError`` on any value outside the domain.
        """
        if self._categories is not None:
            lookup = {v: i for i, v in enumerate(self._categories)}
            try:
                return np.array([lookup[v] for v in values], dtype=np.int64)
            except KeyError as exc:
                raise ValueError(f"value {exc.args[0]!r} not in categorical domain") from exc
        arr = np.asarray(values)
        assert self.low is not None
        if arr.dtype == np.int64 and self.low == 0:
            # Zero-copy fast path: int64 values over a 0-based domain are
            # already their own indices — bounds-check and return the
            # caller's array unchanged (callers treat indices as read-only).
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self.size):
                bad = arr[(arr < 0) | (arr >= self.size)]
                raise ValueError(
                    f"values outside integer domain [{self.low}, {self.high}]: {bad[:5]}"
                )
            return arr
        idx = arr.astype(np.int64) - self.low
        if np.any(arr != idx + self.low):
            raise ValueError("non-integer values in an integer-range domain")
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            bad = arr[(idx < 0) | (idx >= self.size)]
            raise ValueError(
                f"values outside integer domain [{self.low}, {self.high}]: {bad[:5]}"
            )
        return idx

    def values_at(self, idx: NDArray[Any]) -> NDArray[Any] | list[Hashable]:
        """Raw values of domain indices ``0..size-1`` (inverse of :meth:`indices_of`)."""
        if self._categories is not None:
            return [self._categories[i] for i in idx]
        assert self.low is not None
        return idx + self.low

    def index_of(self, value: Hashable) -> int:
        """Map a single raw value to its domain index."""
        return int(self.indices_of([value])[0])

    def contains(self, values: NDArray[Any] | Sequence[Hashable]) -> NDArray[Any]:
        """Boolean membership mask for a batch of raw values.

        The non-raising counterpart of :meth:`indices_of`, used by the
        dead-letter ingest validation: out-of-range, non-integer,
        non-finite, and unknown-category values all simply map to
        ``False``.
        """
        if self._categories is not None:
            known = set(self._categories)

            def member(v: Any) -> bool:
                try:
                    return v in known
                except TypeError:  # unhashable values are never members
                    return False

            return np.array([member(v) for v in values], dtype=bool)
        arr = np.asarray(values)
        assert self.low is not None
        if arr.dtype == object or not np.issubdtype(arr.dtype, np.number):
            out = np.zeros(len(arr), dtype=bool)
            for i, v in enumerate(arr):
                if isinstance(v, (int, np.integer)) or (
                    isinstance(v, (float, np.floating)) and float(v).is_integer()
                ):
                    out[i] = self.low <= int(v) <= self.high
            return out
        if np.issubdtype(arr.dtype, np.complexfloating):
            return np.zeros(arr.shape[0], dtype=bool)
        mask = np.ones(arr.shape, dtype=bool)
        if np.issubdtype(arr.dtype, np.floating):
            mask &= np.isfinite(arr)
            safe = np.where(mask, arr, self.low)
            mask &= safe == np.floor(safe)
        values_int = np.where(mask, arr, self.low).astype(np.int64)
        mask &= (values_int >= self.low) & (values_int <= self.high)
        return mask

    def grid(self, kind: GridKind = "midpoint") -> NDArray[Any]:
        """Normalized positions of all domain values on the given grid."""
        return make_grid(self.size, kind)

    def positions_of(
        self, values: NDArray[Any] | Sequence[Hashable], kind: GridKind = "midpoint"
    ) -> NDArray[Any]:
        """Normalized [0, 1] positions of raw values (section 3.1)."""
        idx = self.indices_of(values)
        if kind == "midpoint":
            return (2.0 * idx + 1.0) / (2.0 * self.size)
        if self.size == 1:
            return np.full(idx.shape, 0.5)
        return idx / (self.size - 1.0)


def unify_domains(a: Domain, b: Domain) -> Domain:
    """Return the unified domain of a join-attribute pair (section 4.1).

    For integer ranges this is ``[min(l_A, l_B), max(r_A, r_B)]`` — values a
    relation never holds simply have frequency zero.  Categorical domains
    unify by the union of their value sets (categories of ``a`` first, then
    the categories only in ``b``, preserving order).
    """
    if a.is_categorical != b.is_categorical:
        raise ValueError("cannot unify a categorical domain with an integer range")
    if a.is_categorical:
        assert a._categories is not None and b._categories is not None
        seen = set(a._categories)
        merged = list(a._categories) + [v for v in b._categories if v not in seen]
        return Domain.categorical(merged)
    assert a.low is not None and b.low is not None and a.high is not None and b.high is not None
    return Domain.integer_range(min(a.low, b.low), max(a.high, b.high))


def embed_counts(counts: NDArray[Any], original: Domain, unified: Domain) -> NDArray[Any]:
    """Re-index a frequency vector from its original domain into a unified one.

    Positions outside the original domain get frequency zero, per the
    section 4.1 convention.
    """
    counts = np.asarray(counts)
    if counts.shape[0] != original.size:
        raise ValueError(
            f"counts length {counts.shape[0]} does not match domain size {original.size}"
        )
    if original.is_categorical or unified.is_categorical:
        assert original._categories is not None
        out = np.zeros(unified.size, dtype=counts.dtype)
        idx = unified.indices_of(original._categories)
        out[idx] = counts
        return out
    assert original.low is not None and unified.low is not None
    offset = original.low - unified.low
    if offset < 0 or offset + original.size > unified.size:
        raise ValueError("original domain does not fit inside the unified domain")
    out = np.zeros(unified.size, dtype=counts.dtype)
    out[offset : offset + original.size] = counts
    return out
