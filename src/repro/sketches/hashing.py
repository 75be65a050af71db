"""Four-wise independent hashing for AGMS sketches.

Atomic sketches need ±1 random variables ``xi(v)`` that are 4-wise
independent across domain values (Alon et al. [2]); this module provides
the classic polynomial construction: degree-3 polynomials with random
coefficients over the Mersenne prime ``p = 2^31 - 1``, evaluated by Horner's
rule entirely in ``uint64`` (every intermediate product is below ``2^62``),
with the sign taken from the low bit.

A :class:`SignFamily` bundles ``S`` independent such functions over one
attribute domain and evaluates them vectorized: ``signs(indices)`` returns
the ``(S, B)`` matrix of ±1 values all atomic sketches need for a batch of
``B`` arrivals.

A family's signs never change, so it evaluates its polynomials once: the
first :meth:`SignFamily.signs_at` or :meth:`SignFamily.sign_table` call
builds the whole ``(S, n)`` table as int8 (``S * n`` bytes) and every later
batch gathers columns from it.  Families whose table would pass
:data:`SIGN_TABLE_MAX_BYTES` keep no table and hash only the cells asked for.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

#: Mersenne prime 2^31 - 1; coefficients and values live in [0, p).
MERSENNE_P = np.uint64((1 << 31) - 1)

_POLY_DEGREE = 4  # 4 coefficients -> 4-wise independence

#: Largest sign table a family caches (``S * n`` int8 bytes).  The paper's
#: full scale (n = 10^5, S = 1000) would need 100 MB; above the cap every
#: batch hashes its distinct cells instead.
SIGN_TABLE_MAX_BYTES = 32 << 20


class SignFamily:
    """``S`` independent 4-wise ±1 hash functions over a domain of size ``n``.

    Two sketches are joinable only if built from the *same* family (same
    seed, size and domain), exactly as the paper's sketches share their
    random vectors across the two streams of a join.
    """

    def __init__(self, domain_size: int, num_functions: int, seed: int) -> None:
        if domain_size < 1:
            raise ValueError(f"domain size must be >= 1, got {domain_size}")
        if domain_size >= int(MERSENNE_P):
            raise ValueError("domain size must be below 2^31 - 1")
        if num_functions < 1:
            raise ValueError(f"need at least one hash function, got {num_functions}")
        self.domain_size = domain_size
        self.num_functions = num_functions
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._coeffs = rng.integers(
            0, int(MERSENNE_P), size=(num_functions, _POLY_DEGREE), dtype=np.uint64
        )
        # The leading coefficient must be nonzero for full degree.
        zero_lead = self._coeffs[:, 0] == 0
        self._coeffs[zero_lead, 0] = 1
        self._table: NDArray[Any] | None = None

    @property
    def table_bytes(self) -> int:
        """Size of the full ``(S, n)`` int8 sign table."""
        return self.num_functions * self.domain_size

    def compatible_with(self, other: "SignFamily") -> bool:
        """Whether two families generate identical sign sequences."""
        return (
            self.domain_size == other.domain_size
            and self.num_functions == other.num_functions
            and self.seed == other.seed
        )

    def hash_values(self, indices: NDArray[Any]) -> NDArray[Any]:
        """Evaluate all ``S`` polynomials at the given domain indices.

        Returns a ``(S, B)`` uint64 array of values in ``[0, p)``.
        """
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.domain_size):
            raise ValueError("index outside the hashed domain")
        x = idx.astype(np.uint64)[None, :]
        acc = np.empty((self.num_functions, x.shape[1]), dtype=np.uint64)
        acc[:] = self._coeffs[:, :1]
        for degree in range(1, _POLY_DEGREE):
            np.multiply(acc, x, out=acc)
            np.add(acc, self._coeffs[:, degree : degree + 1], out=acc)
            np.remainder(acc, MERSENNE_P, out=acc)
        return acc

    def signs(self, indices: NDArray[Any]) -> NDArray[Any]:
        """±1 sign matrix ``(S, B)`` for a batch of domain indices."""
        out = (self.hash_values(indices) & np.uint64(1)).astype(np.int8)
        out *= 2
        out -= 1
        return out

    def sign_matrix(self, chunk: int | None = None) -> NDArray[Any]:
        """Dense ``(S, n)`` sign matrix over the whole domain, chunked.

        Always evaluates the polynomials afresh; :meth:`sign_table` is the
        cached read-only form.  ``chunk`` columns are hashed at a time (by
        default about 64k hash values, a 512 KB scratch buffer).
        """
        if chunk is None:
            chunk = max(1, (1 << 16) // self.num_functions)
        out = np.empty((self.num_functions, self.domain_size), dtype=np.int8)
        for start in range(0, self.domain_size, chunk):
            stop = min(start + chunk, self.domain_size)
            out[:, start:stop] = self.signs(np.arange(start, stop))
        return out

    def sign_table(self) -> NDArray[Any]:
        """The read-only ``(S, n)`` int8 sign matrix, built on first use.

        Cached when it fits :data:`SIGN_TABLE_MAX_BYTES`; a larger one is
        rebuilt on every call.  Used by construction from frequency
        vectors and by the skimmed sketch's per-value frequency estimates.
        """
        if self._table is not None:
            return self._table
        table = self.sign_matrix()
        table.flags.writeable = False
        if self.table_bytes <= SIGN_TABLE_MAX_BYTES:
            self._table = table
        return table

    def signs_at(self, indices: NDArray[Any]) -> NDArray[Any]:
        """±1 int8 signs ``(S, U)`` at the given domain indices.

        Gathered from the cached :meth:`sign_table` when the family is
        under the byte cap; otherwise only these indices are hashed.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self.domain_size):
            raise ValueError("index outside the hashed domain")
        if self.table_bytes > SIGN_TABLE_MAX_BYTES:
            return self.signs(idx)
        return self.sign_table()[:, idx]
