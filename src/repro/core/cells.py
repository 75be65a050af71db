"""Distinct cells of a batch: the sparse frequency delta every linear synopsis needs.

Each synopsis except the sample is a linear projection of the frequency
vector: the cosine sums (paper Eq. 3.3–3.5), the AGMS atoms, the
histogram buckets and the Haar coefficients.  A batch of ``B`` tuples
therefore changes every one of them only through its *distinct cells*
and their multiplicities, and a skewed stream holds far fewer distinct
cells than tuples.  :func:`distinct_cells` computes that pair once, with
a ``bincount`` when the domain is small next to the batch and a sort
otherwise.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = ["distinct_cells"]

#: Count into a dense ``bincount`` when the cell space is at most this many
#: times the batch; above it, sorting the batch is cheaper than scanning
#: the whole cell space.
_DENSE_FACTOR = 8

#: Largest cell space whose flat indices still fit an int64.
_MAX_FLAT_CELLS = 1 << 62


def distinct_cells(
    indices: NDArray[Any],
    shape: Sequence[int],
    weights: NDArray[Any] | None = None,
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Reduce a ``(B, d)`` array of cell indices to its distinct cells.

    ``indices`` must already lie inside ``shape``; callers validate their
    domains first.  Returns ``(cells, counts)``: the distinct ``(U, d)``
    int64 cells in lexicographic (C) order and the ``(U,)`` int64 sum of
    their ``weights`` (one per row when ``weights`` is ``None``).  Weights
    are integers of one sign, so no returned count is zero.
    """
    indices = np.asarray(indices, dtype=np.int64)
    ndim = indices.shape[1]
    size = 1
    for extent in shape:
        size *= int(extent)
    if size > _MAX_FLAT_CELLS:
        cells, inverse = np.unique(indices, axis=0, return_inverse=True)
        return cells, _summed(inverse.reshape(-1), cells.shape[0], weights)
    flat = indices[:, 0] if ndim == 1 else np.ravel_multi_index(tuple(indices.T), tuple(shape))
    if size <= _DENSE_FACTOR * flat.shape[0]:
        totals = _summed(flat, size, weights)
        keys = np.flatnonzero(totals)
        counts = totals[keys]
    elif weights is None:
        keys, counts = np.unique(flat, return_counts=True)
    else:
        keys, inverse = np.unique(flat, return_inverse=True)
        counts = _summed(inverse, keys.shape[0], weights)
    if ndim == 1:
        return keys[:, None], counts
    return np.stack(np.unravel_index(keys, tuple(shape)), axis=1), counts


def _summed(keys: NDArray[Any], length: int, weights: NDArray[Any] | None) -> NDArray[Any]:
    """Per-key totals of ``weights`` (or of ones) as int64.

    Weighted ``bincount`` sums in float64, which is exact for the integer
    multiplicities of any batch below 2^53 tuples.
    """
    if weights is None:
        return np.bincount(keys, minlength=length)
    return np.bincount(keys, weights=weights, minlength=length).astype(np.int64)
