"""``distinct_cells``: a batch reduced to its distinct cells and counts."""

import numpy as np
import pytest

from repro.core import cells as cells_module
from repro.core.cells import distinct_cells


def reference(indices, weights=None):
    """``np.unique`` over rows, summing weights (ones by default)."""
    unique, inverse = np.unique(indices, axis=0, return_inverse=True)
    if weights is None:
        weights = np.ones(len(indices), dtype=np.int64)
    counts = np.zeros(len(unique), dtype=np.int64)
    np.add.at(counts, inverse.reshape(-1), weights)
    return unique, counts


@pytest.mark.parametrize(
    "shape, batch",
    [((50,), 400), ((5000,), 40), ((30, 20), 500), ((300, 400), 60), ((4, 5, 6), 90)],
    ids=["1d-dense", "1d-sparse", "2d-dense", "2d-sparse", "3d"],
)
def test_matches_unique_over_rows(rng, shape, batch):
    indices = np.stack([rng.integers(0, n, size=batch) for n in shape], axis=1)
    cells, counts = distinct_cells(indices, shape)
    want_cells, want_counts = reference(indices)
    np.testing.assert_array_equal(cells, want_cells)
    np.testing.assert_array_equal(counts, want_counts)
    assert cells.dtype == counts.dtype == np.int64


@pytest.mark.parametrize("shape", [(50,), (5000,), (30, 20)])
def test_weights_are_summed_per_cell(rng, shape):
    indices = np.stack([rng.integers(0, n, size=80) for n in shape], axis=1)
    weights = -rng.integers(1, 4, size=80)
    cells, counts = distinct_cells(indices, shape, weights)
    want_cells, want_counts = reference(indices, weights)
    np.testing.assert_array_equal(cells, want_cells)
    np.testing.assert_array_equal(counts, want_counts)


def test_empty_batch():
    cells, counts = distinct_cells(np.empty((0, 2), dtype=np.int64), (3, 4))
    assert cells.shape == (0, 2) and counts.shape == (0,)


def test_cell_space_past_int64_falls_back_to_row_unique(monkeypatch):
    monkeypatch.setattr(cells_module, "_MAX_FLAT_CELLS", 10)
    indices = np.array([[3, 1], [0, 2], [3, 1]])
    cells, counts = distinct_cells(indices, (4, 4))
    np.testing.assert_array_equal(cells, [[0, 2], [3, 1]])
    np.testing.assert_array_equal(counts, [1, 2])
