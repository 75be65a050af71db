"""The cached int8 sign tables and the distinct-cell AGMS update.

Every batch path (``update_batch``, ``update_cells``, the per-tuple
``update``) now gathers signs from each family's cached table.  The
reference here hashes every tuple afresh with ``SignFamily.signs`` and
sums the sign products in int64, so the table path is checked against the
polynomials themselves, bit for bit.
"""

import numpy as np
import pytest

from repro.sketches import hashing
from repro.sketches.basic import AGMSSketch, median_of_means
from repro.sketches.hashing import SignFamily
from repro.sketches.skimmed import (
    MIN_MEANS_FOR_SKIMMING,
    estimate_join_size_skimmed,
    estimate_multijoin_size_skimmed,
    skim_threshold,
)


def hashed_atoms(families, rows, weight=1):
    """Atoms by hashing each tuple: ``weight * sum_b prod_j xi_j(rows[b, j])``."""
    total = np.zeros(families[0].num_functions, dtype=np.int64)
    for row in np.asarray(rows).reshape(len(rows), len(families)):
        signs = np.ones(families[0].num_functions, dtype=np.int64)
        for fam, value in zip(families, row):
            signs *= fam.signs(np.array([value]))[:, 0]
        total += weight * signs
    return total.astype(float)


@pytest.fixture
def zipf_rows(rng):
    return ((rng.zipf(1.3, size=500) - 1) % 120)[:, None]


class TestSignTable:
    def test_table_equals_sign_matrix(self):
        fam = SignFamily(300, 20, seed=4)
        np.testing.assert_array_equal(fam.sign_table(), fam.sign_matrix())
        assert fam.sign_table().dtype == np.int8

    def test_table_is_cached_read_only_and_built_lazily(self):
        fam = SignFamily(50, 8, seed=1)
        assert fam._table is None  # nothing built at construction
        table = fam.sign_table()
        assert fam.sign_table() is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_signs_at_gathers_table_columns(self):
        fam = SignFamily(64, 10, seed=2)
        idx = np.array([63, 0, 5, 5])
        np.testing.assert_array_equal(fam.signs_at(idx), fam.signs(idx))

    def test_over_the_cap_keeps_no_table(self, monkeypatch):
        monkeypatch.setattr(hashing, "SIGN_TABLE_MAX_BYTES", 100)
        fam = SignFamily(64, 10, seed=2)
        idx = np.array([1, 2, 63])
        np.testing.assert_array_equal(fam.signs_at(idx), fam.signs(idx))
        np.testing.assert_array_equal(fam.sign_table(), fam.sign_matrix())
        assert fam._table is None

    @pytest.mark.parametrize("bad", [[-1], [64], [0, 70]])
    def test_out_of_domain_index_raises(self, bad):
        fam = SignFamily(64, 10, seed=2)
        with pytest.raises(ValueError, match="outside the hashed domain"):
            fam.signs_at(np.array(bad))


class TestTablePathMatchesHashing:
    def test_one_attribute_batch(self, zipf_rows):
        fam = SignFamily(120, 30, seed=7)
        sketch = AGMSSketch(fam, 10, 3)
        sketch.update_batch(zipf_rows)
        np.testing.assert_array_equal(sketch.atoms, hashed_atoms([fam], zipf_rows))
        assert sketch.count == len(zipf_rows)

    def test_two_attribute_product_signs(self, rng):
        fams = [SignFamily(40, 15, seed=1), SignFamily(25, 15, seed=2)]
        rows = np.stack([rng.integers(0, 40, 300), rng.integers(0, 25, 300)], axis=1)
        batched = AGMSSketch(fams, 5, 3)
        batched.update_batch(rows)
        per_tuple = AGMSSketch(fams, 5, 3)
        for row in rows:
            per_tuple.update(row.tolist())
        expected = hashed_atoms(fams, rows)
        np.testing.assert_array_equal(batched.atoms, expected)
        np.testing.assert_array_equal(per_tuple.atoms, expected)

    def test_negative_weight_undoes_the_batch(self, zipf_rows):
        fam = SignFamily(120, 30, seed=7)
        sketch = AGMSSketch(fam, 10, 3)
        sketch.update_batch(zipf_rows)
        sketch.update_batch(zipf_rows[:200], weight=-1)
        np.testing.assert_array_equal(sketch.atoms, hashed_atoms([fam], zipf_rows[200:]))
        assert sketch.count == len(zipf_rows) - 200

    def test_empty_batch_is_a_no_op(self):
        fam = SignFamily(120, 30, seed=7)
        sketch = AGMSSketch(fam, 10, 3)
        sketch.update_batch(np.empty((0, 1), dtype=np.int64))
        assert not sketch.atoms.any() and sketch.count == 0
        assert fam._table is None

    def test_byte_cap_fallback_hashes_distinct_cells(self, zipf_rows, monkeypatch):
        monkeypatch.setattr(hashing, "SIGN_TABLE_MAX_BYTES", 0)
        fam = SignFamily(120, 30, seed=7)
        sketch = AGMSSketch(fam, 10, 3)
        sketch.update_batch(zipf_rows)
        sketch.update_batch(zipf_rows[:50], weight=-1)
        assert fam._table is None
        np.testing.assert_array_equal(sketch.atoms, hashed_atoms([fam], zipf_rows[50:]))

    def test_update_cells_takes_signed_multiplicities(self):
        fam = SignFamily(10, 6, seed=3)
        sketch = AGMSSketch(fam, 2, 3)
        sketch.update_cells(np.array([[2], [7]]), np.array([3, -1]))
        expected = hashed_atoms([fam], [[2], [2], [2]]) - hashed_atoms([fam], [[7]])
        np.testing.assert_array_equal(sketch.atoms, expected)
        assert sketch.count == 2

    @pytest.mark.parametrize("bad", [[[-1]], [[120]]])
    def test_out_of_domain_rows_raise(self, bad):
        sketch = AGMSSketch(SignFamily(120, 30, seed=7), 10, 3)
        with pytest.raises(ValueError, match="outside the hashed domain"):
            sketch.update_batch(np.array(bad))
        with pytest.raises(ValueError, match="outside the hashed domain"):
            sketch.update_cells(np.array(bad), np.array([1]))
        assert not sketch.atoms.any()


def skimmed_with_sign_matrix(a, b, threshold_factor=2.0):
    """The skimmed estimate from a freshly hashed float sign matrix.

    The straightforward formulation: per-atom products averaged per group,
    and every projection a full ``(S, n) @ (n,)`` product.
    """
    signs = a.families[0].sign_matrix().astype(float)
    s1, s2 = a.num_means, a.num_medians

    def skim(sketch):
        per_atom = sketch.atoms[:, None] * signs
        f_hat = np.median(per_atom.reshape(s2, s1, -1).mean(axis=1), axis=0)
        threshold = skim_threshold(sketch, threshold_factor)
        dense = np.where(f_hat >= threshold, np.maximum(np.rint(f_hat), 0.0), 0.0)
        return dense, sketch.atoms - signs @ dense

    dense_a, residual_a = skim(a)
    dense_b, residual_b = skim(b)
    return (
        float(dense_a @ dense_b)
        + median_of_means((signs @ dense_a) * residual_b, s1, s2)
        + median_of_means(residual_a * (signs @ dense_b), s1, s2)
        + median_of_means(residual_a * residual_b, s1, s2)
    )


class TestSkimmedReadsTheTable:
    def test_estimate_equals_sign_matrix_reference(self, rng):
        n = 400
        fam = SignFamily(n, MIN_MEANS_FOR_SKIMMING * 5, seed=9)
        a = AGMSSketch(fam, MIN_MEANS_FOR_SKIMMING, 5)
        b = AGMSSketch(fam, MIN_MEANS_FOR_SKIMMING, 5)
        a.update_batch(((rng.zipf(1.2, size=4000) - 1) % n)[:, None])
        b.update_batch(((rng.zipf(1.2, size=4000) - 1) % n)[:, None])
        result = estimate_join_size_skimmed(a, b)
        assert result.dense_values_a > 0  # heavy hitters were skimmed
        assert result.estimate == skimmed_with_sign_matrix(a, b)
        assert estimate_multijoin_size_skimmed([a, b]) == result.estimate
