"""Unit tests for the CSR container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import FormatError
from repro.formats.csr import CSRMatrix


def _sample():
    # [[0, 1, 0], [2, 0, 3], [0, 0, 0]]
    return CSRMatrix(
        indptr=[0, 1, 3, 3], indices=[1, 0, 2], data=[1.0, 2.0, 3.0], n_cols=3
    )


class TestConstruction:
    def test_shape_and_nnz(self):
        m = _sample()
        assert m.shape == (3, 3)
        assert m.nnz == 3

    def test_from_scipy_roundtrip(self, small_matrix):
        again = CSRMatrix.from_scipy(small_matrix.to_scipy())
        assert np.array_equal(again.indptr, small_matrix.indptr)
        assert np.array_equal(again.indices, small_matrix.indices)
        assert np.allclose(again.data, small_matrix.data)

    def test_from_dense(self):
        dense = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert np.array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_from_rows(self):
        m = CSRMatrix.from_rows(
            [(np.array([1]), np.array([5.0])), (np.array([]), np.array([]))],
            n_cols=3,
        )
        assert m.n_rows == 2
        assert m.row_lengths().tolist() == [1, 0]

    def test_bad_indptr_start_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix(indptr=[1, 2], indices=[0], data=[1.0], n_cols=2)

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix(indptr=[0, 2, 1], indices=[0, 1], data=[1.0, 2.0], n_cols=2)

    def test_indptr_nnz_mismatch_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix(indptr=[0, 3], indices=[0], data=[1.0], n_cols=2)

    def test_column_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix(indptr=[0, 1], indices=[5], data=[1.0], n_cols=2)


class TestAccess:
    def test_row(self):
        indices, values = _sample().row(1)
        assert indices.tolist() == [0, 2]
        assert values.tolist() == [2.0, 3.0]

    def test_row_out_of_range(self):
        with pytest.raises(FormatError):
            _sample().row(3)

    def test_row_lengths(self):
        assert _sample().row_lengths().tolist() == [1, 2, 0]

    def test_row_slice_values(self):
        sliced = _sample().row_slice(1, 3)
        assert sliced.n_rows == 2
        assert np.array_equal(sliced.to_dense(), _sample().to_dense()[1:3])

    def test_row_slice_empty(self):
        assert _sample().row_slice(1, 1).n_rows == 0

    def test_row_slice_bounds_checked(self):
        with pytest.raises(FormatError):
            _sample().row_slice(2, 1)

    def test_row_slices_cover_matrix(self, small_matrix):
        parts = [small_matrix.row_slice(i, i + 500) for i in range(0, 2000, 500)]
        stacked = sp.vstack([p.to_scipy() for p in parts])
        assert (stacked != small_matrix.to_scipy()).nnz == 0


class TestComputation:
    def test_matvec_matches_dense(self, small_matrix, query):
        dense = small_matrix.to_dense()
        assert np.allclose(small_matrix.matvec(query), dense @ query)

    def test_matvec_shape_check(self):
        with pytest.raises(FormatError):
            _sample().matvec(np.ones(4))

    def test_with_data_replaces_values(self):
        m = _sample()
        doubled = m.with_data(m.data * 2)
        assert np.array_equal(doubled.data, m.data * 2)
        assert np.array_equal(doubled.indices, m.indices)

    def test_with_data_shape_check(self):
        with pytest.raises(FormatError):
            _sample().with_data(np.ones(5))
