"""Unit tests for the golden Top-K reference."""

import numpy as np
import pytest

from repro.core.reference import (
    TopKResult,
    dense_order,
    exact_topk_spmv,
    topk_from_scores,
)
from repro.errors import ConfigurationError


class TestTopKResult:
    def test_length_and_iteration(self):
        r = TopKResult(indices=[3, 1], values=[0.9, 0.5])
        assert len(r) == 2
        assert list(r) == [(3, 0.9), (1, 0.5)]

    def test_head(self):
        r = TopKResult(indices=[3, 1, 2], values=[0.9, 0.5, 0.1])
        assert r.head(2).indices.tolist() == [3, 1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            TopKResult(indices=[1, 2], values=[0.5])


class TestTopKFromScores:
    def test_basic_selection(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        r = topk_from_scores(scores, 2)
        assert r.indices.tolist() == [1, 3]
        assert r.values.tolist() == [0.9, 0.7]

    def test_descending_order(self, rng):
        scores = rng.random(500)
        r = topk_from_scores(scores, 50)
        assert (np.diff(r.values) <= 0).all()

    def test_k_larger_than_n_clamps(self):
        r = topk_from_scores(np.array([0.3, 0.1]), 10)
        assert r.indices.tolist() == [0, 1]

    def test_ties_broken_by_ascending_index(self):
        scores = np.array([0.5, 0.9, 0.5, 0.5])
        r = topk_from_scores(scores, 3)
        assert r.indices.tolist() == [1, 0, 2]

    def test_nan_ranks_below_minus_inf(self):
        scores = np.array([np.nan, 1.0, 0.5, -np.inf])
        assert topk_from_scores(scores, 2).indices.tolist() == [1, 2]
        r = topk_from_scores(scores, 4)
        assert r.indices.tolist() == [1, 2, 3, 0]
        assert r.values[:3].tolist() == [1.0, 0.5, -np.inf]
        assert np.isnan(r.values[3])
        # The order dense_order sorts candidates in, NaN rows by index.
        nans = np.array([np.nan, np.inf, np.nan, -np.inf])
        want = dense_order(np.arange(4)[None], nans[None])[0]
        assert topk_from_scores(nans, 4).indices.tolist() == want.tolist() == [1, 3, 0, 2]

    def test_matches_full_sort(self, rng):
        scores = rng.random(1000)
        r = topk_from_scores(scores, 100)
        expected = np.argsort(-scores, kind="stable")[:100]
        assert r.indices.tolist() == expected.tolist()

    def test_k_equal_n(self, rng):
        scores = rng.random(16)
        r = topk_from_scores(scores, 16)
        assert sorted(r.indices.tolist()) == list(range(16))

    def test_rejects_2d_scores(self):
        with pytest.raises(ConfigurationError):
            topk_from_scores(np.ones((2, 2)), 1)

    def test_rejects_zero_k(self):
        with pytest.raises(ConfigurationError):
            topk_from_scores(np.ones(4), 0)


class TestExactTopKSpmv:
    def test_csr_and_dense_agree(self, small_matrix, query):
        from_csr = exact_topk_spmv(small_matrix, query, 10)
        from_dense = exact_topk_spmv(small_matrix.to_dense(), query, 10)
        assert from_csr.indices.tolist() == from_dense.indices.tolist()
        assert np.allclose(from_csr.values, from_dense.values)

    def test_scipy_input_accepted(self, small_matrix, query):
        from_scipy = exact_topk_spmv(small_matrix.to_scipy(), query, 10)
        from_csr = exact_topk_spmv(small_matrix, query, 10)
        assert from_scipy.indices.tolist() == from_csr.indices.tolist()

    def test_values_are_true_dot_products(self, small_matrix, query):
        r = exact_topk_spmv(small_matrix, query, 5)
        dense = small_matrix.to_dense()
        for row, value in r:
            assert dense[row] @ query == pytest.approx(value)

    def test_dimension_mismatch_rejected(self, small_matrix):
        with pytest.raises(ConfigurationError):
            exact_topk_spmv(small_matrix.to_dense(), np.ones(7), 3)

    def test_cosine_interpretation(self, small_matrix, query):
        # Normalised rows x normalised query: scores within [0, 1].
        r = exact_topk_spmv(small_matrix, query, 20)
        assert (r.values >= 0).all() and (r.values <= 1.0 + 1e-12).all()
