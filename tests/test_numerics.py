import numpy as np
import pytest

from helpers import sigmoid_reference
from nnlm.numerics import (Gradients, init_matrix, log_softmax,
                           log_softmax_rows, make_rng, sigmoid, sigmoid_deriv,
                           softmax, tanh_deriv)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_large_inputs_do_not_overflow(self):
        np.testing.assert_allclose(softmax([1000.0, 1000.0]), [0.5, 0.5])

    def test_exact_ratios(self):
        np.testing.assert_allclose(softmax(np.log([1.0, 3.0])), [0.25, 0.75],
                                   atol=1e-14)

    def test_sums_to_one_long_vectors(self):
        rng = make_rng(7)
        for n in (3, 100, 20000):
            p = softmax(rng.normal(0, 5, size=n))
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    def test_shift_invariance(self):
        rng = make_rng(8)
        y = rng.normal(size=40)
        for c in (-100.0, 3.7, 250.0):
            np.testing.assert_allclose(softmax(y + c), softmax(y), atol=1e-12)

    def test_argmax_preserved(self):
        y = np.array([0.3, 9.2, -4.0, 9.1])
        assert softmax(y).argmax() == y.argmax()

    def test_log_softmax_matches_log_of_softmax(self):
        y = make_rng(9).normal(size=30)
        np.testing.assert_allclose(log_softmax(y), np.log(softmax(y)), atol=1e-12)

    def test_log_softmax_rows_is_row_by_row(self):
        y = make_rng(10).normal(0, 30, size=(6, 500))
        rows = np.array([log_softmax(row) for row in y])
        out = log_softmax_rows(y)
        assert out is y
        np.testing.assert_allclose(out, rows, rtol=0, atol=1e-12)
        assert log_softmax_rows(np.zeros((0, 4))).shape == (0, 4)


class TestActivations:
    def test_values_at_zero(self):
        assert float(sigmoid(0.0)) == 0.5

    def test_sigmoid_bit_identical_to_two_branch_form(self):
        special = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0,
                   800.0, -800.0, np.inf, -np.inf, np.nan]
        x = np.concatenate([special, make_rng(12).normal(size=1000) * 50])
        with np.errstate(all="ignore"):
            got, want = sigmoid(x), sigmoid_reference(x)
        assert got.tobytes() == want.tobytes()

    def test_sigmoid_symmetry(self):
        assert abs(float(sigmoid(-2.0)) - (1.0 - float(sigmoid(2.0)))) < 1e-15

    def test_derivatives_at_zero(self):
        assert sigmoid_deriv(float(sigmoid(0.0))) == 0.25
        assert tanh_deriv(np.tanh(0.0)) == 1.0

    def test_derivatives_match_finite_differences(self):
        h = 1e-6
        xs = np.linspace(-4, 4, 101)
        num_sig = (sigmoid(xs + h) - sigmoid(xs - h)) / (2 * h)
        np.testing.assert_allclose(sigmoid_deriv(sigmoid(xs)), num_sig, atol=1e-8)
        num_tanh = (np.tanh(xs + h) - np.tanh(xs - h)) / (2 * h)
        np.testing.assert_allclose(tanh_deriv(np.tanh(xs)), num_tanh, atol=1e-8)

    def test_extreme_inputs_stay_finite(self):
        assert float(sigmoid(1000.0)) == 1.0
        assert float(sigmoid(-1000.0)) == 0.0


class TestInit:
    def test_same_seed_same_matrix(self):
        a = init_matrix(5, 7, make_rng(3))
        b = init_matrix(5, 7, make_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_range(self):
        m = init_matrix(50, 50, make_rng(4))
        assert np.all(np.abs(m) <= 0.1)

    def test_mean_of_many_samples_near_zero(self):
        m = init_matrix(1000, 1000, make_rng(5))
        assert abs(m.mean()) < 1e-3

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            init_matrix(0, 3, make_rng(0))


class TestGradients:
    def test_update_carries_rows_and_factors_and_drops_stale_ones(self):
        g = Gradients({"a": np.ones(2)})
        g.set_rows("r", np.array([3]), np.ones((1, 2)))
        g.set_factors("f", np.ones((4, 1)), np.ones((1, 2)))
        other = Gradients({"r": np.zeros((5, 2))})
        other.set_factors("a", np.ones((2, 1)), np.ones((1, 3)))
        other.set_rows("f", np.array([0, 2]), np.ones((2, 2)))
        g.update(other)
        assert set(g.rows) == {"f"} and set(g.factors) == {"a"}
        assert g.factors["a"].shape == (1, 3)
        g["a"] = np.zeros(2)
        assert not g.factors and set(g.rows) == {"f"}
