import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsxplain.errors import ShapeError, SingularSystemError
from tsxplain.numerics import (
    RngStream,
    normal_equations,
    sigmoid,
    softmax_axis,
    solve_normal,
    weighted_least_squares,
)

from oracles import finite_diff_grad, sigmoid_two_branch


class TestSigmoid:
    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
               36.0, -36.0, 709.0, -709.0, 745.0, -745.0, np.inf, -np.inf, np.nan,
               -np.nan]

    @staticmethod
    def same_bits(a, b) -> bool:
        return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_special_values_match_two_branch_form(self):
        x = np.array(self.SPECIAL)
        got, want = sigmoid(x), sigmoid_two_branch(x)
        assert np.array_equal(got, want, equal_nan=True)
        assert self.same_bits(got, want)  # signed zeros and nan payloads too

    def test_random_values_match_two_branch_form(self):
        x = RngStream(21).generator().uniform(-800.0, 800.0, 10_000)
        assert self.same_bits(sigmoid(x), sigmoid_two_branch(x))

    def test_shapes_and_views_preserved(self):
        gen = RngStream(22).generator()
        block = gen.normal(scale=20.0, size=(64, 16))
        for x in (np.float64(0.3), block, block[:, ::2], block.reshape(4, 16, 16)):
            got = sigmoid(x)
            assert got.shape == np.shape(x)
            assert self.same_bits(got, sigmoid_two_branch(x))

    def test_input_not_modified(self):
        x = np.array([-3.0, 0.0, 4.0])
        sigmoid(x)
        assert np.array_equal(x, [-3.0, 0.0, 4.0])


class TestSoftmax:
    def test_all_equal_column_uniform(self):
        m = np.full((4, 2), 3.7)
        out = softmax_axis(m, axis="cols")
        assert np.abs(out - 0.25).max() < 1e-12

    def test_closed_form(self):
        m = np.array([[np.log(1.0)], [np.log(3.0)]])
        out = softmax_axis(m, axis="cols")
        assert np.abs(out - np.array([[0.25], [0.75]])).max() < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_columns_sum_to_one(self, seed):
        gen = RngStream(seed).generator()
        m = gen.normal(scale=5.0, size=(5, 3))
        out = softmax_axis(m, axis="cols")
        assert np.abs(out.sum(axis=0) - 1.0).max() < 1e-12
        assert (out >= 0).all()

    def test_shift_invariance(self):
        gen = RngStream(9).generator()
        m = gen.normal(size=(4, 3))
        shifted = m + 123.456
        a = softmax_axis(m, axis="cols")
        b = softmax_axis(shifted, axis="cols")
        assert np.abs(a - b).max() < 1e-9

    def test_rows_axis(self):
        gen = RngStream(10).generator()
        m = gen.normal(size=(3, 5))
        out = softmax_axis(m, axis="rows")
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_no_overflow(self):
        out = softmax_axis(np.array([[1000.0, -1000.0]]).T, axis="cols")
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("F", [1, 3, 14, 200])
    def test_batched_columns_match_per_matrix(self, F):
        # the model's batched (n, F, T) attention softmax gives the bits of
        # each patient's (F, T) column softmax
        x = 10.0 * RngStream(F).generator().normal(size=(5, F, 9))
        out = softmax_axis(x, axis="cols")
        for i in range(5):
            assert np.array_equal(out[i], softmax_axis(x[i], axis="cols"))

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    def test_stack_matches_per_matrix(self, axis):
        x = 10.0 * RngStream(8).generator().normal(size=(2, 3, 4, 5))
        out = softmax_axis(x, axis=axis)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], softmax_axis(x[i, j], axis=axis))

    def test_vector_rejected(self):
        with pytest.raises(ShapeError):
            softmax_axis(np.zeros(3), axis="cols")


class TestWeightedLeastSquares:
    def test_exact_2x2(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        y = np.array([5.0, 10.0])
        expected = np.linalg.solve(A, y)
        got = weighted_least_squares(A, y, np.ones(2), ridge=0.0)
        assert np.abs(got - expected).max() < 1e-10

    def test_weight_semantics(self):
        # duplicate rows weighted {2, 0} behave like a single row of weight 2
        row = np.array([1.0, 2.0])
        design_a = np.array([row, [3.0, -1.0], row])
        targets_a = np.array([4.0, 1.0, 99.0])
        weights_a = np.array([2.0, 1.0, 0.0])
        design_b = np.array([row, [3.0, -1.0]])
        targets_b = np.array([4.0, 1.0])
        weights_b = np.array([2.0, 1.0])
        a = weighted_least_squares(design_a, targets_a, weights_a, ridge=0.0)
        b = weighted_least_squares(design_b, targets_b, weights_b, ridge=0.0)
        assert np.abs(a - b).max() < 1e-10

    def test_huge_ridge_shrinks_to_zero(self):
        gen = RngStream(3).generator()
        X = gen.normal(size=(10, 3))
        y = gen.normal(size=10)
        coeffs = weighted_least_squares(X, y, np.ones(10), ridge=1e9)
        assert np.abs(coeffs).max() < 1e-6

    def test_singular_without_ridge(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularSystemError, match="ridge"):
            weighted_least_squares(X, np.ones(3), np.ones(3), ridge=0.0)

    def test_one_factor_many_targets(self):
        """Fits that share a design and weights factor them once; each
        target's solve has the bits of its own whole fit."""
        gen = RngStream(4).generator()
        X, w = gen.normal(size=(40, 5)), gen.random(40)
        eq = normal_equations(X, w, ridge=1e-6)
        for y in gen.normal(size=(3, 40)):
            want = weighted_least_squares(X, y, w, ridge=1e-6)
            assert solve_normal(eq, y).tobytes() == want.tobytes()
        with pytest.raises(ShapeError):
            solve_normal(eq, np.ones(39))
        with pytest.raises(SingularSystemError, match="ridge"):
            normal_equations(np.ones((3, 2)), np.ones(3), ridge=0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_finite_with_positive_ridge(self, seed):
        gen = RngStream(seed).generator()
        X = gen.normal(size=(6, 6))
        X[:, 3] = X[:, 2]  # force rank deficiency
        coeffs = weighted_least_squares(
            X, gen.normal(size=6), gen.random(6), ridge=1e-6
        )
        assert np.all(np.isfinite(coeffs))


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda p: p[0] ** 2, np.array([3.0]), 1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant(self):
        g = finite_diff_grad(lambda p: 42.0, np.array([1.0, 2.0]), 1e-5)
        assert np.array_equal(g, np.zeros(2))

    def test_sigmoid_derivative_at_zero(self):
        g = finite_diff_grad(lambda p: float(sigmoid(p)[0]), np.array([0.0]), 1e-5)
        assert abs(g[0] - 0.25) < 1e-6

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: 0.0, np.array([0.0]), 0.0)


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(42).generator().random(10)
        b = RngStream(42).generator().random(10)
        assert np.array_equal(a, b)

    def test_children_are_independent_streams(self):
        root = RngStream(7)
        a = root.child(0).generator().random(5)
        b = root.child(1).generator().random(5)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, root.child(0).generator().random(5))

    def test_parent_unchanged_by_children(self):
        root = RngStream(7)
        before = root.generator().random(3)
        root.child(99)
        assert np.array_equal(before, root.generator().random(3))
