import numpy as np
import pytest

from traitgru import kernel


class TestMatvec:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(kernel.matvec(np.eye(3), v), v)

    def test_zero_matrix_annihilates(self):
        out = kernel.matvec(np.zeros((2, 3)), np.array([5.0, -1.0, 2.0]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_hand_expanded(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(kernel.matvec(m, np.array([1.0, 1.0])), [3.0, 7.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2,\)"):
            kernel.matvec(np.zeros((2, 3)), np.zeros(2))

    def test_nonfinite_result_aborts(self):
        huge = np.full((1, 2), 1e308)
        with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError, match="matvec"):
            kernel.matvec(huge, np.array([1e308, 1e308]))

    def test_distributes_over_addition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r, c = rng.integers(1, 6, size=2)
            m = rng.normal(size=(r, c))
            a = rng.normal(size=c)
            b = rng.normal(size=c)
            np.testing.assert_allclose(
                kernel.matvec(m, a + b),
                kernel.matvec(m, a) + kernel.matvec(m, b),
                rtol=1e-12, atol=1e-12,
            )


class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert kernel.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_of_one(self):
        np.testing.assert_allclose(kernel.sigmoid(np.array([1.0]))[0],
                                   0.7310585786, atol=1e-9)

    def test_tanh_relu_trivia(self):
        assert np.tanh(np.array([0.0]))[0] == 0.0
        assert kernel.relu_v(np.array([-1.0]))[0] == 0.0
        assert kernel.relu_v(np.array([2.0]))[0] == 2.0

    def test_ranges_on_fuzzed_inputs(self):
        # float64 saturates sigmoid past |x|~36 and tanh past |x|~19;
        # strict bounds are tested on the representable range
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, size=10_000)
        s = kernel.sigmoid(x)
        t = np.tanh(np.clip(x, -18.0, 18.0))
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))
        assert np.all(kernel.relu_v(x) >= 0)

    def test_sigmoid_extreme_inputs_no_overflow(self):
        out = kernel.sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0  # saturates, never NaN/Inf
