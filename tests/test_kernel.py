"""The elementwise kernels of the GRU cell and the head's finiteness check."""

import numpy as np
import pytest

from traitgru.gru import sigmoid
from traitgru.model import MlpHead, head_forward


class TestMatvec:
    def test_nonfinite_result_aborts(self):
        # The head's w_eh @ x overflows; the check stops it before the score.
        head = MlpHead(w_eh=np.full((1, 2), 1e308), b_h=np.zeros(1),
                       w_hy=np.ones((1, 1)), b_y=np.zeros(1))
        with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError, match="mlp head"):
            head_forward(head, np.array([1e308, 1e308]))

    def test_nonfinite_score_aborts(self):
        # w_eh @ x is finite, and the output layer's product overflows.
        head = MlpHead(w_eh=np.full((2, 1), 1e308), b_h=np.zeros(2),
                       w_hy=np.full((1, 2), 10.0), b_y=np.zeros(1))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                       match="mlp head .* non-finite score"):
            head_forward(head, np.array([1.0]))


class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_of_one(self):
        np.testing.assert_allclose(sigmoid(np.array([1.0]))[0],
                                   0.7310585786, atol=1e-9)

    def test_tanh_relu_trivia(self):
        assert np.tanh(np.array([0.0]))[0] == 0.0
        assert np.maximum(np.array([-1.0]), 0.0)[0] == 0.0
        assert np.maximum(np.array([2.0]), 0.0)[0] == 2.0

    def test_ranges_on_fuzzed_inputs(self):
        # float64 saturates sigmoid past |x|~36 and tanh past |x|~19;
        # strict bounds are tested on the representable range
        rng = np.random.default_rng(3)
        x = rng.uniform(-30, 30, size=10_000)
        s = sigmoid(x)
        t = np.tanh(np.clip(x, -18.0, 18.0))
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))
        assert np.all(np.maximum(x, 0.0) >= 0)

    def test_sigmoid_extreme_inputs_no_overflow(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0  # saturates, never NaN/Inf
