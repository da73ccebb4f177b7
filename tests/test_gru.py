from typing import NamedTuple

import numpy as np
import pytest

from traitgru.gru import (TENSOR_NAMES, BiRnnParams, GruParams, RnnTrace, birnn_backward,
                          birnn_final, birnn_forward, birnn_output, gru_forward, rnn_backward,
                          rnn_final, rnn_unroll, sigmoid)
from traitgru.rng import SplitMix64

# Frozen against an arbitrary-precision evaluation of the cell equations
# with all weights 1, all biases 0, x = 1, h_prev = 0 (and one more step).
SCALAR_GATE = 0.7310585786300049      # sigmoid(1)
SCALAR_CANDIDATE = 0.7615941559557649  # tanh(1)
SCALAR_H1 = 0.20482421480982514
SCALAR_H2 = 0.34675308287491943


def scalar_params(w: float = 1.0) -> GruParams:
    one = np.full((1, 1), w)
    return GruParams(np.vstack([one, one, one]), np.vstack([one, one, one]), np.zeros(3))


def zero_params(d_in: int, h: int) -> GruParams:
    return GruParams(np.zeros((3 * h, d_in)), np.zeros((3 * h, h)), np.zeros(3 * h))


def random_params(rng: SplitMix64, d_in: int, h: int, scale: float = None) -> GruParams:
    s = scale if scale is not None else 1.0 / np.sqrt(max(d_in, h))

    def m(rows, cols):
        return rng.uniforms(rows * cols, -s, s).reshape(rows, cols)

    W = np.vstack([m(h, d_in), m(h, d_in), m(h, d_in)])
    U = np.vstack([m(h, h), m(h, h), m(h, h)])
    b = np.concatenate([rng.uniforms(h, -s, s), rng.uniforms(h, -s, s), rng.uniforms(h, -s, s)])
    return GruParams(W, U, b)


def unroll(p: GruParams, xs) -> RnnTrace:
    """rnn_unroll over one sequence, a pack of one: row t is step t."""
    return rnn_unroll(p, xs, [1] * len(xs))


def encode(p: BiRnnParams, xs):
    """birnn_forward over one sequence, a pack of one."""
    return birnn_forward(p, xs, [len(xs)])


class Row(NamedTuple):
    """One step of one sequence as (h,) vectors: what gru_backward reads."""

    x: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    h_tilde: np.ndarray
    hu: np.ndarray
    h_new: np.ndarray


def cell(p: GruParams, x, h_prev) -> Row:
    """One step of gru_forward from an input vector x and state h_prev."""
    zr, h_tilde, hu, h_new = gru_forward(p, x @ p.W.T + p.b, h_prev)
    h = p.hidden_size
    return Row(x, h_prev, zr[:h], zr[h:], h_tilde, hu, h_new)


def row(trace: RnnTrace, t: int) -> Row:
    """Step t of a pack-of-one trace."""
    h = trace.h_new.shape[1]
    h_prev = trace.h_new[t - 1] if t else np.zeros(h)
    return Row(trace.x[t], h_prev, trace.zr[t, :h], trace.zr[t, h:], trace.h_tilde[t],
               trace.hu[t], trace.h_new[t])


def gru_backward(p: GruParams, t: Row, d_h_new: np.ndarray):
    """Exact gradients of one step of one sequence, given the upstream
    gradient on h_new: the step-by-step reference for rnn_backward.

    Returns (param gradient dict keyed like GruParams.tensors(), gradient
    w.r.t. x, gradient w.r.t. h_prev): the triple rnn_backward returns,
    with the parameter gradients by name.
    """
    if d_h_new.shape != t.h_new.shape:
        raise ValueError(f"d_h_new shape {d_h_new.shape} != {t.h_new.shape}")
    d_z = d_h_new * (t.h_prev - t.h_tilde)
    d_h_tilde = d_h_new * (1.0 - t.z)
    d_a_h = d_h_tilde * (1.0 - t.h_tilde * t.h_tilde)
    d_r = d_a_h * t.hu
    d_hu = d_a_h * t.r
    d_a_z = d_z * t.z * (1.0 - t.z)
    d_a_r = d_r * t.r * (1.0 - t.r)
    d_x = p.w_z.T @ d_a_z + p.w_r.T @ d_a_r + p.w_h.T @ d_a_h
    d_h_prev = d_h_new * t.z + p.u_z.T @ d_a_z + p.u_r.T @ d_a_r + p.u_h.T @ d_hu
    blocks = [np.outer(a, t.x) for a in (d_a_z, d_a_r, d_a_h)]
    blocks += [np.outer(a, t.h_prev) for a in (d_a_z, d_a_r, d_hu)]
    blocks += [d_a_z, d_a_r, d_a_h]
    return dict(zip(TENSOR_NAMES, blocks)), d_x, d_h_prev


class TestForward:
    def test_zero_params_zero_state(self):
        p = zero_params(3, 2)
        tr = cell(p, np.array([4.0, -1.0, 2.0]), np.zeros(2))
        np.testing.assert_array_equal(tr.z, [0.5, 0.5])
        np.testing.assert_array_equal(tr.r, [0.5, 0.5])
        np.testing.assert_array_equal(tr.h_tilde, np.zeros(2))
        np.testing.assert_array_equal(tr.h_new, np.zeros(2))

    def test_scalar_trivial(self):
        tr = cell(scalar_params(), np.array([0.0]), np.array([0.0]))
        assert tr.z[0] == 0.5 and tr.r[0] == 0.5
        assert tr.h_tilde[0] == 0.0 and tr.h_new[0] == 0.0

    def test_scalar_derived(self):
        tr = cell(scalar_params(), np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(tr.z[0], SCALAR_GATE, atol=1e-5)
        np.testing.assert_allclose(tr.h_tilde[0], SCALAR_CANDIDATE, atol=1e-5)
        np.testing.assert_allclose(tr.h_new[0], SCALAR_H1, atol=1e-5)

    def test_shape_mismatch(self):
        # The unroll's own input checks: the input width, and batch sizes
        # that add up to the rows.
        for run in (rnn_unroll, rnn_final):
            with pytest.raises(ValueError, match=r"inputs of shape \(2,\) != \(1,\)"):
                run(scalar_params(), np.ones((2, 2)), [1, 1])
            with pytest.raises(ValueError, match="batch sizes .* do not fit 3 rows"):
                run(scalar_params(), np.ones((3, 1)), [1, 1])


def finite_difference_cell(p: GruParams, x, h_prev, d_h_new, eps=1e-5):
    """Central differences of d_h_new . h_new(theta) for every tensor."""
    out = {}
    for name, theta in list(p.tensors().items()) + [("x", x), ("h_prev", h_prev)]:
        g = np.zeros_like(theta)
        flat_t = theta.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_t.size):
            orig = flat_t[i]
            flat_t[i] = orig + eps
            hi = float(d_h_new @ cell(p, x, h_prev).h_new)
            flat_t[i] = orig - eps
            lo = float(d_h_new @ cell(p, x, h_prev).h_new)
            flat_t[i] = orig
            flat_g[i] = (hi - lo) / (2 * eps)
        out[name] = g
    return out


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


class TestBackward:
    def test_zero_upstream_gradient(self):
        rng = SplitMix64(5)
        p = random_params(rng, 3, 2)
        tr = cell(p, rng.uniforms(3, -1, 1), rng.uniforms(2, -0.5, 0.5))
        grads, d_x, d_h_prev = gru_backward(p, tr, np.zeros(2))
        for g in (grads["w_z"], grads["u_h"], grads["b_r"], d_x, d_h_prev):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_scalar_case_matches_finite_differences(self):
        p = scalar_params()
        x, h_prev = np.array([1.0]), np.array([0.0])
        d = np.array([1.0])
        tr = cell(p, x, h_prev)
        grads, d_x, d_h_prev = gru_backward(p, tr, d)
        fd = finite_difference_cell(p, x, h_prev, d)
        analytic = dict(grads, x=d_x, h_prev=d_h_prev)
        for name, a in analytic.items():
            assert max_rel_err(a, fd[name]) < 1e-6, name

    def test_random_cell_matches_finite_differences(self):
        rng = SplitMix64(99)
        p = random_params(rng, 3, 3)
        x = rng.uniforms(3, -1, 1)
        h_prev = rng.uniforms(3, -0.9, 0.9)
        d = rng.uniforms(3, -1, 1)
        tr = cell(p, x, h_prev)
        grads, d_x, d_h_prev = gru_backward(p, tr, d)
        fd = finite_difference_cell(p, x, h_prev, d)
        assert max_rel_err(grads["w_h"], fd["w_h"]) < 1e-4
        assert max_rel_err(grads["u_h"], fd["u_h"]) < 1e-4
        assert max_rel_err(d_x, fd["x"]) < 1e-4
        assert max_rel_err(d_h_prev, fd["h_prev"]) < 1e-4


class TestUnroll:
    def test_single_step_equals_cell(self):
        rng = SplitMix64(1)
        p = random_params(rng, 2, 3)
        x = rng.uniforms(2, -1, 1)
        trace = unroll(p, [x])
        np.testing.assert_array_equal(trace.h_new[0], cell(p, x, np.zeros(3)).h_new)

    def test_zero_params_stay_zero(self):
        p = zero_params(2, 2)
        rng = SplitMix64(2)
        xs = [rng.uniforms(2, -1, 1) for _ in range(5)]
        np.testing.assert_array_equal(unroll(p, xs).h_new, np.zeros((5, 2)))

    def test_two_step_scalar_chain(self):
        trace = unroll(scalar_params(), [np.array([1.0]), np.array([1.0])])
        np.testing.assert_allclose(trace.h_new[0, 0], SCALAR_H1, atol=1e-5)
        np.testing.assert_allclose(trace.h_new[1, 0], SCALAR_H2, atol=1e-5)

    def test_states_chain(self):
        rng = SplitMix64(3)
        p = random_params(rng, 2, 2)
        xs = [rng.uniforms(2, -1, 1) for _ in range(4)]
        trace = unroll(p, xs)
        A = np.array(xs) @ p.W.T
        A += p.b
        h_prev = np.zeros((1, 2))
        for t in range(len(xs)):  # each step starts from the previous step's state
            h_prev = gru_forward(p, A[t:t + 1], h_prev)[-1]
            np.testing.assert_array_equal(trace.h_new[t:t + 1], h_prev)
        np.testing.assert_array_equal(trace.final, h_prev)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            unroll(scalar_params(), [])


class TestBiRnn:
    def test_length_one_is_two_single_steps(self):
        rng = SplitMix64(4)
        p = BiRnnParams(fwd=random_params(rng, 2, 3), bwd=random_params(rng, 2, 3))
        x = rng.uniforms(2, -1, 1)
        out = birnn_output(encode(p, [x]))[0]
        h0 = np.zeros(3)
        np.testing.assert_array_equal(out[:3], cell(p.fwd, x, h0).h_new)
        np.testing.assert_array_equal(out[3:], cell(p.bwd, x, h0).h_new)

    def test_zero_params_zero_vector(self):
        p = BiRnnParams(fwd=zero_params(2, 3), bwd=zero_params(2, 3))
        out = birnn_output(encode(p, [np.ones(2), np.ones(2)]))[0]
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_palindrome_with_tied_directions(self):
        rng = SplitMix64(6)
        fwd = random_params(rng, 2, 3)
        p = BiRnnParams(fwd=fwd, bwd=fwd)
        a, b = rng.uniforms(2, -1, 1), rng.uniforms(2, -1, 1)
        out = birnn_output(encode(p, [a, b, a]))[0]
        np.testing.assert_allclose(out[:3], out[3:], atol=1e-12)

    def test_empty_sequence_rejected(self):
        p = BiRnnParams(fwd=scalar_params(), bwd=scalar_params())
        with pytest.raises(ValueError):
            birnn_output(encode(p, []))

    def test_lengths_must_add_up_to_the_inputs(self):
        p = BiRnnParams(fwd=scalar_params(), bwd=scalar_params())
        for run in (birnn_forward, birnn_final):
            with pytest.raises(ValueError, match="lengths add up to 3, not to the 2 inputs"):
                run(p, np.ones((2, 1)), [2, 1])

    def test_reversal_duality(self):
        rng = SplitMix64(7)
        p = random_params(rng, 3, 4)
        xs = [rng.uniforms(3, -1, 1) for _ in range(6)]
        bp = BiRnnParams(fwd=random_params(rng, 3, 4), bwd=p)
        trace = encode(bp, xs)
        fwd_on_reversed = unroll(p, list(reversed(xs)))
        np.testing.assert_allclose(trace.bwd.h_new, fwd_on_reversed.h_new, atol=1e-12)


class TestInvariants:
    def test_gate_ranges_and_boundedness(self):
        rng = SplitMix64(8)
        for _ in range(200):
            d = 1 + rng.below(8)
            h = 1 + rng.below(8)
            p = random_params(rng, d, h)
            xs = [rng.uniforms(d, -1, 1) for _ in range(1 + rng.below(6))]
            tr = unroll(p, xs)
            assert np.all((tr.zr > 0) & (tr.zr < 1))
            assert np.all((tr.h_tilde > -1) & (tr.h_tilde < 1))
            assert np.all((tr.h_new > -1) & (tr.h_new < 1))

    def test_long_sequence_stays_bounded(self):
        rng = SplitMix64(9)
        p = random_params(rng, 2, 3, scale=1.5)
        xs = [rng.uniforms(2, -3, 3) for _ in range(500)]
        assert np.all(np.abs(unroll(p, xs).h_new) < 1)

    def test_bptt_matches_finite_differences_50_configs(self):
        """Full-unroll gradient check across 50 random tiny configurations."""
        rng = SplitMix64(10)
        dims = (1, 2, 3, 5)
        worst = 0.0
        for _ in range(50):
            d = dims[rng.below(4)]
            h = dims[rng.below(4)]
            p = random_params(rng, d, h)
            xs = [rng.uniforms(d, -1, 1) for _ in range(1 + rng.below(4))]
            d_last = rng.uniforms(h, -1, 1)
            grads, d_xs, _ = rnn_backward(p, unroll(p, xs), d_last[None])
            eps = 1e-5
            for name, theta in p.tensors().items():
                flat = theta.reshape(-1)
                fd = np.zeros_like(flat)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    hi = float(d_last @ unroll(p, xs).final[0])
                    flat[i] = orig - eps
                    lo = float(d_last @ unroll(p, xs).final[0])
                    flat[i] = orig
                    fd[i] = (hi - lo) / (2 * eps)
                worst = max(worst, max_rel_err(grads.tensors()[name].reshape(-1), fd))
            for t, x in enumerate(xs):
                fd = np.zeros(d)
                for i in range(d):
                    orig = x[i]
                    x[i] = orig + eps
                    hi = float(d_last @ unroll(p, xs).final[0])
                    x[i] = orig - eps
                    lo = float(d_last @ unroll(p, xs).final[0])
                    x[i] = orig
                    fd[i] = (hi - lo) / (2 * eps)
                worst = max(worst, max_rel_err(d_xs[t], fd))
        assert worst < 1e-4, f"max relative error {worst:.3e}"


def test_rnn_backward_equals_stepwise_cell_backward():
    # the batched unroll backward must agree with accumulating the
    # single-cell reference step by step
    rng = SplitMix64(55)
    for _ in range(10):
        d = 1 + rng.below(4)
        h = 1 + rng.below(4)
        p = random_params(rng, d, h)
        xs = [rng.uniforms(d, -1, 1) for _ in range(1 + rng.below(5))]
        d_last = rng.uniforms(h, -1, 1)
        trace = unroll(p, xs)
        grads, d_xs, d_h0 = rnn_backward(p, trace, d_last[None])
        ref = {name: np.zeros_like(arr) for name, arr in p.tensors().items()}
        d_h = d_last
        ref_d_xs = [None] * len(trace)
        for t in range(len(trace) - 1, -1, -1):
            g, ref_d_xs[t], d_h = gru_backward(p, row(trace, t), d_h)
            for name in ref:
                ref[name] += g[name]
        for name in ref:
            np.testing.assert_allclose(grads.tensors()[name], ref[name], rtol=1e-12,
                                       atol=1e-14)
        for a, b in zip(d_xs, ref_d_xs):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(d_h0[0], d_h, rtol=1e-12, atol=1e-14)


def test_birnn_backward_matches_finite_differences():
    rng = SplitMix64(11)
    p = BiRnnParams(fwd=random_params(rng, 2, 2), bwd=random_params(rng, 2, 2))
    xs = [rng.uniforms(2, -1, 1) for _ in range(3)]
    d_out = rng.uniforms(4, -1, 1)
    trace = encode(p, xs)
    grads, d_xs = birnn_backward(p, trace, d_out[None])
    eps = 1e-5
    tensors = p.tensors()
    for name, theta in tensors.items():
        flat = theta.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(d_out @ birnn_output(encode(p, xs))[0])
            flat[i] = orig - eps
            lo = float(d_out @ birnn_output(encode(p, xs))[0])
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * eps)
        assert max_rel_err(grads.tensors()[name].reshape(-1), fd) < 1e-4, name
    for t, x in enumerate(xs):
        fd = np.zeros(2)
        for i in range(2):
            orig = x[i]
            x[i] = orig + eps
            hi = float(d_out @ birnn_output(encode(p, xs))[0])
            x[i] = orig - eps
            lo = float(d_out @ birnn_output(encode(p, xs))[0])
            x[i] = orig
            fd[i] = (hi - lo) / (2 * eps)
        assert max_rel_err(d_xs[t], fd) < 1e-4


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
