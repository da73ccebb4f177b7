from dataclasses import fields

import numpy as np
import pytest

from traitgru.gru import (BiRnnParams, GruCellTrace, GruParams, birnn_backward,
                          birnn_forward, birnn_output, gru_backward, gru_forward,
                          rnn_backward, rnn_unroll, sigmoid)
from traitgru.rng import SplitMix64

# Frozen against an arbitrary-precision evaluation of the cell equations
# with all weights 1, all biases 0, x = 1, h_prev = 0 (and one more step).
SCALAR_GATE = 0.7310585786300049      # sigmoid(1)
SCALAR_CANDIDATE = 0.7615941559557649  # tanh(1)
SCALAR_H1 = 0.20482421480982514
SCALAR_H2 = 0.34675308287491943


def scalar_params(w: float = 1.0) -> GruParams:
    one = np.full((1, 1), w)
    return GruParams(w_z=one.copy(), w_r=one.copy(), w_h=one.copy(),
                     u_z=one.copy(), u_r=one.copy(), u_h=one.copy(),
                     b_z=np.zeros(1), b_r=np.zeros(1), b_h=np.zeros(1))


def random_params(rng: SplitMix64, d_in: int, h: int, scale: float = None) -> GruParams:
    s = scale if scale is not None else 1.0 / np.sqrt(max(d_in, h))

    def m(rows, cols):
        return rng.uniforms(rows * cols, -s, s).reshape(rows, cols)

    return GruParams(w_z=m(h, d_in), w_r=m(h, d_in), w_h=m(h, d_in),
                     u_z=m(h, h), u_r=m(h, h), u_h=m(h, h),
                     b_z=rng.uniforms(h, -s, s), b_r=rng.uniforms(h, -s, s),
                     b_h=rng.uniforms(h, -s, s))


def unroll(p: GruParams, xs) -> list:
    """rnn_unroll over one sequence, a pack of one: every trace holds (1, h) rows."""
    return rnn_unroll(p, xs, np.zeros((1, p.hidden_size)), [1] * len(xs))


def encode(p: BiRnnParams, xs):
    """birnn_forward over one sequence, a pack of one."""
    return birnn_forward(p, xs, [len(xs)])


def row(tr: GruCellTrace, i: int = 0) -> GruCellTrace:
    """Row i of a packed step's trace, as the (h,) trace gru_backward takes."""
    return GruCellTrace(*(getattr(tr, f.name)[i] for f in fields(tr)))


class TestForward:
    def test_zero_params_zero_state(self):
        p = GruParams.zeros(3, 2)
        tr = gru_forward(p, np.array([4.0, -1.0, 2.0]), np.zeros(2))
        np.testing.assert_array_equal(tr.z, [0.5, 0.5])
        np.testing.assert_array_equal(tr.r, [0.5, 0.5])
        np.testing.assert_array_equal(tr.h_tilde, np.zeros(2))
        np.testing.assert_array_equal(tr.h_new, np.zeros(2))

    def test_scalar_trivial(self):
        tr = gru_forward(scalar_params(), np.array([0.0]), np.array([0.0]))
        assert tr.z[0] == 0.5 and tr.r[0] == 0.5
        assert tr.h_tilde[0] == 0.0 and tr.h_new[0] == 0.0

    def test_scalar_derived(self):
        tr = gru_forward(scalar_params(), np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(tr.z[0], SCALAR_GATE, atol=1e-5)
        np.testing.assert_allclose(tr.h_tilde[0], SCALAR_CANDIDATE, atol=1e-5)
        np.testing.assert_allclose(tr.h_new[0], SCALAR_H1, atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gru_forward(scalar_params(), np.array([1.0, 2.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            gru_forward(scalar_params(), np.array([1.0]), np.array([0.0, 0.0]))


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
            hi = float(d_h_new @ gru_forward(p, x, h_prev).h_new)
            flat_t[i] = orig - eps
            lo = float(d_h_new @ gru_forward(p, x, h_prev).h_new)
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
        tr = gru_forward(p, rng.uniforms(3, -1, 1), rng.uniforms(2, -0.5, 0.5))
        g = gru_backward(p, tr, np.zeros(2))
        for name in ("d_w_z", "d_u_h", "d_b_r", "d_x", "d_h_prev"):
            np.testing.assert_array_equal(getattr(g, name), np.zeros_like(getattr(g, name)))

    def test_scalar_case_matches_finite_differences(self):
        p = scalar_params()
        x, h_prev = np.array([1.0]), np.array([0.0])
        d = np.array([1.0])
        tr = gru_forward(p, x, h_prev)
        g = gru_backward(p, tr, d)
        fd = finite_difference_cell(p, x, h_prev, d)
        analytic = {"w_z": g.d_w_z, "w_r": g.d_w_r, "w_h": g.d_w_h,
                    "u_z": g.d_u_z, "u_r": g.d_u_r, "u_h": g.d_u_h,
                    "b_z": g.d_b_z, "b_r": g.d_b_r, "b_h": g.d_b_h,
                    "x": g.d_x, "h_prev": g.d_h_prev}
        for name, a in analytic.items():
            assert max_rel_err(a, fd[name]) < 1e-6, name

    def test_random_cell_matches_finite_differences(self):
        rng = SplitMix64(99)
        p = random_params(rng, 3, 3)
        x = rng.uniforms(3, -1, 1)
        h_prev = rng.uniforms(3, -0.9, 0.9)
        d = rng.uniforms(3, -1, 1)
        tr = gru_forward(p, x, h_prev)
        g = gru_backward(p, tr, d)
        fd = finite_difference_cell(p, x, h_prev, d)
        assert max_rel_err(g.d_w_h, fd["w_h"]) < 1e-4
        assert max_rel_err(g.d_u_h, fd["u_h"]) < 1e-4
        assert max_rel_err(g.d_x, fd["x"]) < 1e-4
        assert max_rel_err(g.d_h_prev, fd["h_prev"]) < 1e-4


class TestUnroll:
    def test_single_step_equals_cell(self):
        rng = SplitMix64(1)
        p = random_params(rng, 2, 3)
        x = rng.uniforms(2, -1, 1)
        traces = unroll(p, [x])
        np.testing.assert_array_equal(traces[0].h_new[0],
                                      gru_forward(p, x, np.zeros(3)).h_new)

    def test_zero_params_stay_zero(self):
        p = GruParams.zeros(2, 2)
        rng = SplitMix64(2)
        xs = [rng.uniforms(2, -1, 1) for _ in range(5)]
        for tr in unroll(p, xs):
            np.testing.assert_array_equal(tr.h_new[0], np.zeros(2))

    def test_two_step_scalar_chain(self):
        traces = unroll(scalar_params(), [np.array([1.0]), np.array([1.0])])
        np.testing.assert_allclose(traces[0].h_new[0, 0], SCALAR_H1, atol=1e-5)
        np.testing.assert_allclose(traces[1].h_new[0, 0], SCALAR_H2, atol=1e-5)

    def test_states_chain(self):
        rng = SplitMix64(3)
        p = random_params(rng, 2, 2)
        xs = [rng.uniforms(2, -1, 1) for _ in range(4)]
        traces = unroll(p, xs)
        for a, b in zip(traces, traces[1:]):
            np.testing.assert_array_equal(b.h_prev, a.h_new)

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
        np.testing.assert_array_equal(out[:3], gru_forward(p.fwd, x, h0).h_new)
        np.testing.assert_array_equal(out[3:], gru_forward(p.bwd, x, h0).h_new)

    def test_zero_params_zero_vector(self):
        p = BiRnnParams(fwd=GruParams.zeros(2, 3), bwd=GruParams.zeros(2, 3))
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

    def test_direction_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            BiRnnParams(fwd=GruParams.zeros(2, 3), bwd=GruParams.zeros(2, 4))

    def test_reversal_duality(self):
        rng = SplitMix64(7)
        p = random_params(rng, 3, 4)
        xs = [rng.uniforms(3, -1, 1) for _ in range(6)]
        bp = BiRnnParams(fwd=random_params(rng, 3, 4), bwd=p)
        trace = encode(bp, xs)
        fwd_on_reversed = unroll(p, list(reversed(xs)))
        for a, b in zip(trace.bwd, fwd_on_reversed):
            np.testing.assert_allclose(a.h_new, b.h_new, atol=1e-12)


class TestInvariants:
    def test_gate_ranges_and_boundedness(self):
        rng = SplitMix64(8)
        for _ in range(200):
            d = 1 + rng.below(8)
            h = 1 + rng.below(8)
            p = random_params(rng, d, h)
            xs = [rng.uniforms(d, -1, 1) for _ in range(1 + rng.below(6))]
            for tr in unroll(p, xs):
                assert np.all((tr.z > 0) & (tr.z < 1))
                assert np.all((tr.r > 0) & (tr.r < 1))
                assert np.all((tr.h_tilde > -1) & (tr.h_tilde < 1))
                assert np.all((tr.h_new > -1) & (tr.h_new < 1))

    def test_long_sequence_stays_bounded(self):
        rng = SplitMix64(9)
        p = random_params(rng, 2, 3, scale=1.5)
        xs = [rng.uniforms(2, -3, 3) for _ in range(500)]
        for tr in unroll(p, xs):
            assert np.all(np.abs(tr.h_new) < 1)

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
            traces = unroll(p, xs)
            grads, d_xs, _ = rnn_backward(p, traces, d_last[None])
            eps = 1e-5
            for name, theta in p.tensors().items():
                flat = theta.reshape(-1)
                fd = np.zeros_like(flat)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    hi = float(d_last @ unroll(p, xs)[-1].h_new[0])
                    flat[i] = orig - eps
                    lo = float(d_last @ unroll(p, xs)[-1].h_new[0])
                    flat[i] = orig
                    fd[i] = (hi - lo) / (2 * eps)
                worst = max(worst, max_rel_err(grads[name].reshape(-1), fd))
            for t, x in enumerate(xs):
                fd = np.zeros(d)
                for i in range(d):
                    orig = x[i]
                    x[i] = orig + eps
                    hi = float(d_last @ unroll(p, xs)[-1].h_new[0])
                    x[i] = orig - eps
                    lo = float(d_last @ unroll(p, xs)[-1].h_new[0])
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
        traces = unroll(p, xs)
        grads, d_xs, d_h0 = rnn_backward(p, traces, d_last[None])
        ref = {name: np.zeros_like(arr) for name, arr in p.tensors().items()}
        d_h = d_last
        ref_d_xs = [None] * len(traces)
        for t in range(len(traces) - 1, -1, -1):
            g = gru_backward(p, row(traces[t]), d_h)
            for name in ref:
                ref[name] += getattr(g, "d_" + name)
            ref_d_xs[t] = g.d_x
            d_h = g.d_h_prev
        for name in ref:
            np.testing.assert_allclose(grads[name], ref[name], rtol=1e-12, atol=1e-14)
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
        assert max_rel_err(grads[name].reshape(-1), fd) < 1e-4, name
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
