from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pytest

from traitgru import gru
from traitgru.gru import (TENSOR_NAMES, BiRnnParams, GruParams, RnnTrace, birnn_backward,
                          birnn_final, birnn_forward, birnn_output, gru_forward, rnn_backward,
                          pack, rnn_final, rnn_unroll, sigmoid)
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


def zero_level(p: BiRnnParams) -> BiRnnParams:
    """A zero level of p's shapes, for birnn_backward to add into."""
    return BiRnnParams(*(zero_params(q.input_size, q.hidden_size) for q in (p.fwd, p.bwd)))


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


def direction(trace, k: int) -> RnnTrace:
    """Direction k's trace (0 forward, 1 backward) of a level's unroll, as
    if it had run alone: its own recurrence's trace, or its columns of the
    fused one."""
    if len(trace.traces) == 2:
        return trace.traces[k]
    tr = trace.traces[0]

    def part(a, blocks=1):  # direction k's half of each block of columns
        return a.reshape(len(a), blocks, 2, -1)[:, :, k].reshape(len(a), -1)

    return RnnTrace(x=part(tr.x), zr=part(tr.zr, 2), h_tilde=part(tr.h_tilde), hu=part(tr.hu),
                    h_new=part(tr.h_new), batch_sizes=tr.batch_sizes, final=part(tr.final))


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


def row(trace: RnnTrace, k: int, k_prev) -> Row:
    """Packed row k of a trace, whose h_prev is packed row k_prev (the
    zero state when k_prev is None)."""
    h = trace.h_new.shape[1]
    h_prev = np.zeros(h) if k_prev is None else trace.h_new[k_prev]
    return Row(trace.x[k], h_prev, trace.zr[k, :h], trace.zr[k, h:], trace.h_tilde[k],
               trace.hu[k], trace.h_new[k])


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
        np.testing.assert_allclose(direction(trace, 1).h_new, fwd_on_reversed.h_new,
                                   atol=1e-12)


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


def stepwise_backward(p: GruParams, trace: RnnTrace, d_h_last: np.ndarray):
    """rnn_backward's triple, accumulated from gru_backward one packed row
    at a time, walking the steps in reverse: the reference."""
    sizes = trace.batch_sizes
    starts = list(accumulate(sizes, initial=0))
    grads = {name: np.zeros_like(arr) for name, arr in p.tensors().items()}
    d_xs = np.empty_like(trace.x)
    d_h = np.array(d_h_last)  # one row per sequence, in packed order
    for t in reversed(range(len(sizes))):
        for i in range(sizes[t]):
            k = starts[t] + i
            g, d_xs[k], d_h[i] = gru_backward(
                p, row(trace, k, starts[t - 1] + i if t else None), d_h[i])
            for name in grads:
                grads[name] += g[name]
    return grads, d_xs, d_h


def packed_cases():
    """(params, trace, d_h_last): single sequences at h <= 4, then packs of
    ragged sequences at h = 3, 16 and 128 whose batch sizes fall by more
    than one in a step."""
    rng = SplitMix64(55)
    for _ in range(10):
        d = 1 + rng.below(4)
        h = 1 + rng.below(4)
        p = random_params(rng, d, h)
        xs = [rng.uniforms(d, -1, 1) for _ in range(1 + rng.below(5))]
        yield p, unroll(p, xs), rng.uniforms(h, -1, 1)[None]
    for h, lengths in ((3, [4, 1, 6, 1, 3]), (16, [2, 7, 7, 1, 1, 4]), (128, [5, 1, 3, 1])):
        d = 5
        p = random_params(rng, d, h)
        pk = pack(lengths)
        assert max(a - b for a, b in zip(pk.batch_sizes, pk.batch_sizes[1:])) > 1
        xs = rng.uniforms(sum(lengths) * d, -1, 1).reshape(-1, d)
        d_h_last = rng.uniforms(len(lengths) * h, -1, 1).reshape(-1, h)
        yield p, rnn_unroll(p, xs[pk.fwd], pk.batch_sizes), d_h_last


def test_rnn_backward_equals_stepwise_cell_backward():
    # the batched unroll backward must agree with accumulating the
    # single-cell reference row by row
    for p, trace, d_h_last in packed_cases():
        grads, d_xs, d_h0 = rnn_backward(p, trace, d_h_last)
        ref, ref_d_xs, ref_d_h0 = stepwise_backward(p, trace, d_h_last)
        for name in ref:
            np.testing.assert_allclose(grads.tensors()[name], ref[name], rtol=1e-12,
                                       atol=1e-14)
        np.testing.assert_allclose(d_xs, ref_d_xs, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(d_h0, ref_d_h0, rtol=1e-12, atol=1e-14)


def test_rnn_backward_only_reads_its_trace():
    # the gate coefficients are scaled in place, in buffers of the
    # backward's own: the trace stays as the forward pass wrote it, so a
    # second backward over it gives the same gradients bit for bit
    for p, trace, d_h_last in packed_cases():
        arrays = ("x", "zr", "h_tilde", "hu", "h_new", "final")
        before = {name: getattr(trace, name).tobytes() for name in arrays}
        d_before = d_h_last.tobytes()
        first = rnn_backward(p, trace, d_h_last)
        second = rnn_backward(p, trace, d_h_last)
        for name in arrays:
            assert getattr(trace, name).tobytes() == before[name], name
        assert d_h_last.tobytes() == d_before
        for a, b in zip([*first[0].tensors().values(), *first[1:]],
                        [*second[0].tensors().values(), *second[1:]]):
            assert a.tobytes() == b.tobytes()


def test_birnn_backward_matches_finite_differences():
    rng = SplitMix64(11)
    p = BiRnnParams(fwd=random_params(rng, 2, 2), bwd=random_params(rng, 2, 2))
    xs = [rng.uniforms(2, -1, 1) for _ in range(3)]
    d_out = rng.uniforms(4, -1, 1)
    trace = encode(p, xs)
    grads = zero_level(p)
    d_xs = birnn_backward(p, trace, d_out[None], grads)
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


# --- a small level's two directions as one recurrence ---------------------------

FUSED_SIZES = sorted({1, 3, 16, gru.FUSED_BELOW_HIDDEN - 1})
RAGGED = ([4], [3, 1, 6, 1, 3], [2, 7, 7, 1, 1, 4])
TRACE_FIELDS = ("x", "zr", "h_tilde", "hu", "h_new", "final")


def level_case(rng: SplitMix64, d: int, h: int, lengths):
    """(parameters, inputs, gradient on the output) of one level."""
    p = BiRnnParams(random_params(rng, d, h), random_params(rng, d, h))
    xs = rng.uniforms(sum(lengths) * d, -1, 1).reshape(-1, d)
    d_out = rng.uniforms(len(lengths) * 2 * h, -1, 1).reshape(len(lengths), 2 * h)
    return p, xs, d_out


def level_pass(p, xs, lengths, d_out):
    """(trace, [output, input gradients, every parameter gradient])."""
    trace = birnn_forward(p, xs, lengths)
    grads = zero_level(p)
    d_xs = birnn_backward(p, trace, d_out, grads)
    return trace, [birnn_output(trace), d_xs, *grads.tensors().values()]


def assert_rounding_apart(got, want, **kwargs):
    """Equal to 1e-12 relative; an entry that sums cancelling terms is
    measured against the array's largest entry."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), **kwargs)


def two_directions(monkeypatch, fn, *args):
    """fn(*args) with every level run as one recurrence per direction."""
    with monkeypatch.context() as m:
        m.setattr(gru, "FUSED_BELOW_HIDDEN", 0)
        return fn(*args)


class TestFusedLevel:
    @pytest.mark.parametrize("h", FUSED_SIZES)
    def test_equals_the_two_direction_level(self, h, monkeypatch):
        rng = SplitMix64(900 + h)
        for lengths in RAGGED:
            p, xs, d_out = level_case(rng, 5, h, lengths)
            fused, got = level_pass(p, xs, lengths, d_out)
            split, want = two_directions(monkeypatch, level_pass, p, xs, lengths, d_out)
            assert (len(fused.traces), len(split.traces)) == (1, 2)
            for a, b in zip(got, want):
                assert_rounding_apart(a, b)
            for k in (0, 1):  # a direction's columns of the fused trace are its trace
                got_side, want_side = direction(fused, k), direction(split, k)
                for field in TRACE_FIELDS:
                    assert_rounding_apart(getattr(got_side, field), getattr(want_side, field),
                                          err_msg=f"direction {k}: {field}")
                assert got_side.batch_sizes == want_side.batch_sizes

    def test_fused_weights_are_block_diagonal(self):
        rng = SplitMix64(31)
        h, d = 3, 2
        p = BiRnnParams(random_params(rng, d, h), random_params(rng, d, h))
        q = gru._fused(p, (0, 1))
        assert (q.W.shape, q.U.shape, q.b.shape) == ((6 * h, 2 * d), (6 * h, 2 * h), (6 * h,))
        for j, own in enumerate((p.fwd, p.bwd)):
            for gate in range(3):  # rows [z_f z_b | r_f r_b | h~_f h~_b]
                rows = slice((2 * gate + j) * h, (2 * gate + j + 1) * h)
                other = slice((2 * gate + 1 - j) * h, (2 * gate + 2 - j) * h)
                own_rows = slice(gate * h, (gate + 1) * h)
                np.testing.assert_array_equal(q.W[rows, j * d:(j + 1) * d], own.W[own_rows])
                np.testing.assert_array_equal(q.U[rows, j * h:(j + 1) * h], own.U[own_rows])
                np.testing.assert_array_equal(q.b[rows], own.b[own_rows])
                assert not q.W[other, j * d:(j + 1) * d].any()
                assert not q.U[other, j * h:(j + 1) * h].any()

    # At h = 16 and d = 2, WASTE_ROWS rows per step are the most that fuse.
    WASTE_ROWS = gru.FUSED_MAX_WASTE // (16 * (16 + 2))

    @pytest.mark.parametrize("h, sequences, recurrences", [
        (gru.FUSED_BELOW_HIDDEN - 1, 3, 1), (gru.FUSED_BELOW_HIDDEN, 3, 2),
        (16, WASTE_ROWS, 1), (16, WASTE_ROWS + 1, 2)])
    def test_a_small_level_runs_half_the_recurrences(self, h, sequences, recurrences,
                                                     monkeypatch):
        rng = SplitMix64(32)
        lengths = [1 + i % 3 for i in range(sequences)]
        p, xs, d_out = level_case(rng, 2, h, lengths)
        calls = []
        for name in ("rnn_unroll", "rnn_backward", "rnn_final"):
            real = getattr(gru, name)
            monkeypatch.setattr(gru, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        level_pass(p, xs, lengths, d_out)
        birnn_final(p, xs, lengths)
        assert sorted(calls) == sorted(["rnn_unroll", "rnn_backward", "rnn_final"] * recurrences)

    def test_a_stack_of_sets_runs_as_one_set(self):
        rng = SplitMix64(34)
        one = BiRnnParams(random_params(rng, 2, 16), random_params(rng, 2, 16))
        many = BiRnnParams(*(GruParams(*(np.stack([a] * 50) for a in (q.W, q.U, q.b)))
                             for q in (one.fwd, one.bwd)))
        for rows in (1, self.WASTE_ROWS, self.WASTE_ROWS + 1):
            assert gru._plan(many, rows) == gru._plan(one, rows)

    @pytest.mark.parametrize("h, d, sequences, n_sets", [
        (3, 3, 5, 40), (16, 8, 5, 10), (16, 8, 20, 30), (16, 8, 60, None), (16, 32, 8, 20),
        (gru.FUSED_BELOW_HIDDEN, 8, 5, 20), (gru.FUSED_BELOW_HIDDEN, 50, 30, None)])
    def test_final_bytes_counts_the_walk(self, h, d, sequences, n_sets):
        import tracemalloc

        rng = SplitMix64(35 + h + d)
        lengths = [1 + (7 * i) % 9 for i in range(sequences)]
        one = BiRnnParams(random_params(rng, d, h), random_params(rng, d, h))
        p, xs = one, rng.uniforms(sum(lengths) * d, -1, 1).reshape(-1, d)
        if n_sets is not None:
            p = BiRnnParams(*(GruParams(*(np.stack([a] * n_sets) for a in (q.W, q.U, q.b)))
                              for q in (one.fwd, one.bwd)))
            xs = np.stack([xs] * n_sets)
        counted = (n_sets or 1) * gru.final_bytes(one, lengths)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            birnn_final(p, xs, lengths)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert counted / 2 < peak <= counted + gru.FINAL_OVERHEAD_BYTES

    @pytest.mark.parametrize("stacked_inputs", [False, True])
    def test_the_stacked_walk_fuses_on_the_trailing_axes(self, stacked_inputs, monkeypatch):
        rng = SplitMix64(33)
        d, h, n_sets = 3, 5, 4
        lengths = [4, 1, 3, 3]
        members = [BiRnnParams(random_params(rng, d, h), random_params(rng, d, h))
                   for _ in range(n_sets)]
        stack = BiRnnParams(*(GruParams(*(np.stack([getattr(getattr(m, k), t) for m in members])
                                          for t in ("W", "U", "b")))
                              for k in ("fwd", "bwd")))
        rows = sum(lengths)
        xs = rng.uniforms(n_sets * rows * d, -1, 1).reshape(n_sets, rows, d)
        if not stacked_inputs:
            xs = xs[0]
        got = birnn_final(stack, xs, lengths)
        assert got.shape == (n_sets, len(lengths), 2 * h)
        assert_rounding_apart(got, two_directions(monkeypatch, birnn_final, stack, xs, lengths))
        for i, m in enumerate(members):
            assert_rounding_apart(got[i], birnn_final(m, xs[i] if stacked_inputs else xs, lengths))
