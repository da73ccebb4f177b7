"""GRU cell with exact forward/backward passes and bidirectional encoding.

One cell step computes

    z = sigmoid(W_z x + U_z h_prev + b_z)          (update gate)
    r = sigmoid(W_r x + U_r h_prev + b_r)          (reset gate)
    h~ = tanh(W_h x + r * (U_h h_prev) + b_h)      (candidate state)
    h  = z * h_prev + (1 - z) * h~

Note the candidate couples the reset gate as r * (U_h h_prev), i.e. the
gate multiplies the already-projected previous state.  The backward pass
differentiates these four lines exactly; gradients accumulate across
time steps, so full unrolls stay checkable against finite differences.

The three gates of a direction are stacked in z, r, h order into one
W (3h x d), one U (3h x h) and one b (3h), following Appleyard et al.
2016 (arXiv:1604.01946): the input projection W x + b of every step of
an unroll is one matrix product taken before the time loop, each step
then needs one product with U, and each backward step one product of
[a_z | a_r | d_hu] with U.  The backward pass hoists its gate arithmetic
the same way: what the trace alone determines is computed for all rows
before its time loop, so each reverse step is one multiply and one product.

Every unroll runs sequences packed step-major without padding: sorted
by length, longest first, step t advances only the first batch_sizes[t]
of them, as one matrix product over those rows.  One sequence is a pack
of one, so the top level of every model kind and the lower levels run
the same cell step and the same BPTT loop.

gru_forward is the one cell step.  rnn_unroll runs it over the steps and
writes its values into a trace of arrays, one row per packed input row,
which rnn_backward reads by step slices; rnn_final and birnn_final run
the same steps keeping only the state rows, for scoring without
gradients.  The trace-free walk also broadcasts over parameter sets
stacked on a leading axis (W of shape (P, 3h, d), and so on), running P
models over the same rows at once with the same arithmetic per model;
the gradient checker scores its perturbed copies of a model that way.

The bidirectional encoder runs one parameter set forward over the
sequence and an independent set over the reversed sequence, then
concatenates the two final hidden states.  Both directions start from
the zero vector.

The two directions are independent recurrences until the caller combines
them, and _plan picks one of three ways to run a level's pass from its
hidden size h, its input size d and its number of sequences, the rows
of its first step:

- as one GRU of hidden size 2h (_fused) when h < FUSED_BELOW_HIDDEN and
  rows * h * (h + d) <= FUSED_MAX_WASTE: W, U and b are block-diagonal
  in the two directions, the gates laid out [z_f z_b | r_f r_b |
  h~_f h~_b], and the input rows are [forward rows | backward rows].
  Every equation of the cell is elementwise per unit, so this is the
  bi-GRU computed with half the steps, at the price of the zero blocks'
  flops; while those stay small, a step costs its numpy calls more than
  its arithmetic.  Its final rows are [fwd ; bwd], and birnn_backward
  adds the diagonal blocks of its gradient, read as views, into the two
  directions' own.  The stacked walk fuses the same way;
- at a thread cap (set_threads, by default the CPUs this process may
  run on) of at least 2 and h >= CONCURRENT_MIN_HIDDEN, one direction
  per thread, as in Appleyard et al. 2016: the forward direction's
  rnn_unroll or rnn_backward on _partner, a one-worker
  ThreadPoolExecutor made on the first such pass and serving every
  caller, and the backward direction's on the calling thread.  NumPy
  releases the GIL inside its matrix products and ufunc loops, so the
  two recurrences overlap;
- otherwise one direction after the other on the calling thread.

The choice never depends on the thread cap, each direction's arithmetic
on two threads is the serial one, and the caller combines the results in
the serial order, so every result is bit for bit the same for any thread
cap.  Scoring's trace-free walk never uses the partner: below
CONCURRENT_MIN_HIDDEN the hand-off costs more than the overlap saves,
and above it the second thread's arena costs peak memory.
"""

import contextvars
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

TENSOR_NAMES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


# A level's pass fuses its two directions (see the module docstring) when
# h < FUSED_BELOW_HIDDEN and rows * h * (h + d) <= FUSED_MAX_WASTE, rows
# being its first step's rows, one per sequence.  Fusing halves the
# steps' numpy calls but adds the zero blocks' 6h(h + d) multiply-adds
# per row, so which wins depends on the rows as much as on h.  Measured
# on one core of a shared 2-core host with one BLAS thread, fused against
# one direction after the other: a level's forward and backward pass at
# h = 8, 16 and 23, d = 8 and 32 and 1 to 256 sequences ran at least 1.04x
# as fast within the waste cut (mostly 1.2-1.6x; up to 52 sequences at
# h = 16, d = 8) and 0.58-1.31x beyond it, mostly below 1; a 5-fold CV on
# the cv-tiny fixture ran 1.26x and 1.18x as fast at batch 4 and h = 16 and
# 23, and 1.00x and 1.06x at batch 32, where fusing every pass ran 0.89x
# and 0.92x.  The hidden-size cut keeps fusion to the sizes measured (at
# h = 64 over 15 sequences it ran 0.6x) and away from the threaded and
# the paper-size levels.
FUSED_BELOW_HIDDEN = 24
FUSED_MAX_WASTE = 20_000

# What a birnn_final call takes besides the arrays final_bytes counts:
# NumPy's ufunc buffer (8192 float64s) and the arrays' headers.
FINAL_OVERHEAD_BYTES = 72 << 10

# Below this hidden size a direction's steps are too short for a second
# thread to pay for its hand-off (one training pass of a level, measured
# on a 2-core host: h = 64 ran 0.7-1.2x as fast on two threads, h = 128
# 1.0-1.5x, h = 256 1.4-1.9x).
CONCURRENT_MIN_HIDDEN = 128


def available_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, or
    the machine's CPU count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_threads = available_cpus()
# The one-worker executor of the two-thread case, made on its first pass:
# importing concurrent.futures costs about 7 ms and 0.75 MB (its logging),
# which a run that never uses a second thread need not pay.
_partner = None
_partner_lock = threading.Lock()


def set_threads(n: int) -> None:
    """Caps the threads of a bidirectional pass at n (1 runs both
    directions on the calling thread)."""
    global _threads
    if n < 1:
        raise ValueError(f"thread cap must be at least 1, got {n}")
    _threads = n


def _partner_executor():
    """_partner, made by the first caller (its worker thread starts on the
    first submit)."""
    global _partner
    with _partner_lock:
        if _partner is None:
            from concurrent.futures import ThreadPoolExecutor
            _partner = ThreadPoolExecutor(1, thread_name_prefix="traitgru-partner")
        return _partner


def _plan(p: "BiRnnParams", sequences: int):
    """How the level p runs its directions (0 forward, 1 backward) over
    this many packed sequences, its first step's rows: the directions of
    each of its recurrences, and whether the two recurrences run on two
    threads (see the module docstring).  A stack of parameter sets runs as
    one set would, so each set's results are bit for bit its own."""
    h, d = p.hidden_size, p.fwd.input_size
    if h < FUSED_BELOW_HIDDEN and sequences * h * (h + d) <= FUSED_MAX_WASTE:
        return ((0, 1),), False
    return ((0,), (1,)), _threads >= 2 and h >= CONCURRENT_MIN_HIDDEN


def projection_width(h: int) -> int:
    """The most floats per input row that a level of hidden size h
    projects its inputs to: 6h where _plan may fuse it, else 3h."""
    return 6 * h if h < FUSED_BELOW_HIDDEN else 3 * h


def final_bytes(p: "BiRnnParams", lengths) -> int:
    """The bytes of the arrays that birnn_final(p, xs, lengths) allocates
    per parameter set, beyond p and xs.  Per recurrence of n directions
    (see _plan; they run one after the other): the fused set when n = 2;
    per row, its input rows (nd floats), their projection (3nh) and the
    packing's indices (4); per sequence, its output and state rows and a
    step's temporaries (12nh: the product with U, the gates and the new
    state).  Per sequence besides, the level's output rows as they are
    joined and put back in order (6h).  FINAL_OVERHEAD_BYTES come on top,
    once per call."""
    groups, _ = _plan(p, len(lengths))
    n, h, d = len(groups[0]), p.hidden_size, p.fwd.input_size
    fused = 3 * n * h * (n * d + n * h + 1) if n > 1 else 0
    return 8 * (fused + sum(lengths) * (n * (d + 3 * h) + 4) + len(lengths) * (12 * n + 6) * h)


def _each(fn, calls, threaded: bool) -> list:
    """[fn(*args) for args in calls]; threaded, the two calls at once.

    Threaded, the first call runs on the partner, in the caller's context
    (numpy's error state included), and the second on this thread.  Both
    have finished before either's error is raised, the partner's when
    both fail."""
    if not threaded:
        return [fn(*args) for args in calls]
    there = _partner_executor().submit(contextvars.copy_context().run, fn, *calls[0])
    try:
        here = fn(*calls[1])
    finally:
        first = there.result()
    return [first, here]


def require_finite(op: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced non-finite values")
    return arr


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic, computed as 0.5*(tanh(x/2)+1): one ufunc pass,
    overflow-safe on both tails."""
    return 0.5 * (np.tanh(0.5 * v) + 1.0)


class GruParams:
    """One direction's weights: stacked W (3h x d), U (3h x h) and b (3h),
    the gates in z, r, h order, or P such sets stacked on a leading axis.

    w_z ... b_h are row-slice views of W, U and b, so every named tensor
    and its stacked array are the same memory: updating a named tensor in
    place updates the stack.
    """

    def __init__(self, W: np.ndarray, U: np.ndarray, b: np.ndarray):
        h = U.shape[-1]
        self.W, self.U, self.b = W, U, b
        self.w_z, self.w_r, self.w_h = W[..., :h, :], W[..., h:2 * h, :], W[..., 2 * h:, :]
        self.u_z, self.u_r, self.u_h = U[..., :h, :], U[..., h:2 * h, :], U[..., 2 * h:, :]
        self.b_z, self.b_r, self.b_h = b[..., :h], b[..., h:2 * h], b[..., 2 * h:]

    @property
    def input_size(self) -> int:
        return self.W.shape[-1]

    @property
    def hidden_size(self) -> int:
        return self.U.shape[-1]

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, getattr(self, name)) for name in TENSOR_NAMES)


@dataclass(slots=True)
class RnnTrace:
    """What the backward pass of one packed unroll reads.

    Every array has one row per packed input row, in the packed order of
    rnn_unroll's xs: the inputs x, the update and reset gates zr = [z | r],
    the candidate h_tilde, hu = U_h h_prev (kept so the reset gate's
    gradient does not recompute it) and the new state h_new.  Step t's
    h_prev rows are the leading batch_sizes[t] rows of step t-1's h_new
    rows, and zeros at step 0.  final holds each sequence's state after
    its own last step, (B, h) in packed order.  len(trace) is the number
    of steps; the trace's memory is its arrays' nbytes.
    """

    x: np.ndarray
    zr: np.ndarray
    h_tilde: np.ndarray
    hu: np.ndarray
    h_new: np.ndarray
    batch_sizes: list
    final: np.ndarray

    def __len__(self) -> int:
        return len(self.batch_sizes)


@dataclass
class BiRnnParams:
    """Forward- and backward-direction parameter sets of the same shapes."""

    fwd: GruParams
    bwd: GruParams

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size

    def tensors(self, prefix: str = "") -> "OrderedDict[str, np.ndarray]":
        out = OrderedDict()
        for name, arr in self.fwd.tensors().items():
            out[f"{prefix}fwd.{name}"] = arr
        for name, arr in self.bwd.tensors().items():
            out[f"{prefix}bwd.{name}"] = arr
        return out


@dataclass
class Packing:
    """Many sequences, concatenated in their own order, packed step-major.

    order lists the sequences longest first (stable for equal lengths);
    step t holds element t of the first batch_sizes[t] of them.  Packed
    row i reads row fwd[i] of the concatenated input going forward
    through its sequence, and row bwd[i] going backward.
    """

    order: np.ndarray
    batch_sizes: list
    fwd: np.ndarray
    bwd: np.ndarray


def pack(lengths) -> Packing:
    """The packing of sequences with these lengths, concatenated in order.

    Plain lists, linear in the number of rows: at tiny dimensions numpy's
    fixed cost per call would outweigh the work of a pack of one.
    """
    lengths = list(lengths)
    if not lengths or min(lengths) < 1:
        raise ValueError(f"packing needs non-empty sequences, got lengths {lengths}")
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)  # stable
    batch_sizes = []
    for j in reversed(range(len(order))):  # shortest first: steps only the first j + 1 reach
        batch_sizes += [j + 1] * (lengths[order[j]] - len(batch_sizes))
    starts = list(accumulate(lengths, initial=0))
    firsts = [starts[i] for i in order]
    lasts = [starts[i + 1] - 1 for i in order]
    fwd = [first + t for t, b in enumerate(batch_sizes) for first in firsts[:b]]
    bwd = [last - t for t, b in enumerate(batch_sizes) for last in lasts[:b]]
    return Packing(order=np.array(order), batch_sizes=batch_sizes,
                   fwd=np.array(fwd), bwd=np.array(bwd))


@dataclass
class BiRnnTrace:
    """A level's unroll: per recurrence (see _plan), the directions it
    runs, the parameter set it ran (fused when it runs both) and its
    trace; and the packing of the sequences."""

    groups: tuple
    params: list
    traces: list
    packing: Packing


def gru_forward(p: GruParams, a: np.ndarray, h_prev: np.ndarray):
    """One cell step of the rows h_prev, given their projected inputs
    a = x W^T + b: (zr, h_tilde, hu, h_new), with zr = [z | r] and hu a
    view of the product h_prev U^T."""
    h = p.hidden_size
    g = h_prev @ p.U.mT
    zr = sigmoid(a[..., :2 * h] + g[..., :2 * h])
    z, r = zr[..., :h], zr[..., h:]
    hu = g[..., 2 * h:]
    h_tilde = np.tanh(a[..., 2 * h:] + r * hu)
    h_new = h_tilde + z * (h_prev - h_tilde)
    require_finite("gru_forward", h_new)
    return zr, h_tilde, hu, h_new


# The same cell step under a name that perfbench's tracer does not wrap:
# its flop counter reads W as 2-D, so stacked parameter sets step
# through this name instead.
_stacked_step = gru_forward


def _projected(p: GruParams, xs, batch_sizes):
    """The packed input rows and their projection X W^T + b, which every
    step of an unroll reads, taken as one product before the time loop."""
    X = np.asarray(xs, dtype=np.float64)
    if X.size == 0:
        raise ValueError("an unroll requires a non-empty sequence")
    if X.ndim < 2 or X.shape[-1] != p.input_size:
        raise ValueError(f"inputs of shape {X.shape[-1:]} != ({p.input_size},)")
    if sum(batch_sizes) != X.shape[-2]:
        raise ValueError(f"batch sizes {batch_sizes} do not fit {X.shape[-2]} rows")
    A = X @ p.W.mT
    A += p.b[..., None, :]
    return X, A


def rnn_unroll(p: GruParams, xs, batch_sizes) -> RnnTrace:
    """Run the cell from the zero state over packed rows, keeping the trace.

    xs is (N, d) rows packed step-major (see Packing): step t takes the
    next batch_sizes[t] rows.  Each step's values are written into the
    trace's arrays at the step's rows, and each final row as its sequence
    ends.
    """
    X, A = _projected(p, xs, batch_sizes)
    n, h = len(X), p.hidden_size
    zr_all = np.empty((n, 2 * h))
    h_tilde_all, hu_all, h_new_all = np.empty((n, h)), np.empty((n, h)), np.empty((n, h))
    final = np.empty((batch_sizes[0], h))
    state = np.zeros((batch_sizes[0], h))
    start = 0
    for b, b_next in zip(batch_sizes, batch_sizes[1:] + [0]):
        end = start + b
        zr, h_tilde, hu, state = gru_forward(p, A[start:end], state[:b])
        zr_all[start:end] = zr
        h_tilde_all[start:end] = h_tilde
        hu_all[start:end] = hu
        h_new_all[start:end] = state
        final[b_next:b] = state[b_next:]
        start = end
    return RnnTrace(x=X, zr=zr_all, h_tilde=h_tilde_all, hu=hu_all, h_new=h_new_all,
                    batch_sizes=batch_sizes, final=final)


def rnn_final(p: GruParams, xs, batch_sizes) -> np.ndarray:
    """rnn_unroll(p, xs, batch_sizes).final without the trace: the same
    cell steps keeping only the state rows.  With P parameter sets stacked
    on a leading axis, xs is (P, N, d) or (N, d) and the result is
    (P, B, h)."""
    _, A = _projected(p, xs, batch_sizes)
    step = gru_forward if p.W.ndim == 2 else _stacked_step
    out = np.empty(A.shape[:-2] + (batch_sizes[0], p.hidden_size))
    h = np.zeros_like(out)
    start = 0
    for b, b_next in zip(batch_sizes, batch_sizes[1:] + [0]):
        end = start + b
        h = step(p, A[..., start:end, :], h[..., :b, :])[-1]
        out[..., b_next:b, :] = h[..., b_next:, :]
        start = end
    return out


def rnn_backward(p: GruParams, trace: RnnTrace, d_h_last: np.ndarray):
    """Backpropagation through time when only each sequence's final state
    feeds the loss.

    trace comes from rnn_unroll; d_h_last is (B, h), in packed order.
    Every gate factor but the state gradient d_h is read from the trace,
    so each is computed for all rows before the time loop, into G:
    (h_prev - h~) z (1 - z), c_h hu r (1 - r) and c_h r, with
    c_h = (1 - z)(1 - h~^2).  Each reverse step records d_h in DH, scales
    its rows of G by d_h in place and takes one product with U; the weight
    gradients are one product each over all steps.  Temporaries: H, G, DH
    and c_h, 6h floats per row; the trace is only read.

    Returns (the parameter gradients as a GruParams over new arrays d_W,
    d_U and d_b, input gradients with one row per input row of the
    unroll, gradient w.r.t. the zero initial state).
    """
    h = p.hidden_size
    sizes = trace.batch_sizes
    n = len(trace.x)
    # The h_prev rows, gathered once: row i of step t > 0 continues row
    # i - batch_sizes[t-1] of step t-1.
    H = np.zeros((n, h))
    H[sizes[0]:] = trace.h_new[np.arange(sizes[0], n)
                               - np.repeat(np.array(sizes[:-1], dtype=np.intp), sizes[1:])]
    Z, R, H_tilde = trace.zr[:, :h], trace.zr[:, h:], trace.h_tilde
    c_h = 1.0 - Z  # times 1 - h~^2 once G[:, 0] has read it
    G = np.empty((n, 3, h))  # the gate coefficients, scaled by d_h step by step
    G[:, 0] = (H - H_tilde) * Z * c_h
    c_h *= 1.0 - H_tilde * H_tilde
    G[:, 1] = c_h * trace.hu * R * (1.0 - R)
    G[:, 2] = c_h * R
    DH = np.empty((n, h))
    D = np.array(d_h_last, dtype=np.float64)  # running gradient on each sequence's state
    U = p.U
    end = n
    for b in reversed(sizes):
        start = end - b
        d_h = D[:b]
        DH[start:end] = d_h
        g = G[start:end]
        g *= d_h[:, None, :]
        D[:b] = d_h * Z[start:end] + g.reshape(b, 3 * h) @ U
        end = start
    G = G.reshape(n, 3 * h)  # [a_z | a_r | d_hu]: the gradient through U
    d_U = G.T @ H
    np.multiply(DH, c_h, out=G[:, 2 * h:])  # now [a_z | a_r | a_h]: through W and b
    return GruParams(G.T @ trace.x, d_U, G.sum(axis=0)), G @ p.W, D


def _packed_inputs(xs, lengths):
    X = np.asarray(xs, dtype=np.float64)
    pk = pack(lengths)
    if len(pk.fwd) != X.shape[-2]:
        raise ValueError(f"lengths add up to {len(pk.fwd)}, not to the {X.shape[-2]} inputs")
    return X, pk


def _fused(p: BiRnnParams, dirs) -> GruParams:
    """The parameter set of the recurrence running these directions: one
    direction's own set, or both as one GRU of hidden size 2h whose W, U
    and b are block-diagonal in the directions, gates [z_f z_b | r_f r_b |
    h~_f h~_b].  Sets stacked on a leading axis fuse on the trailing axes."""
    sets = [(p.fwd, p.bwd)[k] for k in dirs]
    if len(sets) == 1:
        return sets[0]
    n, lead = len(sets), sets[0].W.shape[:-2]
    h, d = sets[0].hidden_size, sets[0].input_size
    W = np.zeros(lead + (3, n, h, n, d))
    U = np.zeros(lead + (3, n, h, n, h))
    b = np.empty(lead + (3, n, h))
    for j, q in enumerate(sets):
        W[..., :, j, :, j, :] = q.W.reshape(lead + (3, h, d))
        U[..., :, j, :, j, :] = q.U.reshape(lead + (3, h, h))
        b[..., :, j, :] = q.b.reshape(lead + (3, h))
    return GruParams(W.reshape(lead + (3 * n * h, n * d)), U.reshape(lead + (3 * n * h, n * h)),
                     b.reshape(lead + (3 * n * h,)))


def _rows(X: np.ndarray, pk: Packing, dirs) -> np.ndarray:
    """The packed input rows of the recurrence running these directions:
    X[pk.fwd], X[pk.bwd] or [X[pk.fwd] | X[pk.bwd]] (on the trailing axes
    of stacked inputs)."""
    at = np.stack([(pk.fwd, pk.bwd)[k] for k in dirs], axis=1)
    # np.take's result is C-contiguous, so the reshape does not copy it again.
    return np.take(X, at, axis=-2).reshape(X.shape[:-2] + (len(at), -1))


def birnn_forward(p: BiRnnParams, xs, lengths) -> BiRnnTrace:
    """Unroll both directions over sequences of these lengths, concatenated
    in order in xs; each direction runs all of them at once, packed, and
    the backward direction consumes each sequence reversed."""
    X, pk = _packed_inputs(xs, lengths)
    groups, threaded = _plan(p, len(pk.order))
    params = [_fused(p, dirs) for dirs in groups]
    traces = _each(rnn_unroll, [(q, _rows(X, pk, dirs), pk.batch_sizes)
                                for q, dirs in zip(params, groups)], threaded)
    return BiRnnTrace(groups=groups, params=params, traces=traces, packing=pk)


def _in_own_order(pk: Packing, by_length: np.ndarray) -> np.ndarray:
    out = np.empty_like(by_length)
    out[..., pk.order, :] = by_length
    return out


def birnn_output(trace: BiRnnTrace) -> np.ndarray:
    """[final forward state ; backward state at sequence position 1], one
    row per sequence, in their own order."""
    return _in_own_order(trace.packing, np.concatenate([t.final for t in trace.traces], axis=1))


def birnn_final(p: BiRnnParams, xs, lengths) -> np.ndarray:
    """birnn_output of birnn_forward(p, xs, lengths), computed without
    traces and on this thread: one row per sequence, in their own order
    (a stack of rows per parameter set when p is stacked, see rnn_final)."""
    X, pk = _packed_inputs(xs, lengths)
    groups, _ = _plan(p, len(pk.order))
    by_length = np.concatenate([rnn_final(_fused(p, dirs), _rows(X, pk, dirs), pk.batch_sizes)
                                for dirs in groups], axis=-1)
    return _in_own_order(pk, by_length)


def birnn_backward(p: BiRnnParams, trace: BiRnnTrace, d_out: np.ndarray,
                   into: BiRnnParams) -> np.ndarray:
    """Gradients of birnn_output w.r.t. both directions and the inputs.

    d_out has one row per sequence.  Adds each direction's W, U and b
    gradients into into, a level of a gradient bundle (a fused
    recurrence's diagonal blocks, read as views), and returns the input
    gradients, one row per input, in the order of xs.
    """
    h = p.hidden_size
    pk = trace.packing
    if d_out.shape != (len(pk.order), 2 * h):
        raise ValueError(f"d_out shape {d_out.shape} != {(len(pk.order), 2 * h)}")
    d_sorted = d_out[pk.order]
    _, threaded = _plan(p, len(pk.order))
    results = _each(rnn_backward, [(q, tr, d_sorted[:, dirs[0] * h:(dirs[-1] + 1) * h])
                                   for dirs, q, tr in zip(trace.groups, trace.params,
                                                          trace.traces)], threaded)
    d_xs = np.empty((len(pk.fwd), p.fwd.input_size))
    for dirs, (g, d_rows, _) in zip(trace.groups, results):
        n = len(dirs)
        W, U, b = g.W.reshape(3, n, h, n, -1), g.U.reshape(3, n, h, n, h), g.b.reshape(3, n, h)
        d_rows = d_rows.reshape(len(d_rows), n, -1)
        for j, k in enumerate(dirs):  # the forward direction first, as written
            own = (into.fwd, into.bwd)[k]
            # copy=False: a view of the bundle, or an error rather than an add lost in a copy
            for acc, block in ((own.W.reshape(3, h, -1, copy=False), W[:, j, :, j]),
                               (own.U.reshape(3, h, h, copy=False), U[:, j, :, j]),
                               (own.b.reshape(3, h, copy=False), b[:, j])):
                acc += block
            if k == 0:
                d_xs[pk.fwd] = d_rows[:, j]
            else:
                d_xs[pk.bwd] += d_rows[:, j]
    return d_xs
