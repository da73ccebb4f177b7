"""The packed character pass against encoding each word on its own.

Regressor.forward/backward run all words of a C2W2S4PT tweet through the
character bi-GRU at once, packed longest first.  The reference below
encodes every word as a pack of one, adds the per-word gradients one
word at a time and scatters each character's input gradient into its
embedding column, as the model did before packing.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traitgru.data import CharVocab, TraitScores, Tweet
from traitgru.gru import (BiRnnParams, GruParams, birnn_backward, birnn_forward,
                          birnn_output, pack)
from traitgru.model import DropoutPlan, ModelKind, Regressor, zero_grads
from traitgru.rng import SplitMix64
from traitgru.train import init_params

ALPHABET = "abcd"
VOCAB = CharVocab({c: i for i, c in enumerate(ALPHABET)})


def model(seed, d, h):
    dims = {"char_dim": d, "char_hidden": h, "word_hidden": h, "mlp_dim": 3,
            "vocab_size": VOCAB.size}
    return init_params(ModelKind.C2W2S4PT, dims, seed)


def per_word_reference(params, tokens, dropout, d_y_of):
    """(score, gradients) with one single-sequence character pass per word."""
    word_traces = [birnn_forward(params.levels[0], params.table.T[VOCAB.ids_of(tok)], [len(tok)])
                   for tok in tokens]
    e_w = np.array([birnn_output(wt)[0] for wt in word_traces])
    masks = None
    if dropout is not None:
        masks = [dropout.draw_mask(e_w.shape[1]) for _ in tokens]
        x = e_w * np.array(masks)
    else:
        x = e_w
    sentence = birnn_forward(params.levels[1], x, [len(x)])
    e_s = birnn_output(sentence)[0]
    sent_mask = dropout.draw_mask(e_s.shape[0]) if dropout is not None else None
    fed = e_s * sent_mask if sent_mask is not None else e_s
    head = params.head
    pre = head.w_eh @ fed + head.b_h
    h_s = np.maximum(pre, 0.0)
    y = float(head.w_hy[0] @ h_s) + float(head.b_y[0])

    d_y = d_y_of(y)
    grads = zero_grads(params)
    d_pre = head.w_hy[0] * d_y * (pre > 0)
    grads["w_hy"][...] += d_y * h_s[None, :]
    grads["b_y"][...] += d_y
    grads["w_eh"][...] += np.outer(d_pre, fed)
    grads["b_h"][...] += d_pre
    d_e_s = head.w_eh.T @ d_pre
    if sent_mask is not None:
        d_e_s = d_e_s * sent_mask
    wg, d_xs = birnn_backward(params.levels[1], sentence, d_e_s[None])
    for k, v in wg.tensors().items():
        grads["word_" + k][...] += v
    for i, (tok, wt) in enumerate(zip(tokens, word_traces)):
        d_e_w = d_xs[i] * masks[i] if masks is not None else d_xs[i]
        cg, d_cs = birnn_backward(params.levels[0], wt, d_e_w[None])
        for k, v in cg.tensors().items():
            grads["char_" + k][...] += v
        for cid, d_c in zip(VOCAB.ids_of(tok), d_cs):
            grads["e_c"][:, cid] += d_c
    return y, grads


def assert_close(a, b, name):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)


words = st.text(alphabet=ALPHABET, min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(tokens=st.lists(words, min_size=1, max_size=6),
       seed=st.integers(0, 2**31 - 1), d=st.integers(1, 4), h=st.integers(1, 5),
       dropout=st.booleans())
@example(tokens=["ab", "cd", "da", "bc"], seed=1, d=2, h=3, dropout=False)  # equal lengths
@example(tokens=["a"], seed=2, d=3, h=2, dropout=False)  # one 1-character word
@example(tokens=["aaaa", "a", "aa", "aaaa"], seed=3, d=2, h=2, dropout=True)  # repeats
@example(tokens=["b", "abcdab", "cc", "abc", "d"], seed=4, d=4, h=5, dropout=True)
def test_packed_pass_matches_one_word_at_a_time(tokens, seed, d, h, dropout):
    params = model(seed, d, h)
    target = 0.3

    def plan():
        return DropoutPlan(0.5, SplitMix64(seed).derive("dropout")) if dropout else None

    reg = Regressor(ModelKind.C2W2S4PT, params, VOCAB)
    tweet = Tweet("u1", " ".join(tokens), tuple(tokens), TraitScores(0, 0, 0, 0, 0))
    y, trace = reg.forward(tweet, plan())
    grads = reg.backward(trace, 2.0 * (y - target))
    y_ref, ref = per_word_reference(params, tokens, plan(), lambda v: 2.0 * (v - target))
    assert abs(y - y_ref) <= 1e-12
    for name in ref:
        assert_close(grads[name], ref[name], name)


def test_pack_orders_longest_first_and_stable():
    pk = pack([2, 3, 1, 3])
    assert pk.order.tolist() == [1, 3, 0, 2]
    assert pk.batch_sizes == [4, 3, 2]
    # concatenated rows: seq0 0-1, seq1 2-4, seq2 5, seq3 6-8
    assert pk.fwd.tolist() == [2, 6, 0, 5, 3, 7, 1, 4, 8]
    assert pk.bwd.tolist() == [4, 8, 1, 5, 3, 7, 0, 2, 6]


def test_packed_birnn_rows_equal_single_sequences():
    rng = SplitMix64(7)

    def gru(d, h):
        return GruParams(rng.uniforms(3 * h * d, -0.5, 0.5).reshape(3 * h, d),
                         rng.uniforms(3 * h * h, -0.5, 0.5).reshape(3 * h, h),
                         rng.uniforms(3 * h, -0.5, 0.5))

    p = BiRnnParams(gru(3, 4), gru(3, 4))
    lengths = [3, 1, 5, 3]
    X = rng.uniforms(sum(lengths) * 3, -1, 1).reshape(-1, 3)
    d_out = rng.uniforms(len(lengths) * 8, -1, 1).reshape(len(lengths), 8)
    trace = birnn_forward(p, X, lengths)
    out = birnn_output(trace)
    grads, d_xs = birnn_backward(p, trace, d_out)
    ref = {k: np.zeros_like(v) for k, v in grads.tensors().items()}
    starts = np.cumsum(lengths) - lengths
    for i, (s, n) in enumerate(zip(starts, lengths)):
        single = birnn_forward(p, X[s:s + n], [n])
        assert_close(out[i], birnn_output(single)[0], f"output {i}")
        g, d_single = birnn_backward(p, single, d_out[i:i + 1])
        for k in ref:
            ref[k] += g.tensors()[k]
        assert_close(d_xs[s:s + n], d_single, f"input gradient {i}")
    for k in ref:
        assert_close(grads.tensors()[k], ref[k], k)


def test_named_tensors_are_views_of_the_stacks():
    params = model(5, 2, 3)
    for birnn in params.levels:
        for p in (birnn.fwd, birnn.bwd):
            for name, view in p.tensors().items():
                stack = {"w": p.W, "u": p.U, "b": p.b}[name[0]]
                assert np.shares_memory(view, stack), name
                assert view.flags.c_contiguous, name
            p.w_r[0, 0] = 42.0
            assert p.W[p.hidden_size, 0] == 42.0

