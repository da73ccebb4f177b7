"""Packed training against the per-tweet training loop.

train runs each mini-batch as consecutive packs of its tweets, one
forward and one backward pass per pack.  The reference below is the loop
it replaced: one forward and one backward pass per tweet, in ascending
example order, each tweet drawing its own dropout masks from the shared
stream.  A batch of one must give the same checkpoint bytes; larger
batches the same tensors to rounding, since only the summation order of
the gradients changes.
"""

import copy

import numpy as np
import pytest

from traitgru import checkpoint as C
from traitgru import train as T
from traitgru.data import build_tweets, generate_fixture
from traitgru.model import (TRAINABLE_KINDS, DropoutPlan, Regressor, empty_params,
                            projection_bytes)
from traitgru.rng import SplitMix64
from traitgru.train import (AdamState, TrainConfig, adam_step, build_vocab_for, clip_gradients,
                            config_as_dict, init_params, model_dims, train)

TWEETS = build_tweets(generate_fixture(4, 5, signal="exclamation", seed=3))[0]


def per_tweet_train(kind, tweets, trait, cfg, on_epoch):
    """(checkpoint, epoch losses) of the per-tweet loop; on_epoch(rng) sees
    the dropout stream as each epoch ends."""
    vocab = build_vocab_for(kind, tweets)
    dims = model_dims(kind, cfg, vocab)
    params = init_params(kind, dims, cfg.seed, cfg.init_scheme)
    reg = Regressor(kind, params, vocab)
    adam = AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))
    shuffle_rng = SplitMix64(cfg.seed).derive("shuffle")
    dropout_rng = SplitMix64(cfg.seed).derive("dropout")
    ys = [tw.traits.get(trait) for tw in tweets]
    losses = []
    for _ in range(cfg.epochs):
        order = list(range(len(tweets)))
        shuffle_rng.shuffle(order)
        sq_sum = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = sorted(order[lo:lo + cfg.batch_size])
            g = np.zeros_like(params.flat)
            grads = empty_params(kind, dims, g)
            inv = 1.0 / len(batch)
            for i in batch:
                dp = DropoutPlan(cfg.dropout_rate, dropout_rng, cfg.dropout_words,
                                 cfg.dropout_sentence)
                y_hat, trace = reg.forward(tweets[i], dp)
                err = y_hat - ys[i]
                sq_sum += err * err
                reg.backward(trace, 2.0 * err * inv, grads)
            clip_gradients(grads, cfg.clip_norm)
            adam_step(params.flat, g, adam, cfg)
        losses.append(sq_sum / len(tweets))
        on_epoch(dropout_rng)
    ckpt = C.Checkpoint(kind=kind, dims=dims, vocab=vocab, config=config_as_dict(cfg),
                        tensors=params)
    return ckpt, losses


def next_draw(rng) -> float:
    return copy.copy(rng).uniform()


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize("budget", ["whole batches", "split batches"])
def test_packed_training_matches_the_per_tweet_loop(kind, batch_size, budget, monkeypatch,
                                                    tmp_path):
    cfg = TrainConfig(char_dim=3, hidden_size=4, mlp_dim=4, word_dim=3, dropout_rate=0.5,
                      clip_norm=0.5, learning_rate=5e-3, epochs=2, batch_size=batch_size,
                      seed=5)
    ref_draws = []
    ref, ref_losses = per_tweet_train(kind, TWEETS, "ext", cfg,
                                      lambda rng: ref_draws.append(next_draw(rng)))

    if budget == "split batches":
        # About two tweets' worth of projection rows.
        reg = ref.to_regressor()
        costs = projection_bytes(reg.params, [reg.unit_ids(tw) for tw in TWEETS])
        monkeypatch.setattr(T, "PACK_BUDGET_BYTES", 2 * int(np.median(costs)))
    packs, plans, draws = [], [], []
    real_forward = Regressor.forward_units

    def spy(self, units, dropout=None):
        packs.append(len(units))
        return real_forward(self, units, dropout)

    def recording_plan(*args):
        plans.append(DropoutPlan(*args))
        return plans[-1]

    monkeypatch.setattr(Regressor, "forward_units", spy)
    monkeypatch.setattr(T, "DropoutPlan", recording_plan)
    ckpt, reports = train(kind, TWEETS, "ext", cfg,
                          on_epoch=lambda _: draws.append(next_draw(plans[0].rng)))

    batches = cfg.epochs * -(-len(TWEETS) // batch_size)
    if batch_size == 1:
        assert packs == [1] * batches
    elif budget == "whole batches":
        assert packs == [batch_size] * batches
    else:
        assert len(packs) > batches and max(packs) > 1 and sum(packs) == cfg.epochs * len(TWEETS)
    assert draws == ref_draws
    if batch_size == 1:
        for which, c in (("packed", ckpt), ("reference", ref)):
            C.save(c, tmp_path / which)
        assert (tmp_path / "packed").read_bytes() == (tmp_path / "reference").read_bytes()
        assert [r.loss for r in reports] == ref_losses
    else:
        for name, tensor in ref.tensors.items():
            np.testing.assert_allclose(ckpt.tensors[name], tensor, rtol=0, atol=1e-12,
                                       err_msg=name)
        np.testing.assert_allclose([r.loss for r in reports], ref_losses, rtol=0, atol=1e-12)
