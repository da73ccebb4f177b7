"""The benchmark's reference forward still reads what the program loads.

perfbench/checks.py scores a checkpoint apart from the program, reading
ckpt.tensors by tensor name and the vocabulary's char_to_id and unk_id,
so a refactor that renames any of them, or changes what load returns,
breaks the score-paper check.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from traitgru import checkpoint as C
from traitgru.data import build_tweets, generate_fixture
from traitgru.model import ModelKind
from traitgru.train import TrainConfig, build_vocab_for, config_as_dict, init_params, model_dims

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("checks")


def test_reference_forward_agrees_with_a_loaded_checkpoint(checks, tmp_path):
    kind = ModelKind.C2W2S4PT
    tweets, _ = build_tweets(generate_fixture(3, 4, seed=6))
    cfg = TrainConfig(char_dim=3, hidden_size=3, mlp_dim=4, word_dim=2, seed=4)
    vocab = build_vocab_for(kind, tweets[:4])  # later tweets hold unknown characters
    dims = model_dims(kind, cfg, vocab)
    tensors = init_params(kind, dims, 4)
    noise = np.random.default_rng(4)
    for a in tensors.values():
        if a.ndim == 1:  # non-zero biases, so the head is live and every bias is read
            a[...] = noise.uniform(-0.5, 0.5, a.shape)
    path = tmp_path / "model.ckpt"
    C.save(C.Checkpoint(kind=kind, dims=dims, vocab=vocab, config=config_as_dict(cfg),
                        tensors=tensors), path)
    ckpt = C.load(path)
    scores, embeddings = ckpt.to_regressor().score_many(tweets)
    assert len(set(scores.tolist())) == len(tweets)
    t, ids, unk = ckpt.tensors, ckpt.vocab.char_to_id, ckpt.vocab.unk_id
    assert any(ch not in ids for tw in tweets for tok in tw.tokens for ch in tok)
    for tw, score, emb in zip(tweets, scores, embeddings):
        assert abs(checks.reference_score(t, ids, unk, tw.tokens) - score) <= checks.SCORE_TOLERANCE
        ref = checks.reference_embedding(t, ids, unk, tw.tokens)
        assert np.abs(ref - emb).max() <= checks.SCORE_TOLERANCE
