"""The benchmark's tracer still finds every function it wraps.

perfbench/spans.py patches the program's functions by name, so a
refactor that renames or drops one of them breaks every traced run.
"""

import importlib
import io
from pathlib import Path

import pytest

from traitgru import cli
from traitgru.data import TraitScores, Tweet
from traitgru.model import TRAINABLE_KINDS, Regressor
from traitgru.train import (TrainConfig, build_vocab_for, format_config, init_params,
                            model_dims)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def _targets(spans):
    """(owner, attribute, current value) of every traced name."""
    out = []
    for mod_name, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(f"traitgru.{mod_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            out.append((owner, attr, owner.__dict__[attr]))
        else:
            out.append((owner, attr, getattr(owner, attr)))
    return out


def test_install_patches_every_target_and_uninstall_restores(spans):
    before = _targets(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, original), (_, _, now) in zip(before, _targets(spans)):
            assert now is not original, f"{owner.__name__}.{attr} not patched"
        # Every kind's training pass runs through the traced model names.
        for kind in TRAINABLE_KINDS:
            tweet = Tweet("u1", "ab c", ("ab", "c"), TraitScores(0, 0, 0, 0, 0))
            vocab = build_vocab_for(kind, [tweet])
            cfg = TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2, word_dim=2)
            reg = Regressor(kind, init_params(kind, model_dims(kind, cfg, vocab), 1), vocab)
            _, trace = reg.forward(tweet)
            reg.backward(trace, 1.0)
    finally:
        tracer.uninstall()
    assert [t[2] for t in _targets(spans)] == [t[2] for t in before]
    table = tracer.table(rounds=1)
    calls = table["spans"]
    for name in ("model.forward", "model.backward", "model.flat_forward",
                 "model.flat_backward", "model.zero_grads", "gru.gru_forward",
                 "gru.rnn_unroll", "gru.rnn_backward", "gru.birnn_backward"):
        assert calls[name]["calls"] >= len(TRAINABLE_KINDS), name
    # The flop counters read the arguments of gru_forward and rnn_backward.
    assert table["counters"]["gru.gflop"] > 0


def test_training_runs_through_the_traced_adam_and_init(spans):
    # The per-layer Adam and initialization metrics of a traced training
    # round read these spans; the gradient vector is zeroed in place, so
    # model.zero_grads is not among them.
    tweets = [Tweet("u1", "ab c", ("ab", "c"), TraitScores(0.1, 0, 0, 0, 0)),
              Tweet("u2", "de", ("de",), TraitScores(-0.1, 0, 0, 0, 0))]
    cfg = TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2, epochs=1, batch_size=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Looked up at call time, as the CLI does, so the patched function runs.
        importlib.import_module("traitgru.train").train(TRAINABLE_KINDS[0], tweets, "ext", cfg)
    finally:
        tracer.uninstall()
    calls = tracer.table(rounds=1)["spans"]
    for name in ("train.train", "train.init_params", "train.adam_step"):
        assert calls[name]["calls"] >= 1, name


def test_scoring_commands_run_through_the_traced_names(spans, tmp_path, monkeypatch, capsys):
    # The spans a traced score-paper run books its time to.
    data_path, cfg_path, model = tmp_path / "d.tsv", tmp_path / "t.cfg", tmp_path / "m.ckpt"
    cfg_path.write_text(format_config(TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2,
                                                  epochs=1, seed=5)), encoding="utf-8")
    assert cli.main(["fixture", "--users", "4", "--tweets-per-user", "3",
                     "--seed", "3", "--out", str(data_path)]) == 0
    assert cli.main(["train", "--data", str(data_path), "--trait", "ext",
                     "--model", "c2w2s4pt", "--config", str(cfg_path),
                     "--seed", "5", "--out", str(model)]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n\nsee you !!\n"))
        assert cli.main(["predict", "--model", str(model), "--stdin"]) == 0
        assert cli.main(["visualize", "--model", str(model), "--data", str(data_path),
                         "--trait", "ext", "--n", "2", "--out", str(tmp_path / "s.csv"),
                         "--format", "csv", "--seed", "4"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.table(rounds=1)["spans"]
    for name in ("cli.main", "checkpoint.load", "data.build_tweets",
                 "viz.select_extremes", "viz.pca_fit", "viz.export_scatter",
                 "gru.gru_forward"):  # trace-free scoring steps through gru_forward too
        assert calls[name]["calls"] >= 1, name


def test_gradcheck_runs_under_the_tracer(spans, capsys):
    # The probes' stacked walk steps past gru_forward, whose flop counter
    # reads a 2-D W; the analytic pass still steps through it.
    tracer = spans.Tracer()
    tracer.install()
    try:
        for kind in TRAINABLE_KINDS:
            assert cli.main(["gradcheck", "--model-kind", kind.value, "--trials", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    table = tracer.table(rounds=1)
    assert table["spans"]["train.check_gradients"]["calls"] == 2 * len(TRAINABLE_KINDS)
    assert table["spans"]["gru.gru_forward"]["calls"] >= 1
    assert table["counters"]["gru.gflop"] > 0
