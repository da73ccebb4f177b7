"""Golden outputs of the command line, pinned bit for bit.

The fixture recipe below trains each trainable kind at batch sizes 1, 4
and 32 and pins the checkpoints' sha256 prefixes, the three `predict`
lines of the batch-4 checkpoints and the three default `gradcheck`
lines; at the recipe's hidden size of 6 they pin the path that runs a
level's two directions as one fused recurrence.  One more checkpoint,
c2w2s4pt at hidden size 128 trained with a thread cap of 2, pins the path
that runs a level's two directions on two threads.

A change that moves a pin on purpose (a new order of summation, say)
updates it and says which pins moved and why.  The pins were taken with
numpy 2.4.6 on OpenBLAS 0.3.31 (a DYNAMIC_ARCH build, x86-64): float
rounding depends on the numpy and BLAS build and on the kernels it picks
for the CPU, so another build may move them.
"""

import hashlib

import pytest

from traitgru import gru
from traitgru.cli import main

KINDS = ("c2w2s4pt", "bigru-char", "bigru-word")

CHECKPOINT_SHA256 = {
    1: ("bd11f95ea99ccf2b", "d9b701a4f1e52d91", "6c675a3b6568ef06"),
    4: ("0bfa0b83fd56cca4", "ab9805bfebb24830", "4dcaee44ca9ddb34"),
    32: ("2fc8ab71e2e2ee50", "2a4e55684e331f0c", "7d92dcdf0545ab15"),
}
THREADED_SHA256 = "392d11ed0c960b93"
PREDICT_LINES = ("-0.019301", "-0.019139", "-0.022030")
GRADCHECK_LINES = ("max relative error: 8.408e-06", "max relative error: 1.241e-06",
                   "max relative error: 5.472e-06")


@pytest.fixture()
def recipe(tmp_path, monkeypatch):
    """train(kind, batch_size, hidden_size, threads) -> checkpoint path, on
    the recipe's fixture and config."""
    monkeypatch.setattr(gru, "_threads", gru._threads)  # train --threads sets the process's cap
    data = tmp_path / "d.tsv"
    assert main(["fixture", "--users", "6", "--tweets-per-user", "8", "--seed", "3",
                 "--out", str(data)]) == 0

    def train(kind, batch_size, hidden_size=6, threads=1):
        cfg = tmp_path / f"c{batch_size}_{hidden_size}.cfg"
        cfg.write_text(f"char_dim = 4\nhidden_size = {hidden_size}\nmlp_dim = 5\n"
                       f"word_dim = 4\nepochs = 2\ndropout_rate = 0.3\nclip_norm = 0.5\n"
                       f"batch_size = {batch_size}\n", encoding="utf-8")
        out = tmp_path / f"{kind}_{batch_size}_{hidden_size}.ckpt"
        assert main(["train", "--data", str(data), "--trait", "ext", "--model", kind,
                     "--config", str(cfg), "--seed", "9", "--out", str(out),
                     "--threads", str(threads)]) == 0
        return out

    return train


def sha256_prefix(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def test_recipe_checkpoints_predictions_and_gradcheck_lines(recipe, capsys):
    assert 6 < gru.FUSED_BELOW_HIDDEN  # so the recipe's levels run fused
    checkpoints = {}
    for batch_size, pins in CHECKPOINT_SHA256.items():
        checkpoints[batch_size] = [recipe(kind, batch_size) for kind in KINDS]
        assert tuple(map(sha256_prefix, checkpoints[batch_size])) == pins, f"batch {batch_size}"
    capsys.readouterr()

    lines = []
    for path in checkpoints[4]:
        assert main(["predict", "--model", str(path), "--text", "so happy !!"]) == 0
        lines.append(capsys.readouterr().out.strip())
    assert tuple(lines) == PREDICT_LINES

    lines = []
    for kind in KINDS:
        assert main(["gradcheck", "--model-kind", kind]) == 0
        lines.append(capsys.readouterr().out.strip())
    assert tuple(lines) == GRADCHECK_LINES

    assert 128 >= gru.CONCURRENT_MIN_HIDDEN  # so a cap of 2 runs the two threads
    assert sha256_prefix(recipe("c2w2s4pt", 4, hidden_size=128, threads=2)) == THREADED_SHA256
