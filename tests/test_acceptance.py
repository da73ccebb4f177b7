"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (visible with pytest -s); a failure
reads as the criterion number plus the measured value.  Reference RMSE
numbers from the original study are documentation only (criterion 1):
they were measured on the withheld PAN 2015 corpus and are not targets
for the synthetic fixtures used here.
"""

import math
import json
import time
from pathlib import Path

import numpy as np
import pytest

from traitgru import checkpoint as C
from traitgru.cli import main
from traitgru.data import (build_tweets, generate_fixture, normalize_tweet, tokenize)
from traitgru.evaluate import TweetPrediction, rmse_tweet, rmse_user, run_cv
from traitgru.gru import BiRnnParams, birnn_forward, rnn_unroll
from traitgru.model import ModelKind, mse_loss
from traitgru.rng import SplitMix64
from traitgru.train import TrainConfig, grad_check, train
from traitgru.viz import pca_fit, pca_project

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "preprocess_golden.json"


def report(n, detail):
    print(f"[criterion {n:>2}] PASS  {detail}")


def test_criterion_01_reference_numbers_documented_not_reproduced():
    # The corpus behind the published tables is withheld, so those numbers
    # are recorded in the README as reference values only.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "PAN 2015" in readme
    assert "0.130" in readme  # EN 10-fold user-level EXT reference value
    assert "withheld" in readme.lower() or "not redistributable" in readme.lower()
    report(1, "published reference numbers documented, marked non-reproducible")


def test_criterion_02_gradient_oracle_all_kinds():
    started = time.perf_counter()
    worst = {}
    for kind in (ModelKind.C2W2S4PT, ModelKind.BI_GRU_CHAR, ModelKind.BI_GRU_WORD):
        worst[kind.value] = grad_check(kind, n_trials=20, eps=1e-5, seed=20240)
    elapsed = time.perf_counter() - started
    assert all(err < 1e-4 for err in worst.values()), worst
    assert elapsed < 30.0, f"gradient oracle took {elapsed:.1f}s"
    report(2, "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + f" ({elapsed:.1f}s)")


def test_criterion_03_single_tweet_memorization():
    tweets, _ = build_tweets(generate_fixture(1, 1, signal="exclamation", seed=1))
    cfg = TrainConfig(char_dim=4, hidden_size=8, mlp_dim=8, word_dim=4,
                      epochs=500, batch_size=1, dropout_rate=0.0, seed=3)
    started = time.perf_counter()
    _, reports = train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
    elapsed = time.perf_counter() - started
    assert reports[-1].loss < 1e-4, f"final training MSE {reports[-1].loss:.3e}"
    assert elapsed < 10.0, f"memorization took {elapsed:.1f}s"
    report(3, f"500-epoch single-tweet MSE {reports[-1].loss:.2e} ({elapsed:.1f}s)")


def test_criterion_04_learnable_fixture_beats_average_baseline():
    tweets, _ = build_tweets(generate_fixture(10, 50, signal="exclamation",
                                              noise=0.0, seed=42))
    started = time.perf_counter()
    baseline = run_cv(ModelKind.AVERAGE, tweets, "ext", 5, "tweet", seed=42)
    cfg = TrainConfig(char_dim=8, hidden_size=16, mlp_dim=16, word_dim=8,
                      epochs=30, batch_size=8, learning_rate=3e-3,
                      dropout_rate=0.0, seed=42)
    model = run_cv(ModelKind.C2W2S4PT, tweets, "ext", 5, "tweet", cfg, seed=42)
    elapsed = time.perf_counter() - started
    ratio = model.pooled_rmse / baseline.pooled_rmse
    assert model.pooled_rmse <= 0.8 * baseline.pooled_rmse, (
        f"model {model.pooled_rmse:.4f} vs baseline {baseline.pooled_rmse:.4f}")
    assert elapsed < 300.0, f"cross-validation took {elapsed:.1f}s"
    report(4, f"pooled RMSE {model.pooled_rmse:.4f} vs baseline "
              f"{baseline.pooled_rmse:.4f} (ratio {ratio:.3f}, {elapsed / 60:.1f} min)")


def test_criterion_05_metric_identities():
    rng = np.random.default_rng(123)
    # rmse_tweet == sqrt(mse_loss) on shared inputs
    y_hat = rng.uniform(-1, 1, 64)
    y = rng.uniform(-0.5, 0.5, 64)
    preds = [TweetPrediction(i, f"u{i % 7}", "ext", float(a), float(b))
             for i, (a, b) in enumerate(zip(y_hat, y))]
    lhs = rmse_tweet(preds)
    rhs = math.sqrt(mse_loss(list(map(float, y_hat)), list(map(float, y))))
    assert abs(lhs - rhs) < 1e-12

    # user-mean constant predictor's RMSE_user == population std of user scores
    for _ in range(25):
        scores = rng.uniform(-0.5, 0.5, rng.integers(2, 40))
        mean = float(scores.mean())
        pairs = [(f"u{i}", mean, float(s)) for i, s in enumerate(scores)]
        pop_std = float(np.sqrt(np.mean((scores - mean) ** 2)))
        assert abs(rmse_user(pairs) - pop_std) < 1e-12

    # pooled RMSE^2 == tweet-count-weighted mean of per-fold MSEs
    tweets, _ = build_tweets(generate_fixture(9, 7, signal="exclamation", seed=6))
    rep = run_cv(ModelKind.AVERAGE, tweets, "ext", 5, "tweet", seed=13)
    weighted = sum(n * r * r for n, r in zip(rep.fold_sizes, rep.fold_rmse))
    assert abs(rep.pooled_rmse ** 2 - weighted / sum(rep.fold_sizes)) < 1e-12
    report(5, "rmse/mse, constant-predictor std, pooled decomposition all within 1e-12")


def test_criterion_06_gru_invariants_fuzzed():
    from tests.test_gru import direction, random_params

    rng = SplitMix64(606)
    checked = 0
    duals = 0
    while checked < 10_000:
        d = 1 + rng.below(6)
        h = 1 + rng.below(6)
        p = random_params(rng, d, h)
        xs = [rng.uniforms(d, -1, 1) for _ in range(1 + rng.below(5))]
        tr = rnn_unroll(p, xs, [1] * len(xs))  # a pack of one
        assert np.all((tr.zr > 0) & (tr.zr < 1))
        assert np.all((tr.h_tilde > -1) & (tr.h_tilde < 1))
        assert np.all((tr.h_new > -1) & (tr.h_new < 1))
        checked += len(tr)
        # reversal duality: backward direction == forward run on reversed input
        if duals < 500:
            q = random_params(rng, d, h)
            bi = BiRnnParams(fwd=p, bwd=q)
            trace = birnn_forward(bi, xs, [len(xs)])
            ref = rnn_unroll(q, list(reversed(xs)), [1] * len(xs))
            np.testing.assert_allclose(direction(trace, 1).h_new, ref.h_new, atol=1e-12)
            duals += 1
    report(6, f"{checked} fuzzed cells in range, {duals} reversal dualities within 1e-12")


def test_criterion_07_pca_power_method_vs_dense_eigensolver():
    from tests.test_viz import dense_pca_oracle

    rng = np.random.default_rng(707)
    worst_comp, worst_orth, worst_recon = 0.0, 0.0, 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(3, 20))
        x = rng.normal(size=(n, d)) * rng.uniform(0.3, 3.0)
        pca = pca_fit(x)
        _, comps, var = dense_pca_oracle(x)
        worst_comp = max(worst_comp, float(np.max(np.abs(pca.components - comps))),
                         float(np.max(np.abs(pca.explained_variance - var))))
        gram = pca.components @ pca.components.T
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(2)))))
        xc = x - pca.mean
        total_ss = float(np.sum(xc * xc))
        residual_ss = sum(
            float(np.sum((v - (pca.mean + pca.components.T @ np.asarray(pca_project(pca, v)))) ** 2))
            for v in x)
        explained_ss = (n - 1) * float(np.sum(pca.explained_variance))
        worst_recon = max(worst_recon, abs(residual_ss - (total_ss - explained_ss)))
    assert worst_comp < 1e-8, f"component deviation {worst_comp:.2e}"
    assert worst_orth < 1e-10, f"orthonormality deviation {worst_orth:.2e}"
    assert worst_recon < 1e-8, f"reconstruction identity deviation {worst_recon:.2e}"
    report(7, f"100 instances: components {worst_comp:.1e}, "
              f"orthonormality {worst_orth:.1e}, reconstruction {worst_recon:.1e}")


def test_criterion_08_preprocessing_goldens_and_idempotence():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(golden) == 50
    assert golden[0]["raw"] == "@john hi http://t.co/abc"
    assert golden[0]["normalized"] == "@ hi ^"
    for entry in golden:
        normalized = normalize_tweet(entry["raw"])
        assert normalized == entry["normalized"], entry["raw"]
        assert tokenize(normalized) == entry["tokens"], entry["raw"]

    # idempotence on 1e5 fuzzed strings
    rng = SplitMix64(808)
    palette = ("abcdefghij XYZ@#^!?.:;()[]/\\'\"-_~*%&=+<>éß́"
               "При \U0001F600あ\t\n0123456789")
    checked = 0
    for _ in range(100_000):
        n = rng.below(40)
        s = "".join(palette[rng.below(len(palette))] for _ in range(n))
        once = normalize_tweet(s)
        assert normalize_tweet(once) == once, repr(s)
        checked += 1
    report(8, f"50 golden lines bit-exact; idempotence on {checked} fuzzed strings")


def test_criterion_09_determinism_train_visualize_threads(tmp_path):
    from traitgru.train import format_config

    data_path = tmp_path / "d.tsv"
    assert main(["fixture", "--users", "6", "--tweets-per-user", "5",
                 "--seed", "9", "--out", str(data_path)]) == 0
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(format_config(TrainConfig(
        char_dim=3, hidden_size=4, mlp_dim=4, word_dim=3, epochs=2,
        batch_size=8, dropout_rate=0.5, seed=17)), encoding="utf-8")
    blobs = []
    for name, threads in (("a.ckpt", "1"), ("b.ckpt", "3"), ("c.ckpt", "1")):
        out = tmp_path / name
        assert main(["train", "--data", str(data_path), "--trait", "ext",
                     "--model", "c2w2s4pt", "--config", str(cfg_path),
                     "--seed", "17", "--out", str(out), "--threads", threads]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    svgs = []
    for name in ("a.svg", "b.svg"):
        out = tmp_path / name
        assert main(["visualize", "--model", str(tmp_path / "a.ckpt"),
                     "--data", str(data_path), "--trait", "ext", "--n", "4",
                     "--out", str(out), "--format", "svg", "--seed", "11"]) == 0
        svgs.append(out.read_bytes())
    assert svgs[0] == svgs[1]
    report(9, "checkpoints bitwise identical across runs and --threads; SVG byte-identical")


def test_criterion_09_threaded_training_and_eval_bitwise_identical(tmp_path, capsys,
                                                                   monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    from traitgru import gru
    from traitgru.train import format_config

    # At this hidden size a cap of 2 runs each level's two directions on
    # two threads; a cap of 1 runs the serial path.  The partner counts
    # its hand-offs.
    handed_over = []
    partner = ThreadPoolExecutor(1, thread_name_prefix="traitgru-partner")
    submit = partner.submit

    def counting(*args):
        handed_over.append(1)
        return submit(*args)

    monkeypatch.setattr(partner, "submit", counting)
    monkeypatch.setattr(gru, "_partner", partner)
    monkeypatch.setattr(gru, "_threads", gru._threads)
    data_path = tmp_path / "d.tsv"
    assert main(["fixture", "--users", "4", "--tweets-per-user", "3",
                 "--seed", "9", "--out", str(data_path)]) == 0
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(format_config(TrainConfig(
        char_dim=8, hidden_size=gru.CONCURRENT_MIN_HIDDEN * 2, mlp_dim=8, word_dim=8,
        epochs=1, batch_size=4, dropout_rate=0.5, seed=17)), encoding="utf-8")
    runs = []
    for threads in ("1", "2"):
        handed_over.clear()
        out, csv = tmp_path / f"t{threads}.ckpt", tmp_path / f"t{threads}.csv"
        assert main(["train", "--data", str(data_path), "--trait", "ext",
                     "--model", "c2w2s4pt", "--config", str(cfg_path),
                     "--out", str(out), "--threads", threads]) == 0
        capsys.readouterr()
        assert main(["eval", "--data", str(data_path), "--model-kind", "c2w2s4pt",
                     "--trait", "ext", "--k", "2", "--level", "tweet",
                     "--config", str(cfg_path), "--csv", str(csv), "--threads", threads]) == 0
        runs.append((out.read_bytes(), capsys.readouterr().out, csv.read_bytes()))
        assert bool(handed_over) == (threads == "2")
    partner.shutdown()
    assert runs[0] == runs[1]
    report(9, "paper-width checkpoint, eval table and CSV bitwise identical at 1 and 2 threads")


def test_criterion_10_checkpoint_roundtrip_and_truncation(tmp_path, capsys):
    tweets, _ = build_tweets(generate_fixture(3, 4, seed=21))
    cfg = TrainConfig(char_dim=3, hidden_size=4, mlp_dim=4, word_dim=3,
                      epochs=1, dropout_rate=0.0, seed=2)
    ckpt, _ = train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
    first = tmp_path / "m1.ckpt"
    second = tmp_path / "m2.ckpt"
    C.save(ckpt, first)
    C.save(C.load(first), second)
    assert first.read_bytes() == second.read_bytes()

    truncated = tmp_path / "broken.ckpt"
    truncated.write_bytes(first.read_bytes()[: first.stat().st_size // 2])
    rc = main(["predict", "--model", str(truncated), "--text", "hello"])
    err = capsys.readouterr().err
    assert rc == 1 and "truncated" in err
    report(10, "save-load-save bitwise idempotent; truncated load exits 1 with diagnostic")


@pytest.mark.slow
def test_criterion_11_paper_scale_smoke():
    tweets, _ = build_tweets(generate_fixture(20, 50, signal="exclamation", seed=31))
    assert len(tweets) == 1000
    cfg = TrainConfig(char_dim=50, hidden_size=256, mlp_dim=256, word_dim=256,
                      epochs=1, batch_size=32, dropout_rate=0.5, seed=4)
    started = time.perf_counter()
    ckpt, reports = train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"full-dimension epoch took {elapsed / 60:.1f} min"
    assert ckpt.dims["char_hidden"] == 256 and math.isfinite(reports[0].loss)
    report(11, f"one epoch at full dimensions on 1000 tweets in {elapsed / 60:.1f} min")
