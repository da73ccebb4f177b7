import json
import re

import pytest

from traitgru import checkpoint as C
from traitgru.cli import main
from traitgru.data import (MAX_TWEET_CHARS, MAX_WORD_CHARS, RawRecord, TraitScores,
                           build_tweets, load_dataset)
from traitgru.train import TrainConfig, format_config
from traitgru.viz import parse_scatter_csv

TINY_CONFIG = format_config(TrainConfig(
    char_dim=2, hidden_size=3, mlp_dim=3, word_dim=2,
    epochs=2, batch_size=8, dropout_rate=0.0, seed=5,
))


@pytest.fixture()
def workspace(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG, encoding="utf-8")
    data_path = tmp_path / "data.tsv"
    rc = main(["fixture", "--users", "5", "--tweets-per-user", "4",
               "--signal", "exclamation", "--seed", "3", "--out", str(data_path)])
    assert rc == 0
    return tmp_path, cfg_path, data_path


def test_fixture_emits_n_times_m_lines(workspace):
    _, _, data_path = workspace
    lines = data_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 20
    records, report = load_dataset(data_path)
    assert len(records) == 20 and not report.rejected


def test_fixture_reproducible(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        assert main(["fixture", "--users", "3", "--tweets-per-user", "2",
                     "--seed", "9", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_checkpoint_and_report(workspace):
    tmp_path, cfg_path, data_path = workspace
    out = tmp_path / "model.ckpt"
    report = tmp_path / "epochs.csv"
    rc = main(["train", "--data", str(data_path), "--trait", "ext",
               "--model", "c2w2s4pt", "--config", str(cfg_path),
               "--seed", "5", "--out", str(out), "--report", str(report)])
    assert rc == 0
    assert C.load(out).kind.value == "c2w2s4pt"
    lines = report.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch,loss,val_rmse,seconds" and len(lines) == 3


def test_train_determinism_across_runs_and_threads(workspace):
    tmp_path, cfg_path, data_path = workspace
    outs = []
    for name, threads in (("m1.ckpt", "1"), ("m2.ckpt", "4")):
        out = tmp_path / name
        rc = main(["train", "--data", str(data_path), "--trait", "ext",
                   "--model", "c2w2s4pt", "--config", str(cfg_path),
                   "--seed", "5", "--out", str(out), "--threads", threads])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_missing_required_flag_exits_2(workspace, capsys):
    _, cfg_path, data_path = workspace
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data_path), "--model", "c2w2s4pt",
              "--config", str(cfg_path), "--out", "x.ckpt"])
    assert exc.value.code == 2
    assert "--trait" in capsys.readouterr().err


def test_help_exits_0():
    for argv in (["--help"], ["train", "--help"], ["eval", "--help"],
                 ["predict", "--help"], ["visualize", "--help"],
                 ["gradcheck", "--help"], ["fixture", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_predict_text_and_stdin(workspace, capsys, monkeypatch):
    tmp_path, cfg_path, data_path = workspace
    out = tmp_path / "model.ckpt"
    main(["train", "--data", str(data_path), "--trait", "ext",
          "--model", "c2w2s4pt", "--config", str(cfg_path),
          "--seed", "5", "--out", str(out)])
    rc = main(["predict", "--model", str(out), "--text", "hello there !!"])
    assert rc == 0
    first = capsys.readouterr().out.strip()
    float(first)
    rc = main(["predict", "--model", str(out), "--text", "hello there !!"])
    assert capsys.readouterr().out.strip() == first  # deterministic

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("one line\nhttp://x.co/a\n \n"))
    rc = main(["predict", "--model", str(out), "--stdin"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    float(lines[0])
    float(lines[1])  # a URL-only line normalizes to "^", still scorable
    assert lines[2] == "NA"  # whitespace-only line has no tokens


def test_predict_stdin_scores_what_build_tweets_makes_of_the_line(workspace, capsys,
                                                                   monkeypatch):
    import io

    tmp_path, cfg_path, data_path = workspace
    out = tmp_path / "model.ckpt"
    main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
          "--config", str(cfg_path), "--seed", "5", "--out", str(out)])
    line = "x" * (MAX_WORD_CHARS + 9) + " hello there!" * 50
    assert len(line) > MAX_TWEET_CHARS
    tweets, _ = build_tweets([RawRecord("u1", line, TraitScores(0, 0, 0, 0, 0))])
    expected = C.load(out).to_regressor().score(tweets[0])
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n\n"))
    assert main(["predict", "--model", str(out), "--stdin"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{expected:.6f}", "NA"]


BAD_CONFIG_VALUES = [
    # (key, value, what the error must name; {line} is the bad line's number)
    ("learning_rate", "-5", "learning_rate"),
    ("learning_rate", "nan", "learning_rate"),
    ("beta1", "1.0", "beta1"),
    ("beta2", "1.0", "beta2"),
    ("epsilon", "0", "epsilon"),
    ("clip_norm", "inf", "clip_norm"),
    ("epochs", "1.5", "config line {line}: epochs"),
]


@pytest.mark.parametrize("key, value, names", BAD_CONFIG_VALUES,
                         ids=[f"{key}={value}" for key, value, _ in BAD_CONFIG_VALUES])
def test_train_rejects_a_bad_config_value_before_writing(workspace, capsys, key, value, names):
    tmp_path, _, data_path = workspace
    lines = [ln for ln in TINY_CONFIG.splitlines() if not ln.startswith(f"{key} =")]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n", encoding="utf-8")
    out = tmp_path / "bad.ckpt"
    assert main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
                 "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and names.format(line=len(lines) + 1) in err
    assert not out.exists()


def test_train_exits_1_when_the_model_cannot_be_allocated(workspace, capsys):
    # One GRU tensor at this width needs over 2^47 bytes, more address space
    # than a process has, so the allocation fails however memory is
    # overcommitted.
    tmp_path, _, data_path = workspace
    lines = [ln for ln in TINY_CONFIG.splitlines() if not ln.startswith("hidden_size =")]
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text("\n".join(lines + [f"hidden_size = {10**15}"]) + "\n", encoding="utf-8")
    out = tmp_path / "huge.ckpt"
    assert main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
                 "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error:")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_exits_1_naming_the_step_that_went_non_finite(workspace, capsys):
    tmp_path, _, data_path = workspace
    cfg_path = tmp_path / "steep.cfg"
    cfg_path.write_text(TINY_CONFIG.replace("learning_rate = 0.001", "learning_rate = 1e300"),
                        encoding="utf-8")
    out = tmp_path / "steep.ckpt"
    assert main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
                 "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error:") and "non-finite" in err
    assert re.search(r"\(trait ext, epoch \d+, batch \d+, training tweet \d+\)$", err), err
    assert not out.exists()


def test_predict_zero_init_checkpoint_outputs_bias(workspace, capsys):
    tmp_path, cfg_path, data_path = workspace
    zcfg = tmp_path / "zero.cfg"
    zcfg.write_text(TINY_CONFIG.replace("init_scheme = glorot", "init_scheme = zeros")
                    .replace("epochs = 2", "epochs = 1")
                    .replace("learning_rate = 0.001", "learning_rate = 0.0"),
                    encoding="utf-8")
    out = tmp_path / "zero.ckpt"
    main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
          "--config", str(zcfg), "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    b_y = float(C.load(out).tensors["b_y"][0])
    for text in ("anything", "else entirely"):
        main(["predict", "--model", str(out), "--text", text])
        assert float(capsys.readouterr().out.strip()) == pytest.approx(b_y, abs=1e-6)


def test_predict_corrupt_checkpoint_exit_1(workspace, capsys):
    tmp_path, _, _ = workspace
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert main(["predict", "--model", str(bad), "--text", "hi"]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_average_no_config(workspace, capsys):
    tmp_path, _, data_path = workspace
    csv_path = tmp_path / "cv.csv"
    rc = main(["eval", "--data", str(data_path), "--model-kind", "average",
               "--trait", "ext", "--k", "5", "--level", "tweet",
               "--seed", "2", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "average" in out and "EXT" in out
    rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 1 + 5 + 1  # header + k folds + pooled


def test_eval_arbitrary_k_accepted(workspace):
    _, _, data_path = workspace
    assert main(["eval", "--data", str(data_path), "--model-kind", "average",
                 "--trait", "ext", "--k", "7", "--level", "tweet", "--seed", "1"]) == 0


def test_eval_trainable_kind(workspace, capsys):
    _, cfg_path, data_path = workspace
    rc = main(["eval", "--data", str(data_path), "--model-kind", "c2w2s4pt",
               "--trait", "ext", "--k", "3", "--level", "tweet",
               "--config", str(cfg_path), "--seed", "2"])
    assert rc == 0
    assert "c2w2s4pt" in capsys.readouterr().out


def test_visualize_csv_and_svg(workspace, capsys):
    tmp_path, cfg_path, data_path = workspace
    model = tmp_path / "model.ckpt"
    main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
          "--config", str(cfg_path), "--seed", "5", "--out", str(model)])
    csv_out = tmp_path / "scatter.csv"
    rc = main(["visualize", "--model", str(model), "--data", str(data_path),
               "--trait", "ext", "--n", "3", "--out", str(csv_out),
               "--format", "csv", "--seed", "4"])
    assert rc == 0
    pts = parse_scatter_csv(csv_out.read_text(encoding="utf-8"))
    assert len(pts) == 6  # 2n rows
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (svg_a, svg_b):
        rc = main(["visualize", "--model", str(model), "--data", str(data_path),
                   "--trait", "ext", "--n", "3", "--out", str(out),
                   "--format", "svg", "--seed", "4"])
        assert rc == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()


def test_gradcheck_exit_codes(capsys):
    rc = main(["gradcheck", "--trials", "3", "--seed", "8"])
    assert rc == 0
    assert "max relative error" in capsys.readouterr().out


def test_load_report_json(workspace, tmp_path):
    _, _, data_path = workspace
    report_path = tmp_path / "load.json"
    rc = main(["eval", "--data", str(data_path), "--model-kind", "average",
               "--trait", "ext", "--k", "5", "--level", "tweet",
               "--load-report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["parsed"] == 20 and report["rejected"] == []


def test_runtime_error_exits_1(tmp_path, capsys):
    assert main(["eval", "--data", str(tmp_path / "missing.tsv"),
                 "--model-kind", "average", "--trait", "ext",
                 "--k", "5", "--level", "tweet"]) == 1
    assert "error:" in capsys.readouterr().err


def _run_module(*argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import traitgru

    src = str(Path(traitgru.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "traitgru.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_runs_the_command(tmp_path):
    done = _run_module("gradcheck", "--model-kind", "bigru-word", "--trials", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("max relative error: ")
    missing = _run_module("predict", "--model", str(tmp_path / "absent.ckpt"), "--text", "hi")
    assert missing.returncode == 1
    assert missing.stderr.startswith("error:") and missing.stdout == ""
