import codecs
import json
import re
import xml.etree.ElementTree as ET

import pytest

from traitgru import checkpoint as C
from traitgru.cli import main
from traitgru.data import (MAX_TWEET_CHARS, MAX_WORD_CHARS, RawRecord, TraitScores,
                           build_tweets, load_dataset)
from traitgru.train import TrainConfig, format_config
from traitgru.viz import parse_scatter_csv

from .test_checkpoint import nested_header_checkpoint

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


def test_predict_stdin_lines_end_only_at_newline(workspace, capsys, monkeypatch):
    import io

    tmp_path, cfg_path, data_path = workspace
    out = tmp_path / "model.ckpt"
    main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
          "--config", str(cfg_path), "--seed", "5", "--out", str(out)])
    lines = ["good line", "form\x0cfeed", "nel\x85here", "last\u2028line"]
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["predict", "--model", str(out), "--stdin"]) == 0
    scores = capsys.readouterr().out.splitlines()
    assert len(scores) == 4
    assert main(["predict", "--model", str(out), "--text", lines[1]]) == 0
    assert capsys.readouterr().out.strip() == scores[1]


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


def test_train_skips_a_leading_bom_in_the_config(workspace):
    tmp_path, cfg_path, data_path = workspace
    bom_path = tmp_path / "bom.cfg"
    bom_path.write_bytes(codecs.BOM_UTF8 + cfg_path.read_bytes())
    models = []
    for path in (cfg_path, bom_path):
        out = tmp_path / f"{path.stem}.ckpt"
        assert main(["train", "--data", str(data_path), "--trait", "ext", "--model",
                     "c2w2s4pt", "--config", str(path), "--out", str(out)]) == 0
        models.append(out.read_bytes())
    assert models[0] == models[1]


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_train_names_the_config_file_and_offset_of_invalid_utf8(workspace, capsys, bom):
    tmp_path, _, data_path = workspace
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_bytes(bom + b"epochs = 1\nseed = \xff\n")
    out = tmp_path / "bad.ckpt"
    assert main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
                 "--config", str(cfg_path), "--out", str(out)]) == 1
    offset = len(bom) + 18  # counted in the file, as load_dataset counts it
    assert capsys.readouterr().err == f"error: {cfg_path}: invalid UTF-8 at byte offset {offset}\n"
    assert not out.exists()


def test_train_exits_1_when_the_model_cannot_be_allocated(workspace, capsys):
    # One GRU tensor at this width needs over 2^47 bytes, more than any
    # machine's physical memory, so train refuses the model before
    # allocating it.
    tmp_path, _, data_path = workspace
    lines = [ln for ln in TINY_CONFIG.splitlines() if not ln.startswith("hidden_size =")]
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text("\n".join(lines + [f"hidden_size = {10**15}"]) + "\n", encoding="utf-8")
    out = tmp_path / "huge.ckpt"
    assert main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
                 "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error:") and "bytes of physical memory" in err
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
    tmp_path, cfg_path, data_path = workspace
    csv_path = tmp_path / "cv.csv"
    rc = main(["eval", "--data", str(data_path), "--model-kind", "average",
               "--trait", "ext", "--k", "5", "--level", "tweet",
               "--seed", "2", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "average" in out and "EXT" in out
    rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 1 + 5 + 1  # header + k folds + pooled
    # A config is read and checked, but the baseline ignores its values.
    assert main(["eval", "--data", str(data_path), "--model-kind", "average",
                 "--trait", "ext", "--k", "5", "--level", "tweet",
                 "--seed", "2", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("content, names", [
    (None, "{path}"),
    ("epochs = 1\nlayers = 2\n", "config line 2: unknown key 'layers'"),
], ids=["missing", "unknown key"])
def test_eval_average_rejects_a_bad_config(workspace, capsys, content, names):
    tmp_path, _, data_path = workspace
    cfg_path = tmp_path / "eval.cfg"
    if content is not None:
        cfg_path.write_text(content, encoding="utf-8")
    assert main(["eval", "--data", str(data_path), "--model-kind", "average", "--trait", "ext",
                 "--k", "5", "--level", "tweet", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and names.format(path=cfg_path) in captured.err


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


def test_visualize_svg_parses_with_control_characters_in_the_data(workspace):
    tmp_path, cfg_path, data_path = workspace
    lines = data_path.read_text(encoding="utf-8").splitlines()
    data_path.write_text("".join(ln.replace(" ", " \x01", 1) + "\n" for ln in lines),
                         encoding="utf-8")
    model, out = tmp_path / "model.ckpt", tmp_path / "ctl.svg"
    assert main(["train", "--data", str(data_path), "--trait", "ext", "--model", "c2w2s4pt",
                 "--config", str(cfg_path), "--seed", "5", "--out", str(model)]) == 0
    assert main(["visualize", "--model", str(model), "--data", str(data_path),
                 "--trait", "ext", "--n", "3", "--out", str(out), "--format", "svg"]) == 0
    titles = [t.text for t in ET.parse(out).iter("{http://www.w3.org/2000/svg}title")]
    assert len(titles) == 6 and all("\ufffd" in t for t in titles)


def test_gradcheck_exit_codes(capsys):
    rc = main(["gradcheck", "--trials", "3", "--seed", "8"])
    assert rc == 0
    assert "max relative error" in capsys.readouterr().out


@pytest.mark.parametrize("eps", ["0", "-1e-5", "nan", "inf"])
def test_gradcheck_rejects_a_non_positive_or_non_finite_eps(capsys, eps):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--trials", "1", f"--eps={eps}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--eps" in err and "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("command, option, value", [
    ("fixture", "--noise", "-1"), ("fixture", "--noise", "nan"), ("fixture", "--noise", "inf"),
    ("eval", "--k", "1"), ("visualize", "--tail", "0.9"), ("visualize", "--tail", "0"),
])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, command, option, value):
    out = tmp_path / "out"
    # The data and the model do not exist: the value is rejected before
    # either is read.
    rest = {
        "fixture": ["--users", "2", "--tweets-per-user", "2", "--out", str(out)],
        "eval": ["--data", str(tmp_path / "missing.tsv"), "--model-kind", "average",
                 "--trait", "ext", "--level", "tweet"],
        "visualize": ["--model", str(tmp_path / "missing.ckpt"),
                      "--data", str(tmp_path / "missing.tsv"), "--trait", "ext",
                      "--out", str(out), "--format", "csv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *rest, f"{option}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert option in err and "usage:" in err and "Traceback" not in err
    assert not out.exists()


def test_gradcheck_exits_1_when_a_huge_eps_overflows(capsys):
    assert main(["gradcheck", "--trials", "1", "--eps", "1e300"]) == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_deeply_nested_checkpoint_header_exits_1_without_a_traceback(workspace, capsys):
    tmp_path, _, data_path = workspace
    bad = nested_header_checkpoint(tmp_path / "nested.ckpt")
    done = _run_module("predict", "--model", str(bad), "--text", "hi")
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith("error: corrupt checkpoint header")
    assert main(["visualize", "--model", str(bad), "--data", str(data_path), "--trait", "ext",
                 "--n", "2", "--out", str(tmp_path / "s.csv"), "--format", "csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt checkpoint header") and "Traceback" not in err


def test_module_entry_point_runs_the_command(tmp_path):
    done = _run_module("gradcheck", "--model-kind", "bigru-word", "--trials", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("max relative error: ")
    missing = _run_module("predict", "--model", str(tmp_path / "absent.ckpt"), "--text", "hi")
    assert missing.returncode == 1
    assert missing.stderr.startswith("error:") and missing.stdout == ""
