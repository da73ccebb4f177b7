import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from traitgru import checkpoint as C
from traitgru.cli import main
from traitgru.data import CharVocab, WordVocab, build_tweets, generate_fixture
from traitgru.model import SPECS, ModelKind, empty_params, tensor_shapes
from traitgru.train import TrainConfig, build_vocab_for, init_params, model_dims, train


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tweets, _ = build_tweets(generate_fixture(3, 4, seed=2))
    cfg = TrainConfig(char_dim=2, hidden_size=3, mlp_dim=3, word_dim=2,
                      epochs=2, dropout_rate=0.5, seed=7)
    ckpt, _ = train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    C.save(ckpt, path)
    return ckpt, path, tweets


def test_roundtrip_is_bitwise_idempotent(trained, tmp_path):
    _, path, _ = trained
    loaded = C.load(path)
    again = tmp_path / "again.ckpt"
    C.save(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_loaded_model_predicts_identically(trained):
    ckpt, path, tweets = trained
    reg_a = ckpt.to_regressor()
    reg_b = C.load(path).to_regressor()
    for tw in tweets:
        assert reg_a.score(tw) == reg_b.score(tw)


def test_header_contents(trained):
    ckpt, path, _ = trained
    loaded = C.load(path)
    assert loaded.kind == ModelKind.C2W2S4PT
    assert loaded.dims["char_dim"] == 2 and loaded.dims["vocab_size"] == ckpt.vocab.size
    assert loaded.config["epochs"] == 2
    assert loaded.vocab.char_to_id == ckpt.vocab.char_to_id


def test_truncated_file_fails_with_diagnostic(trained, tmp_path):
    _, path, _ = trained
    blob = path.read_bytes()
    for cut in (4, 11, len(blob) // 2, len(blob) - 3):
        bad = tmp_path / f"cut{cut}.ckpt"
        bad.write_bytes(blob[:cut])
        with pytest.raises(C.CheckpointError):
            C.load(bad)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\0" * 64)
    with pytest.raises(C.CheckpointError, match="magic"):
        C.load(path)


def test_trailing_garbage_rejected(trained, tmp_path):
    _, path, _ = trained
    bad = tmp_path / "extra.ckpt"
    bad.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(C.CheckpointError, match="trailing"):
        C.load(bad)


def test_word_vocab_roundtrip(tmp_path):
    tweets, _ = build_tweets(generate_fixture(3, 3, seed=5))
    cfg = TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2, word_dim=2,
                      epochs=1, dropout_rate=0.0, seed=1)
    ckpt, _ = train(ModelKind.BI_GRU_WORD, tweets, "agr", cfg)
    path = tmp_path / "w.ckpt"
    C.save(ckpt, path)
    loaded = C.load(path)
    assert loaded.vocab.word_to_id == ckpt.vocab.word_to_id
    assert loaded.to_regressor().score(tweets[0]) == ckpt.to_regressor().score(tweets[0])


def _count_offset(blob: bytes) -> int:
    """Offset of the u32 tensor count: magic, version, header length, header."""
    (header_len,) = struct.unpack_from("<Q", blob, 12)
    return 20 + header_len


def _expect_rejected(path, match, capsys):
    with pytest.raises(C.CheckpointError, match=match):
        C.load(path)
    assert main(["predict", "--model", str(path), "--text", "hello there"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_same_seed_with_dropout_gives_identical_bytes(trained, tmp_path):
    _, path, tweets = trained
    cfg = TrainConfig(char_dim=2, hidden_size=3, mlp_dim=3, word_dim=2,
                      epochs=2, dropout_rate=0.5, seed=7)
    again = tmp_path / "again.ckpt"
    C.save(train(ModelKind.C2W2S4PT, tweets, "ext", cfg)[0], again)
    assert again.read_bytes() == path.read_bytes()


def test_loaded_tensors_are_views_of_the_stacks(trained):
    _, path, _ = trained
    ckpt = C.load(path)
    reg = ckpt.to_regressor()
    for birnn in reg.params.levels:
        for p in (birnn.fwd, birnn.bwd):
            for name, view in p.tensors().items():
                assert np.shares_memory(view, {"w": p.W, "u": p.U, "b": p.b}[name[0]]), name
    for name, arr in reg.tensors().items():
        assert arr is ckpt.tensors[name] or np.shares_memory(arr, ckpt.tensors[name]), name


def test_missing_tensor_names_it(trained, tmp_path, capsys):
    _, path, _ = trained
    ckpt = C.load(path)
    del ckpt.tensors["b_y"]
    bad = tmp_path / "no_b_y.ckpt"
    C.save(ckpt, bad)
    err = _expect_rejected(bad, "b_y", capsys)
    assert "b_y" in err


def test_unknown_tensor_rejected(trained, tmp_path, capsys):
    _, path, _ = trained
    ckpt = C.load(path)
    ckpt.tensors["extra"] = np.zeros(2)
    bad = tmp_path / "extra.ckpt"
    C.save(ckpt, bad)
    _expect_rejected(bad, "unknown tensor 'extra'", capsys)


def test_duplicate_tensor_rejected(trained, tmp_path, capsys):
    _, path, _ = trained
    blob = path.read_bytes()
    at = _count_offset(blob)
    (count,) = struct.unpack_from("<I", blob, at)
    b_y_record = struct.pack("<H", 3) + b"b_y" + struct.pack("<BQ", 1, 1) + struct.pack("<d", 0.5)
    bad = tmp_path / "dup.ckpt"
    bad.write_bytes(blob[:at] + struct.pack("<I", count + 1) + blob[at + 4:] + b_y_record)
    _expect_rejected(bad, "b_y appears twice", capsys)


def test_huge_header_length_rejected(trained, tmp_path, capsys):
    _, path, _ = trained
    blob = bytearray(path.read_bytes())
    blob[12:20] = struct.pack("<Q", 2**62)
    bad = tmp_path / "header.ckpt"
    bad.write_bytes(bytes(blob))
    _expect_rejected(bad, "header length", capsys)


def test_huge_shape_dimension_rejected(trained, tmp_path, capsys):
    _, path, _ = trained
    blob = bytearray(path.read_bytes())
    # First tensor record: u16 name length, name "e_c", u8 rank, then dims.
    dim0 = _count_offset(blob) + 4 + 2 + len(b"e_c") + 1
    assert struct.unpack_from("<Q", blob, dim0)[0] == 2
    blob[dim0:dim0 + 8] = struct.pack("<Q", 2**40)
    bad = tmp_path / "shape.ckpt"
    bad.write_bytes(bytes(blob))
    _expect_rejected(bad, "e_c has shape", capsys)


def test_dims_larger_than_the_file_rejected(trained, tmp_path, capsys):
    ckpt, _, _ = trained
    huge = C.Checkpoint(kind=ckpt.kind, dims={**ckpt.dims, "char_hidden": 2**20},
                        vocab=ckpt.vocab, config=ckpt.config, tensors=OrderedDict())
    bad = tmp_path / "dims.ckpt"
    C.save(huge, bad)
    _expect_rejected(bad, "bytes of tensors", capsys)


@pytest.mark.parametrize("kind", list(SPECS))
def test_every_bundle_holds_the_tensor_shapes_in_order(kind, tmp_path):
    tweets, _ = build_tweets(generate_fixture(2, 2, seed=4))
    cfg = TrainConfig(char_dim=2, hidden_size=3, mlp_dim=2, word_dim=4)
    vocab = build_vocab_for(kind, tweets)
    dims = model_dims(kind, cfg, vocab)
    want = [(name, tuple(shape)) for name, shape in tensor_shapes(kind, dims)]
    params = init_params(kind, dims, seed=1)
    path = tmp_path / "k.ckpt"
    C.save(C.Checkpoint(kind=kind, dims=dims, vocab=vocab, config={},
                        tensors=params.tensors()), path)
    for tensors in (empty_params(kind, dims).tensors(), params.tensors(),
                    C.load(path).tensors):
        assert [(name, arr.shape) for name, arr in tensors.items()] == want


@pytest.mark.parametrize("kind", [ModelKind.C2W2S4PT, ModelKind.BI_GRU_WORD])
def test_vocabulary_of_another_kind_rejected(kind, tmp_path, capsys):
    tweets, _ = build_tweets(generate_fixture(2, 3, seed=6))
    cfg = TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2, word_dim=2,
                      epochs=1, dropout_rate=0.0)
    ckpt, _ = train(kind, tweets, "ext", cfg)
    n = ckpt.vocab.size - 1  # the same size, so only the class differs
    ckpt.vocab = (CharVocab({chr(97 + i): i for i in range(n)}) if isinstance(ckpt.vocab, WordVocab)
                  else WordVocab({f"w{i}": i for i in range(n)}))
    bad = tmp_path / "foreign.ckpt"
    C.save(ckpt, bad)
    err = _expect_rejected(bad, f"needs a {SPECS[kind].vocab.__name__}", capsys)
    assert type(ckpt.vocab).__name__ in err


@pytest.mark.parametrize("name, value", [("b_y", np.nan), ("w_hy", np.nan), ("b_h", np.nan),
                                         ("b_y", np.inf), ("e_c", -np.inf)])
def test_non_finite_tensor_rejected(trained, tmp_path, capsys, name, value):
    _, path, _ = trained
    ckpt = C.load(path)
    ckpt.tensors[name].reshape(-1)[0] = value
    bad = tmp_path / "non_finite.ckpt"
    C.save(ckpt, bad)
    err = _expect_rejected(bad, f"tensor {name} holds non-finite values", capsys)
    assert name in err


@pytest.fixture(scope="module")
def fuzz_inputs(trained, tmp_path_factory):
    """Checkpoint bytes of a character-vocabulary and a word-vocabulary kind,
    plus a directory for the mutated copies."""
    tweets, _ = build_tweets(generate_fixture(2, 3, seed=6))
    cfg = TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2, word_dim=2, epochs=1)
    word = tmp_path_factory.mktemp("fuzz") / "word.ckpt"
    C.save(train(ModelKind.BI_GRU_WORD, tweets, "ext", cfg)[0], word)
    return {"c2w2s4pt": trained[1].read_bytes(), "bigru-word": word.read_bytes()}, word.parent


def _shape_fields(blob: bytes) -> list:
    """Offsets of the u64 shape fields of every tensor record."""
    at = _count_offset(blob)
    (count,) = struct.unpack_from("<I", blob, at)
    at += 4
    offsets = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, at)
        ndim = blob[at + 2 + name_len]
        at += 3 + name_len
        shape = struct.unpack_from(f"<{ndim}Q", blob, at)
        offsets += [at + 8 * i for i in range(ndim)]
        at += 8 * ndim + 8 * int(np.prod(shape))
    return offsets


u64 = st.integers(0, 2**64 - 1)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["c2w2s4pt", "bigru-word"]), data=st.data())
def test_mutated_checkpoint_loads_finite_or_raises_checkpoint_error(fuzz_inputs, capsys,
                                                                    kind, data):
    blobs, work = fuzz_inputs
    blob = bytearray(blobs[kind])
    records = _count_offset(blob)  # where the header ends and the tensor records begin
    how = data.draw(st.sampled_from(["truncate", "header bytes", "payload bytes",
                                     "header length", "shape field"]))
    if how == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif how in ("header bytes", "payload bytes"):
        lo, hi = (0, records - 1) if how == "header bytes" else (records, len(blob) - 1)
        for i in data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4)):
            blob[i] ^= data.draw(st.integers(1, 255))
    elif how == "header length":
        near = st.integers(max(0, records - 20 - 16), records - 20 + 16)
        blob[12:20] = struct.pack("<Q", data.draw(st.one_of(near, u64)))
    else:
        at = data.draw(st.sampled_from(_shape_fields(blob)))
        blob[at:at + 8] = struct.pack("<Q", data.draw(st.one_of(st.integers(0, 9), u64)))
    bad = work / "mutated.ckpt"
    bad.write_bytes(bytes(blob))
    try:
        loaded = C.load(bad)
    except C.CheckpointError:
        pass
    else:
        assert all(np.isfinite(t).all() for t in loaded.tensors.values())
    capsys.readouterr()
    assert main(["predict", "--model", str(bad), "--text", "hello there"]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
