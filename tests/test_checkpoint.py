import hashlib
import json
import math
import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from traitgru import checkpoint as C
from traitgru.cli import main
from traitgru.data import CharVocab, WordVocab, build_tweets, generate_fixture
from traitgru.model import SPECS, ModelKind, empty_params, tensor_shapes, zero_grads
from traitgru.train import (TrainConfig, build_vocab_for, config_as_dict, init_params,
                            model_dims, train)


CFG = TrainConfig(char_dim=2, hidden_size=3, mlp_dim=3, word_dim=2,
                  epochs=2, dropout_rate=0.5, seed=7)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tweets, _ = build_tweets(generate_fixture(3, 4, seed=2))
    ckpt, _ = train(ModelKind.C2W2S4PT, tweets, "ext", CFG)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    C.save(ckpt, path)
    return ckpt, path, tweets


@pytest.mark.parametrize("kind", list(SPECS), ids=lambda k: k.value)
def test_roundtrip_is_bitwise_idempotent(kind, trained, tmp_path):
    ckpt, _ = train(kind, trained[2], "ext", CFG)
    assert ckpt.to_regressor().params is ckpt.tensors
    path = tmp_path / "model.ckpt"
    C.save(ckpt, path)
    loaded = C.load(path)
    assert loaded.to_regressor().params is loaded.tensors
    again = tmp_path / "again.ckpt"
    C.save(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_tensors_in_any_order_load_into_the_model_order(trained, tmp_path):
    ckpt, path, _ = trained
    shuffled = tmp_path / "reversed.ckpt"
    C.save(C.Checkpoint(kind=ckpt.kind, dims=ckpt.dims, vocab=ckpt.vocab, config=ckpt.config,
                        tensors=OrderedDict(reversed(list(ckpt.tensors.items())))), shuffled)
    assert shuffled.read_bytes() != path.read_bytes()
    loaded = C.load(shuffled)
    assert list(loaded.tensors) == list(ckpt.tensors)
    again = tmp_path / "again.ckpt"
    C.save(loaded, again)
    assert again.read_bytes() == path.read_bytes()


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
    again = tmp_path / "again.ckpt"
    C.save(train(ModelKind.C2W2S4PT, tweets, "ext", CFG)[0], again)
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
    ckpt.tensors = OrderedDict(ckpt.tensors)
    del ckpt.tensors["b_y"]
    bad = tmp_path / "no_b_y.ckpt"
    C.save(ckpt, bad)
    err = _expect_rejected(bad, "b_y", capsys)
    assert "b_y" in err


def test_unknown_tensor_rejected(trained, tmp_path, capsys):
    _, path, _ = trained
    ckpt = C.load(path)
    ckpt.tensors = OrderedDict(ckpt.tensors)
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


def nested_header_checkpoint(path, depth=200_000):
    """A checkpoint whose JSON header opens depth arrays, deeper than the
    parser's recursion limit."""
    header = b"[" * depth
    path.write_bytes(C.MAGIC + struct.pack("<IQ", C.FORMAT_VERSION, len(header)) + header)
    return path


def test_deeply_nested_header_rejected(tmp_path, capsys):
    _expect_rejected(nested_header_checkpoint(tmp_path / "nested.ckpt"),
                     "corrupt checkpoint header", capsys)


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
        assert tensors.flat.shape == (sum(math.prod(shape) for _, shape in want),)
        assert_running_views(tensors.flat, tensors)
        for (prefix, _), rnn in zip(tensors.spec.levels, tensors.levels):
            for direction in ("fwd", "bwd"):
                p = getattr(rnn, direction)
                for stack, first in ((p.W, "w_z"), (p.U, "u_z"), (p.b, "b_z")):
                    named = tensors[f"{prefix}{direction}.{first}"]
                    assert offset_in(tensors.flat, stack) == offset_in(tensors.flat, named)
                    assert stack.size == 3 * named.size
    grads = zero_grads(params)
    vec = grads[next(iter(grads))].base
    assert vec.shape == params.flat.shape and not np.shares_memory(vec, params.flat)
    assert [(name, arr.shape) for name, arr in grads.items()] == want
    assert_running_views(vec, grads)
    assert not vec.any()


def offset_in(flat, arr) -> int:
    """The index in flat of arr's first entry; arr must be a C-contiguous
    view of flat."""
    assert arr.flags.c_contiguous and np.shares_memory(arr, flat)
    return (arr.ctypes.data - flat.ctypes.data) // flat.itemsize


def assert_running_views(flat, tensors):
    """Each tensor is the view of flat at its running offset, and together
    they cover flat."""
    at = 0
    for name, arr in tensors.items():
        assert offset_in(flat, arr) == at, name
        at += arr.size
    assert at == flat.size


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


WIRE_CFG = TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2, word_dim=2, seed=3)
# A vocabulary of each class with ids out of insertion order, and the
# sha256 prefix of the checkpoint saved from it.
WIRE_VOCABS = {
    ModelKind.C2W2S4PT: (CharVocab({"b": 2, "\U0001F600": 0, "\x00": 1, "é": 3}),
                         "65a19cd98ab8821b"),
    ModelKind.BI_GRU_WORD: (WordVocab({"zebra": 1, "café": 0, "#tag": 2}), "8cb104ac2cd34ba5"),
}


@pytest.fixture(scope="module")
def wire_files(tmp_path_factory):
    """A checkpoint of init_params' values for each vocabulary class."""
    work = tmp_path_factory.mktemp("wire")
    paths = {}
    for kind, (vocab, _) in WIRE_VOCABS.items():
        dims = model_dims(kind, WIRE_CFG, vocab)
        paths[kind] = work / f"{kind.value}.ckpt"
        C.save(C.Checkpoint(kind=kind, dims=dims, vocab=vocab, config=config_as_dict(WIRE_CFG),
                            tensors=init_params(kind, dims, 3)), paths[kind])
    return paths


@pytest.mark.parametrize("kind", list(WIRE_VOCABS), ids=lambda k: k.value)
def test_vocabulary_wire_format_is_pinned(wire_files, tmp_path, kind):
    # The digest pins the header's vocabulary (a character as its code
    # point, a word as its string, in id order) and init_params' values.
    path = wire_files[kind]
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == WIRE_VOCABS[kind][1]
    again = tmp_path / "again.ckpt"
    C.save(C.load(path), again)
    assert again.read_bytes() == path.read_bytes()


def _with_vocab_entries(path, out, edit):
    """A copy of the checkpoint at path whose vocabulary entries, in id
    order, are replaced by edit(entries)."""
    blob = path.read_bytes()
    end = _count_offset(blob)
    header = json.loads(blob[20:end])
    header["vocab"]["entries"] = edit(header["vocab"]["entries"])
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    out.write_bytes(blob[:12] + struct.pack("<Q", len(header_bytes)) + header_bytes + blob[end:])
    return out


BAD_VOCAB_ENTRIES = [  # (case, kind, the entry of id 0 or the entries' edit)
    ("bool code point", ModelKind.C2W2S4PT, [True, 0]),
    ("float id", ModelKind.C2W2S4PT, [0x1F600, 0.0]),
    ("bool id", ModelKind.C2W2S4PT, [0x1F600, False]),
    ("code point past U+10FFFF", ModelKind.C2W2S4PT, [0x110000, 0]),
    ("string code point", ModelKind.C2W2S4PT, ["\U0001F600", 0]),
    ("one-element entry", ModelKind.C2W2S4PT, [0x1F600]),
    ("repeated id", ModelKind.C2W2S4PT, lambda e: [e[0], [e[1][0], 0]] + e[2:]),
    ("int word", ModelKind.BI_GRU_WORD, [1, 0]),
    ("float word id", ModelKind.BI_GRU_WORD, ["café", 0.0]),
    ("bool word id", ModelKind.BI_GRU_WORD, ["café", False]),
]


@pytest.mark.parametrize("case, kind, bad", BAD_VOCAB_ENTRIES,
                         ids=[case for case, _, _ in BAD_VOCAB_ENTRIES])
def test_vocabulary_entry_of_the_wrong_types_rejected(wire_files, tmp_path, capsys,
                                                      case, kind, bad):
    edit = bad if callable(bad) else lambda entries: [bad] + entries[1:]
    path = _with_vocab_entries(wire_files[kind], tmp_path / "bad.ckpt", edit)
    _expect_rejected(path, "corrupt checkpoint header", capsys)
