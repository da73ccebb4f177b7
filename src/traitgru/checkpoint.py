"""Versioned binary checkpoint: JSON header plus named float64 tensors.

Layout (all integers little-endian):

    8 bytes   magic b"TRAITCKP"
    u32       format version (currently 1)
    u64       header length in bytes
    ...       header: canonical JSON (sorted keys, no whitespace) holding
              format_version, model kind, dims, the vocabulary (characters
              as code points with ids, or word strings with ids) and the
              training config
    u32       tensor count
    per tensor:
        u16       name length, then UTF-8 name
        u8        ndim, then u64 per dimension
        ...       row-major float64 little-endian payload

save(load(path)) is byte-identical; any truncation or corruption raises
CheckpointError.  load checks every length field against the bytes left
in the file before it allocates anything: the header length, and the
total tensor bytes the header's dims imply.  The vocabulary must be of
the class the kind's spec names.  load then allocates the kind's zero
bundle once and reads each tensor into its named view, so a tensor that
is missing, unknown, repeated or of another shape than the dims give is
an error, and every payload is bounded by that bundle.  A NaN or inf
value, which training never writes, is an error too.
"""

import json
import math
import os
import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .data import CharVocab, WordVocab
from .model import ModelKind, Regressor, build_params, empty_params, spec_of, tensor_shapes

MAGIC = b"TRAITCKP"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    kind: ModelKind
    dims: dict
    vocab: object  # CharVocab or WordVocab
    config: dict   # training config as plain key/value pairs
    tensors: "OrderedDict[str, np.ndarray]"

    def to_regressor(self) -> Regressor:
        return Regressor(kind=self.kind, params=build_params(self.kind, self.tensors),
                         vocab=self.vocab)


def _vocab_payload(vocab) -> dict:
    if isinstance(vocab, CharVocab):
        return {"kind": "char", "entries": [[cp, i] for cp, i in vocab.entries()]}
    if isinstance(vocab, WordVocab):
        return {"kind": "word", "entries": [[w, i] for w, i in vocab.entries()]}
    raise CheckpointError(f"unsupported vocabulary type {type(vocab).__name__}")


def _vocab_from_payload(payload: dict):
    if payload["kind"] == "char":
        return CharVocab.from_entries((cp, i) for cp, i in payload["entries"])
    if payload["kind"] == "word":
        return WordVocab.from_entries((w, i) for w, i in payload["entries"])
    raise CheckpointError(f"unknown vocabulary kind {payload['kind']!r}")


def save(ckpt: Checkpoint, path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "model_kind": ckpt.kind.value,
        "dims": ckpt.dims,
        "vocab": _vocab_payload(ckpt.vocab),
        "train_config": ckpt.config,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=True).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(ckpt.tensors)))
        for name, arr in ckpt.tensors.items():
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint: expected {n} bytes for {what}, got {len(buf)}")
    return buf


def _header_fields(header_bytes: bytes):
    """(kind, vocab, dims, config, tensor shapes) of a parsed header."""
    try:
        header = json.loads(header_bytes)
        kind = ModelKind(header["model_kind"])
        vocab = _vocab_from_payload(header["vocab"])
        dims = header["dims"]
        config = header["train_config"]
        shapes = tensor_shapes(kind, dims)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {e}") from None
    for name, shape in shapes:
        if not all(type(n) is int and n >= 1 for n in shape):
            raise CheckpointError(f"corrupt checkpoint header: dims give {name} the shape {shape}")
    vocab_class = spec_of(kind).vocab
    if not isinstance(vocab, vocab_class):
        raise CheckpointError(f"corrupt checkpoint header: a {kind.value} model needs a "
                              f"{vocab_class.__name__}, but the header holds a "
                              f"{type(vocab).__name__}")
    if dims["vocab_size"] != vocab.size:
        raise CheckpointError(f"corrupt checkpoint header: vocab_size {dims['vocab_size']} "
                              f"but the vocabulary has {vocab.size} entries")
    return kind, vocab, dims, config, shapes


def load(path) -> Checkpoint:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def left() -> int:
            return size - fh.tell()

        if _read_exact(fh, len(MAGIC), "magic") != MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        if header_len > left():
            raise CheckpointError(f"truncated checkpoint: header length {header_len} exceeds "
                                  f"the {left()} bytes left in the file")
        kind, vocab, dims, config, shapes = _header_fields(_read_exact(fh, header_len, "header"))
        needed = sum(8 * math.prod(shape) for _, shape in shapes)
        if needed > left():
            raise CheckpointError(f"truncated checkpoint: the header dims need {needed} bytes "
                                  f"of tensors, but only {left()} bytes are left in the file")
        views = empty_params(kind, dims).tensors()
        (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors = OrderedDict()
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "tensor name length"))
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8", errors="replace")
            if name not in views:
                raise CheckpointError(f"unknown tensor {name!r} in a {kind.value} checkpoint")
            if name in tensors:
                raise CheckpointError(f"tensor {name} appears twice")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "tensor rank"))
            shape = tuple(
                struct.unpack("<Q", _read_exact(fh, 8, f"shape of {name}"))[0]
                for _ in range(ndim)
            )
            view = views[name]
            if shape != view.shape:
                raise CheckpointError(f"tensor {name} has shape {shape}, but the header dims "
                                      f"give {view.shape}")
            payload = _read_exact(fh, view.nbytes, f"payload of {name}")
            view[...] = np.frombuffer(payload, dtype="<f8").reshape(shape)
            if not np.isfinite(view).all():
                raise CheckpointError(f"tensor {name} holds non-finite values")
            tensors[name] = view
        missing = [name for name in views if name not in tensors]
        if missing:
            raise CheckpointError(f"checkpoint lacks tensor(s) {', '.join(missing)}")
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError("trailing bytes after checkpoint payload")
    return Checkpoint(kind=kind, dims=dims, vocab=vocab, config=config, tensors=tensors)
