"""Spans around the public functions of each traitgru module, kept in memory.

The tracer swaps wrappers in for the program's functions (in every
traitgru module that holds a reference to them) and swaps the originals
back on uninstall, so untraced phases run the program untouched.  A span
records its name, start, end, parent span, phase and the work it did
(flops from its argument shapes, or bytes of the file it read or wrote).
Self time is a span's duration minus the durations of its direct
children.
"""

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

SETUP, TIMED = 0, 1


def _gru_forward_flop(p, x, h_prev):
    # Six matrix-vector products: three (h x d) and three (h x h).
    h, d = p.w_z.shape
    return 6.0 * h * (d + h)


def _rnn_backward_flop(p, traces, d_h_last):
    # Over n steps: three transposed (h x h) matrix-vector products per
    # step, then six weight-gradient products (h x n)(n x d|h) and three
    # input-gradient products (n x h)(h x d).
    h, d = p.w_z.shape
    return 12.0 * len(traces) * h * (h + d)


def _path_bytes(*args):
    # save(ckpt, path) and load(path) both take the path last.
    return float(os.path.getsize(args[-1]))


# (module, attribute, span name, counter name, counter function, when)
# "when" is "before" (counter from the arguments) or "after" (e.g. the
# size of a file the call wrote).
TARGETS = (
    ("gru", "gru_forward", "gru.gru_forward", "gru.gflop", _gru_forward_flop, "before"),
    ("gru", "rnn_unroll", "gru.rnn_unroll", None, None, None),
    ("gru", "rnn_backward", "gru.rnn_backward", "gru.gflop", _rnn_backward_flop, "before"),
    ("gru", "birnn_backward", "gru.birnn_backward", None, None, None),
    ("model", "Regressor.forward", "model.forward", None, None, None),
    ("model", "Regressor.backward", "model.backward", None, None, None),
    ("model", "Regressor.embedding", "model.embedding", None, None, None),
    ("model", "zero_grads", "model.zero_grads", None, None, None),
    ("model", "flat_forward", "model.flat_forward", None, None, None),
    ("model", "flat_backward", "model.flat_backward", None, None, None),
    ("train", "train", "train.train", None, None, None),
    ("train", "adam_step", "train.adam_step", None, None, None),
    ("train", "init_params", "train.init_params", None, None, None),
    ("train", "check_gradients", "train.check_gradients", None, None, None),
    ("rng", "SplitMix64.uniforms", "rng.uniforms", None, None, None),
    ("rng", "SplitMix64.shuffle", "rng.shuffle", None, None, None),
    ("evaluate", "run_cv", "evaluate.run_cv", None, None, None),
    ("data", "kfold_split", "evaluate.kfold_split", None, None, None),
    ("checkpoint", "save", "checkpoint.save", "checkpoint.bytes", _path_bytes, "after"),
    ("checkpoint", "load", "checkpoint.load", "checkpoint.bytes", _path_bytes, "before"),
    ("data", "build_tweets", "data.build_tweets", None, None, None),
    ("data", "normalize_tweet", "data.normalize_tweet", None, None, None),
    ("data", "build_char_vocab", "data.build_vocab", None, None, None),
    ("data", "build_word_vocab", "data.build_vocab", None, None, None),
    ("viz", "select_extremes", "viz.select_extremes", None, None, None),
    ("viz", "pca_fit", "viz.pca_fit", None, None, None),
    ("viz", "export_scatter", "viz.export_scatter", None, None, None),
    ("cli", "main", "cli.main", None, None, None),
)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.names = []
        self._name_ids = {}
        self.counter_of = {}  # span name -> counter name
        self.name_id = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # the span's counter increment (flops, bytes)
        self.phase = SETUP
        self._stack = []
        self._patches = []
        self._clock = clock

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, nid: int, work: float = 0.0) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self.work.append(work)
        self._stack.append(i)
        self.start.append(self._clock())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = self._clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        i = self.enter(self._id(name))
        try:
            yield
        finally:
            self.exit(i)

    def _wrap(self, fn, name, counter, counter_fn, when):
        nid = self._id(name)
        if counter is not None:
            self.counter_of[name] = counter
        enter, exit_, work = self.enter, self.exit, self.work
        before = counter_fn if when == "before" else None
        after = counter_fn if when == "after" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = enter(nid, before(*args, **kwargs) if before is not None else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(i)
                if after is not None:
                    work[i] = after(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every target in every loaded traitgru module that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        homes = {m: importlib.import_module(f"traitgru.{m}") for m, *_ in TARGETS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "traitgru" or n.startswith("traitgru."))]
        for mod_name, attr, name, counter, counter_fn, when in TARGETS:
            home = homes[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(original, name, counter, counter_fn, when))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, counter, counter_fn, when)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def span_cost(self, n: int = 50_000) -> float:
        """Seconds one traced call adds, measured on a no-op function
        wrapped by a throwaway tracer with this tracer's clock."""

        def noop():
            return None

        wrapped = Tracer(self._clock)._wrap(noop, "noop", None, None, None)
        costs = []
        for fn in (noop, wrapped, noop, wrapped):
            started = self._clock()
            for _ in range(n):
                fn()
            costs.append(self._clock() - started)
        return max(0.0, (costs[1] + costs[3] - costs[0] - costs[2]) / (2 * n))

    def table(self, rounds: int) -> dict:
        """Per-name {calls, s, self_s} and counters for one set-up plus one
        timed round.

        Set-up spans count once; timed spans are divided by the number of
        timed rounds, so counts repeat exactly from run to run.  self_sum
        is the self time of every span of the run, undivided: it equals
        the time covered by the root spans.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        phase = np.frombuffer(self.phase_of, dtype=np.int8)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        scale = np.where(phase == TIMED, 1.0 / max(rounds, 1), 1.0)
        n = len(self.names)
        calls = np.bincount(nid, weights=scale, minlength=n)
        total = np.bincount(nid, weights=dur * scale, minlength=n)
        selfs = np.bincount(nid, weights=self_s * scale, minlength=n)
        work = np.bincount(nid, weights=np.frombuffer(self.work) * scale, minlength=n)
        spans = {name: {"calls": float(calls[i]), "s": float(total[i]), "self_s": float(selfs[i])}
                 for i, name in enumerate(self.names)}
        counters = {}
        for name, counter in self.counter_of.items():
            counters[counter] = counters.get(counter, 0.0) + float(work[self._name_ids[name]])
        timed_spans = float(np.count_nonzero(phase == TIMED)) / max(rounds, 1)
        return {"spans": spans, "counters": counters, "self_sum": float(np.sum(self_s)),
                "timed_spans_per_round": timed_spans}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            phase=np.frombuffer(self.phase_of, dtype=np.int8),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            work=np.frombuffer(self.work),
        )
