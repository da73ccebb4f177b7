"""The two directions of a bi-GRU level on two threads: when the partner
thread runs, what it hands back, and when it never starts."""

import os
import sys
import threading
import time
import traceback

import numpy as np
import pytest

from traitgru import cli
from traitgru import gru
from traitgru import train as T
from traitgru.data import build_tweets, generate_fixture
from traitgru.evaluate import run_cv
from traitgru.model import TRAINABLE_KINDS, ModelKind
from traitgru.rng import SplitMix64

from .test_gru import random_params

PAPER_CFG = T.TrainConfig(char_dim=8, hidden_size=256, mlp_dim=8, word_dim=8, epochs=1,
                          batch_size=4, dropout_rate=0.0, seed=2)


@pytest.fixture()
def cap(monkeypatch):
    """Sets the thread cap for one test; the cap before it comes back after."""
    monkeypatch.setattr(gru, "_threads", gru._threads)
    return gru.set_threads


@pytest.fixture()
def no_partner(monkeypatch):
    """No partner thread at the start of the test, so starting one shows
    in threading.active_count()."""
    monkeypatch.setattr(gru, "_partner", None)


def paper_tweets():
    tweets, _ = build_tweets(generate_fixture(3, 4, seed=21))
    return tweets


def test_available_cpus_counts_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert gru.available_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert gru.available_cpus() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert gru.available_cpus() == 1


def test_threads_flag_defaults_to_the_available_cpus():
    parser = cli.build_parser()
    for command in (["train", "--data", "d", "--trait", "ext", "--model", "c2w2s4pt",
                     "--out", "o"],
                    ["eval", "--data", "d", "--model-kind", "average", "--trait", "ext",
                     "--level", "tweet"]):
        assert parser.parse_args(command).threads == gru.available_cpus()


def test_set_threads_sets_the_cap_and_rejects_zero(cap):
    cap(3)
    assert gru._threads == 3
    with pytest.raises(ValueError, match="at least 1"):
        cap(0)


@pytest.mark.parametrize("h", [gru.CONCURRENT_MIN_HIDDEN - 1, gru.CONCURRENT_MIN_HIDDEN])
def test_both_directions_are_bitwise_the_serial_ones(cap, h):
    rng = SplitMix64(4)
    p = gru.BiRnnParams(random_params(rng, 5, h), random_params(rng, 5, h))
    lengths = [3, 1, 4, 2]
    xs = rng.uniforms(sum(lengths) * 5, -1.0, 1.0).reshape(-1, 5)
    d_out = rng.uniforms(len(lengths) * 2 * h, -1.0, 1.0).reshape(len(lengths), 2 * h)
    runs = []
    for threads in (1, 2):
        cap(threads)
        trace = gru.birnn_forward(p, xs, lengths)
        grads, d_xs = gru.birnn_backward(p, trace, d_out)
        runs.append([gru.birnn_output(trace), d_xs, *grads.tensors().values()])
    for serial, threaded in zip(*runs):
        assert serial.tobytes() == threaded.tobytes()


def test_birnn_passes_run_the_forward_direction_on_the_partner(cap, monkeypatch):
    rng = SplitMix64(5)
    h = gru.CONCURRENT_MIN_HIDDEN
    params = gru.BiRnnParams(random_params(rng, 3, h), random_params(rng, 3, h))
    xs = rng.uniforms(12, -1.0, 1.0).reshape(4, 3)
    seen = []
    unroll, backward = gru.rnn_unroll, gru.rnn_backward

    def spying(fn):
        def run(p, *args):
            seen.append((fn.__name__, p is params.fwd, threading.get_ident()))
            return fn(p, *args)
        return run

    monkeypatch.setattr(gru, "rnn_unroll", spying(unroll))
    monkeypatch.setattr(gru, "rnn_backward", spying(backward))
    cap(2)
    trace = gru.birnn_forward(params, xs, [4])
    gru.birnn_backward(params, trace, np.ones((1, 2 * h)))
    here = threading.get_ident()
    assert sorted((name, fwd, ident == here) for name, fwd, ident in seen) == [
        ("rnn_backward", False, True), ("rnn_backward", True, False),
        ("rnn_unroll", False, True), ("rnn_unroll", True, False)]


@pytest.fixture(scope="module")
def partner():
    return gru._Partner()


class TestPartner:
    def test_results_come_back_in_argument_order(self, partner):
        assert partner.both(lambda a, b: a - b, (5, 2), (1, 4)) == (3, -3)

    def test_the_caller_waits_for_the_partner_before_raising_its_own_error(self, partner):
        finished = []

        def slow(x):
            time.sleep(0.05)
            finished.append(x)
            return x

        def failing(x):
            raise FloatingPointError(f"here {x}")

        with pytest.raises(FloatingPointError, match="here 2"):
            partner.both(lambda x: slow(x) if x == 1 else failing(x), (1,), (2,))
        assert finished == [1]

    def test_the_partners_error_wins_when_both_fail(self, partner):
        def failing(x):
            raise FloatingPointError(f"call {x}")

        with pytest.raises(FloatingPointError, match="call 1"):
            partner.both(failing, (1,), (2,))
        with pytest.raises(ZeroDivisionError):
            partner.both(lambda x: 1 / x, (0,), (1,))
        assert partner.both(lambda x: x, (3,), (4,)) == (3, 4)  # still serving

    def test_the_partner_runs_in_the_callers_numpy_error_state(self, partner):
        def overflow(x):
            return np.exp(np.array([x]))

        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            partner.both(overflow, (1e4,), (0.0,))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_partner_error_reaches_train_unchanged_then_train_runs_again(cap, monkeypatch):
    # An infinite update-gate weight of the forward character direction:
    # its backward pass hands NaN to the input gradients, and the next
    # batch's forward pass fails on the partner thread.
    init = T.init_params

    def poisoned(*args, **kwargs):
        params = init(*args, **kwargs)
        params["char_fwd.w_z"][0, 0] = np.inf
        return params

    monkeypatch.setattr(T, "init_params", poisoned)
    errors = []
    for threads in (1, 2):
        cap(threads)
        with pytest.raises(FloatingPointError) as info:
            T.train(ModelKind.C2W2S4PT, paper_tweets(), "ext", PAPER_CFG)
        errors.append(info.value)
    assert [str(e) for e in errors] == [
        "gru_forward produced non-finite values "
        "(trait ext, epoch 1, batch 2, training tweet 1)"] * 2
    frames = [frame.f_code.co_name
              for frame, _ in traceback.walk_tb(errors[1].__cause__.__traceback__)]
    assert "_run" in frames  # raised on the partner thread
    monkeypatch.setattr(T, "init_params", init)
    _, reports = T.train(ModelKind.C2W2S4PT, paper_tweets(), "ext", PAPER_CFG)
    assert np.isfinite(reports[0].loss)


def test_no_thread_starts_at_small_sizes_or_at_a_cap_of_one(cap, no_partner):
    before = threading.active_count()
    cap(2)
    tweets, _ = build_tweets(generate_fixture(10, 20, "exclamation", seed=42))
    cfg = T.TrainConfig(char_dim=8, hidden_size=16, mlp_dim=16, word_dim=8, epochs=1,
                        batch_size=4, learning_rate=1e-2, dropout_rate=0.0, seed=3)
    run_cv(ModelKind.C2W2S4PT, tweets, "ext", 5, "tweet", cfg, seed=1)
    for kind in TRAINABLE_KINDS:
        T.grad_check(kind, n_trials=2)
    cap(1)
    T.train(ModelKind.C2W2S4PT, paper_tweets(), "ext", PAPER_CFG)
    assert threading.active_count() == before
    assert gru._partner is None


def test_a_paper_size_train_starts_one_partner(cap, no_partner):
    before = threading.active_count()
    cap(2)
    for _ in range(2):
        T.train(ModelKind.C2W2S4PT, paper_tweets(), "ext", PAPER_CFG)
    assert threading.active_count() == before + 1
    assert gru._partner is not None


def test_callers_on_many_threads_share_one_partner_and_get_their_own_results(cap, no_partner):
    rng = SplitMix64(6)
    h = gru.CONCURRENT_MIN_HIDDEN
    params = gru.BiRnnParams(random_params(rng, 1, h), random_params(rng, 1, h))
    wrong = []

    def call(k):
        for i in range(300):
            got = gru._both_directions(lambda *a: a, params, (k, i), (k, -i))
            if got != ((k, i), (k, -i)):
                wrong.append((k, i, got))

    before = threading.active_count()
    cap(2)
    callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == []
    assert threading.active_count() == before + 1
