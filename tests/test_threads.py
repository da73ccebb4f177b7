"""The two directions of a bi-GRU level on two threads: when the partner
thread runs, what it hands back, when it never starts, and that a command
that started it still exits."""

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

from .test_cli import _run_module
from .test_gru import random_params, zero_level

PAPER_CFG = T.TrainConfig(char_dim=8, hidden_size=256, mlp_dim=8, word_dim=8, epochs=1,
                          batch_size=4, dropout_rate=0.0, seed=2)


@pytest.fixture()
def cap(monkeypatch):
    """Sets the thread cap for one test; the cap before it comes back after."""
    monkeypatch.setattr(gru, "_threads", gru._threads)
    return gru.set_threads


@pytest.fixture()
def no_partner(monkeypatch):
    """No partner executor yet, so the test's first two-thread pass makes
    one and starting its worker shows in new_threads(); it is shut down
    after the test."""
    monkeypatch.setattr(gru, "_partner", None)
    yield
    if gru._partner is not None:
        gru._partner.shutdown()


def new_threads(before):
    """The names of the live threads not in before, a set of threads."""
    return sorted(t.name for t in threading.enumerate() if t not in before)


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


@pytest.mark.parametrize("h", [gru.FUSED_BELOW_HIDDEN - 1, gru.CONCURRENT_MIN_HIDDEN - 1,
                               gru.CONCURRENT_MIN_HIDDEN])
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
        grads = zero_level(p)
        d_xs = gru.birnn_backward(p, trace, d_out, grads)
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
    gru.birnn_backward(params, trace, np.ones((1, 2 * h)), zero_level(params))
    here = threading.get_ident()
    assert sorted((name, fwd, ident == here) for name, fwd, ident in seen) == [
        ("rnn_backward", False, True), ("rnn_backward", True, False),
        ("rnn_unroll", False, True), ("rnn_unroll", True, False)]


def partner_plan():
    """gru._plan for one sequence through a level of a size that uses the
    partner."""
    rng = SplitMix64(7)
    h = gru.CONCURRENT_MIN_HIDDEN
    return gru._plan(gru.BiRnnParams(random_params(rng, 1, h), random_params(rng, 1, h)), 1)


@pytest.fixture()
def both(cap):
    """gru._each over two calls as a level of a hidden size that uses the
    partner runs them at a cap of 2."""
    cap(2)
    _, threaded = partner_plan()
    assert threaded
    return lambda fn, fwd_args, bwd_args: tuple(gru._each(fn, [fwd_args, bwd_args], threaded))


class TestPartner:
    def test_results_come_back_in_argument_order(self, both):
        assert both(lambda a, b: a - b, (5, 2), (1, 4)) == (3, -3)

    def test_the_caller_waits_for_the_partner_before_raising_its_own_error(self, both):
        finished = []

        def slow(x):
            time.sleep(0.05)
            finished.append(x)
            return x

        def failing(x):
            raise FloatingPointError(f"here {x}")

        with pytest.raises(FloatingPointError, match="here 2"):
            both(lambda x: slow(x) if x == 1 else failing(x), (1,), (2,))
        assert finished == [1]

    def test_the_partners_error_wins_when_both_fail(self, both):
        def failing(x):
            raise FloatingPointError(f"call {x}")

        with pytest.raises(FloatingPointError, match="call 1"):
            both(failing, (1,), (2,))
        with pytest.raises(ZeroDivisionError):
            both(lambda x: 1 / x, (0,), (1,))
        assert both(lambda x: x, (3,), (4,)) == (3, 4)  # still serving

    def test_the_partner_runs_in_the_callers_numpy_error_state(self, both):
        def overflow(x):
            return np.exp(np.array([x]))

        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            both(overflow, (1e4,), (0.0,))


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
    files = [frame.f_code.co_filename
             for frame, _ in traceback.walk_tb(errors[1].__cause__.__traceback__)]
    # raised on the partner thread
    assert any(f.endswith(os.path.join("concurrent", "futures", "thread.py")) for f in files)
    monkeypatch.setattr(T, "init_params", init)
    _, reports = T.train(ModelKind.C2W2S4PT, paper_tweets(), "ext", PAPER_CFG)
    assert np.isfinite(reports[0].loss)


def test_no_thread_starts_at_small_sizes_or_at_a_cap_of_one(cap, no_partner):
    before = set(threading.enumerate())
    cap(2)
    tweets, _ = build_tweets(generate_fixture(10, 20, "exclamation", seed=42))
    cfg = T.TrainConfig(char_dim=8, hidden_size=16, mlp_dim=16, word_dim=8, epochs=1,
                        batch_size=4, learning_rate=1e-2, dropout_rate=0.0, seed=3)
    run_cv(ModelKind.C2W2S4PT, tweets, "ext", 5, "tweet", cfg, seed=1)
    for kind in TRAINABLE_KINDS:
        T.grad_check(kind, n_trials=2)
    cap(1)
    T.train(ModelKind.C2W2S4PT, paper_tweets(), "ext", PAPER_CFG)
    assert new_threads(before) == []


def test_a_paper_size_train_starts_one_partner(cap, no_partner):
    before = set(threading.enumerate())
    cap(2)
    for _ in range(2):
        T.train(ModelKind.C2W2S4PT, paper_tweets(), "ext", PAPER_CFG)
    assert new_threads(before) == ["traitgru-partner_0"]


def test_callers_on_many_threads_share_one_partner_and_get_their_own_results(cap, no_partner):
    # The callers also race to make the partner on their first pass: the
    # partner's calls must all run on one worker thread.
    wrong, workers = [], set()

    def where(*args):
        return args, threading.current_thread()

    def call(k):
        _, threaded = partner_plan()
        for i in range(300):
            (there, worker), (here, caller) = gru._each(where, [(k, i), (k, -i)], threaded)
            workers.add(worker)
            if (there, here, caller) != ((k, i), (k, -i), threading.current_thread()):
                wrong.append((k, i, there, here))

    before = set(threading.enumerate())
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
    assert [t.name for t in workers] == ["traitgru-partner_0"]
    assert new_threads(before) == ["traitgru-partner_0"]


def test_a_threaded_train_command_exits_on_its_own(tmp_path):
    # The partner's worker is not a daemon thread: the interpreter joins it
    # at exit, which must not hang a command that started it.
    data, cfg = tmp_path / "d.tsv", tmp_path / "c.cfg"
    assert cli.main(["fixture", "--users", "4", "--tweets-per-user", "3", "--seed", "9",
                     "--out", str(data)]) == 0
    cfg.write_text(f"char_dim = 4\nhidden_size = {gru.CONCURRENT_MIN_HIDDEN}\nmlp_dim = 5\n"
                   "word_dim = 4\nepochs = 1\nbatch_size = 4\n", encoding="utf-8")
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.ckpt"
        done = _run_module("train", "--data", str(data), "--trait", "ext", "--model", "c2w2s4pt",
                           "--config", str(cfg), "--seed", "5", "--out", str(out),
                           "--threads", threads)
        assert done.returncode == 0, done.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_a_command_that_never_uses_two_threads_never_imports_the_executor(tmp_path):
    # The partner is made on the first two-thread pass, so a small model's
    # train and eval, even at a cap of 2, neither make it nor import
    # concurrent.futures (and the logging it pulls in).
    import subprocess

    data, cfg = tmp_path / "d.tsv", tmp_path / "c.cfg"
    assert cli.main(["fixture", "--users", "4", "--tweets-per-user", "3", "--seed", "9",
                     "--out", str(data)]) == 0
    cfg.write_text("char_dim = 4\nhidden_size = 16\nmlp_dim = 5\nword_dim = 4\nepochs = 1\n",
                   encoding="utf-8")
    code = ("import sys\n"
            "from traitgru import cli, gru\n"
            "data, cfg, out = sys.argv[1:]\n"
            "assert cli.main(['train', '--data', data, '--trait', 'ext', '--model', 'c2w2s4pt', "
            "'--config', cfg, '--out', out, '--threads', '2']) == 0\n"
            "assert cli.main(['eval', '--data', data, '--model-kind', 'c2w2s4pt', '--trait', "
            "'ext', '--k', '2', '--level', 'tweet', '--config', cfg, '--threads', '2']) == 0\n"
            "print(gru._partner, 'concurrent.futures' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(gru.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code, str(data), str(cfg),
                           str(tmp_path / "m.ckpt")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "None False"
