"""Correctness checks on each workload's outputs, made apart from the program.

Every check returns a list of failure messages (empty when it passes), so
the tests can perturb an output and see the check fail.  The reference
forward below is written from the model equations:

    z  = logistic(W_z x + U_z h + b_z)
    r  = logistic(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + r * (U_h h) + b_h)
    h' = z * h + (1 - z) * h~

A word is [final forward state ; final state over the reversed characters]
of the character bi-GRU, the sentence is the same over the word vectors,
and the score is w_hy . relu(W_eh s + b_h) + b_y.
"""

import math

import numpy as np
from traitgru.model import zero_grads

GRADIENT_TOLERANCE = 1e-4
SCORE_TOLERANCE = 1e-9
# predict prints six decimals, so a printed score is within half a unit
# in the sixth place of the exact score (plus float slack).
PRINTED_TOLERANCE = 5e-7 + 1e-12
PCA_TOLERANCE = 1e-6
CV_RATIO = 0.8


def _logistic(a: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def _gru_final(t: dict, prefix: str, xs: list) -> np.ndarray:
    h = np.zeros(t[prefix + "b_z"].shape[0])
    for x in xs:
        z = _logistic(t[prefix + "w_z"] @ x + t[prefix + "u_z"] @ h + t[prefix + "b_z"])
        r = _logistic(t[prefix + "w_r"] @ x + t[prefix + "u_r"] @ h + t[prefix + "b_r"])
        c = np.tanh(t[prefix + "w_h"] @ x + r * (t[prefix + "u_h"] @ h) + t[prefix + "b_h"])
        h = z * h + (1.0 - z) * c
    return h


def _bigru(t: dict, prefix: str, xs: list) -> np.ndarray:
    return np.concatenate([_gru_final(t, prefix + "fwd.", xs),
                           _gru_final(t, prefix + "bwd.", xs[::-1])])


def reference_embedding(tensors: dict, char_ids: dict, unk_id: int, tokens) -> np.ndarray:
    """Sentence vector of the hierarchical model for a token sequence."""
    e_c = tensors["e_c"]
    words = [_bigru(tensors, "char_", [e_c[:, char_ids.get(c, unk_id)] for c in tok])
             for tok in tokens]
    return _bigru(tensors, "word_", words)


def reference_score(tensors: dict, char_ids: dict, unk_id: int, tokens) -> float:
    s = reference_embedding(tensors, char_ids, unk_id, tokens)
    hidden = np.maximum(tensors["w_eh"] @ s + tensors["b_h"], 0.0)
    return float(tensors["w_hy"][0] @ hidden + tensors["b_y"][0])


# --- cv-tiny -----------------------------------------------------------------

def check_cv(labels: list, folds: list, reported_pooled: float):
    """folds: per fold a list of (tweet index, prediction).

    Returns (failures, pooled RMSE, average-baseline RMSE).  The baseline
    predicts, for each fold, the mean label of the tweets outside it.
    """
    failures = []
    n = len(labels)
    seen = sorted(i for fold in folds for i, _ in fold)
    if seen != list(range(n)):
        failures.append(f"predicted tweets are not each tweet once: {len(seen)} predictions "
                        f"for {n} tweets, {len(set(seen))} distinct")
        return failures, math.nan, math.nan
    sq_model = sq_base = 0.0
    total = sum(labels)
    for fold in folds:
        held = {i for i, _ in fold}
        train_mean = (total - sum(labels[i] for i in held)) / (n - len(held))
        for i, y_hat in fold:
            if not math.isfinite(y_hat):
                failures.append(f"tweet {i}: non-finite prediction {y_hat}")
            sq_model += (labels[i] - y_hat) ** 2
            sq_base += (labels[i] - train_mean) ** 2
    pooled, base = math.sqrt(sq_model / n), math.sqrt(sq_base / n)
    if not pooled <= CV_RATIO * base:
        failures.append(f"pooled RMSE {pooled:.4f} > {CV_RATIO} x baseline {base:.4f}")
    if not abs(pooled - reported_pooled) <= 1e-12:
        failures.append(f"reported pooled RMSE {reported_pooled!r} != recomputed {pooled!r}")
    return failures, pooled, base


# --- train-paper -------------------------------------------------------------

def check_train(losses: list, digests: list, reloaded: bytes, rel_err: float) -> list:
    """losses: epoch losses of every round; digests: hash of each round's
    saved checkpoint; reloaded: hash of save(load(last saved file))."""
    failures = []
    if not losses or not all(math.isfinite(x) for x in losses):
        failures.append(f"training loss not finite: {losses}")
    if not digests:
        failures.append("no checkpoint was saved")
    elif any(d != digests[0] for d in digests[1:]):
        failures.append("rounds with the same inputs saved different checkpoints")
    elif reloaded != digests[-1]:
        failures.append("save(load(checkpoint)) is not byte-identical")
    if not rel_err < GRADIENT_TOLERANCE:
        failures.append(f"directional derivative relative error {rel_err:.3e} "
                        f">= {GRADIENT_TOLERANCE}")
    return failures


def directional_derivative_error(reg, tweets, ys, masks_for, seed: int, eps: float = 1e-5):
    """Relative error of the analytic derivative of sum_i (f(x_i) - y_i)^2
    along a seeded unit direction against a central difference.

    masks_for(i) returns a fresh dropout plan whose stream gives the same
    masks on every call, so the loss is a fixed function of the weights.
    """
    tensors = reg.tensors()
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(a.shape) for k, a in tensors.items()}
    norm = math.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
    direction = {k: v / norm for k, v in direction.items()}

    grads = zero_grads(reg.params)
    for i, (tw, y) in enumerate(zip(tweets, ys)):
        y_hat, trace = reg.forward(tw, masks_for(i))
        reg.backward(trace, 2.0 * (y_hat - y), grads)
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in tensors)

    def loss() -> float:
        return sum((reg.forward(tw, masks_for(i))[0] - y) ** 2
                   for i, (tw, y) in enumerate(zip(tweets, ys)))

    originals = {k: a.copy() for k, a in tensors.items()}
    values = []
    for sign in (1.0, -1.0):
        for k, a in tensors.items():
            a[...] = originals[k] + sign * eps * direction[k]
        values.append(loss())
    for k, a in tensors.items():
        a[...] = originals[k]
    numeric = (values[0] - values[1]) / (2.0 * eps)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


# --- score-paper -------------------------------------------------------------

def check_predict_lines(out_lines: list, expected_tokens: list, ref_scores: dict) -> list:
    """out_lines: predict's stdout lines; expected_tokens: per input line
    (empty for a line that normalizes to nothing); ref_scores: line index
    -> reference score for the sampled lines."""
    failures = []
    if len(out_lines) != len(expected_tokens):
        return [f"predict printed {len(out_lines)} lines for {len(expected_tokens)} inputs"]
    for i, (out, toks) in enumerate(zip(out_lines, expected_tokens)):
        if (out == "NA") != (not toks):
            failures.append(f"line {i}: printed {out!r} for tokens {toks!r}")
        elif out != "NA":
            try:
                value = float(out)
            except ValueError:
                failures.append(f"line {i}: unparsable score {out!r}")
                continue
            if i in ref_scores and not abs(value - ref_scores[i]) <= PRINTED_TOLERANCE:
                failures.append(f"line {i}: printed {out} vs reference {ref_scores[i]!r}")
    return failures


def check_scores(program: dict, reference: dict) -> list:
    return [f"line {i}: score {program[i]!r} vs reference {reference[i]!r}"
            for i in sorted(reference)
            if not abs(program[i] - reference[i]) <= SCORE_TOLERANCE]


def check_pca(points: list, labels: list, embeddings: np.ndarray) -> list:
    """points: (pc1, pc2, label) rows of the visualize CSV, in the order of
    labels and of the reference embeddings of the chosen tweets."""
    if [p[2] for p in points] != labels:
        return ["visualize rows do not carry the expected LOW/HIGH labels"]
    x = np.asarray(embeddings)
    xc = x - x.mean(axis=0)
    values, vectors = np.linalg.eigh((xc.T @ xc) / (len(x) - 1))
    top = vectors[:, ::-1][:, :2]
    ref = xc @ top
    got = np.array([[p[0], p[1]] for p in points])
    scale = max(1.0, float(np.max(np.abs(ref))))
    failures = []
    for j in range(2):
        dev = min(float(np.max(np.abs(got[:, j] - ref[:, j]))),
                  float(np.max(np.abs(got[:, j] + ref[:, j]))))
        if not dev <= PCA_TOLERANCE * scale:
            failures.append(f"component {j + 1}: projections deviate by {dev:.3e} from eigh "
                            f"(eigenvalues {values[-1]:.4g}, {values[-2]:.4g})")
    return failures


# --- gradcheck ---------------------------------------------------------------

def parse_gradcheck(stdout: str) -> float:
    prefix = "max relative error:"
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return math.nan


def check_gradcheck(results: dict, canary_clean: float, canary_corrupt: float) -> list:
    """results: kind -> (exit code, max relative error printed)."""
    failures = []
    for kind, (rc, worst) in results.items():
        if rc != 0 or not worst < GRADIENT_TOLERANCE:
            failures.append(f"{kind}: exit code {rc}, max relative error {worst}")
    if not canary_clean < GRADIENT_TOLERANCE:
        failures.append(f"canary without corruption reads {canary_clean:.3e}")
    if not canary_corrupt >= GRADIENT_TOLERANCE:
        failures.append(f"corrupted gradient entry not caught ({canary_corrupt:.3e})")
    return failures
