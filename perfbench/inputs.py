"""Seeded tweet-like corpora whose expected tokens are known up front.

Each line is built from fragments of known kinds (plain words, words with
trailing punctuation, mentions, URLs, hashtags, emoticons, character
flooding, punctuation runs, numbers, accented words, emoji), and every
fragment carries the tokens the normalize-then-tokenize rules of the
program must give for it.  The expected tokens therefore come from the
generator, not from the program.

Length make-up: the token count of line i is the ((i + 0.5) / n)-quantile
of a lognormal with median 11 tokens, clipped to [1, 30]; the counts are
then shuffled by the seed.  Every seed therefore gets the same multiset of
line lengths, and the corpus cost varies across seeds only through word
lengths and fragment kinds.  Plain-word lengths follow the English
word-length distribution (mean about 4.6 letters, at most 15).
"""

import math
import random
from dataclasses import dataclass
from statistics import NormalDist

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Relative frequency of English word lengths 1..15.
_WORD_LENGTH_WEIGHTS = (3, 17, 20, 17, 12, 9, 7, 5, 4, 2.5, 1.5, 1, 0.6, 0.3, 0.2)
_EMOTICONS = (":)", ":-)", ":(", ";)", ":D", ":P", "=)", "<3", "xD", "XD", "^_^", "o.O", ">.<", ":/")
_PUNCT_RUNS = ("!!!", "?!", "...", "!", "?", "!!!!!!", "?!?!")
_TRAILING = ("!", "!!!", "?", ".", ",", "...", "?!")
_ACCENTED = ("café", "naïve", "über", "straße", "señor",
             "façade", "résumé", "coöperate", "åsa", "niño")
_EMOJI = ("\U0001F602", "\U0001F60D", "\U0001F525", "\U0001F62D", "❤️", "\U0001F44D")
_TLDS = ("co", "ly", "com", "gl")

# (kind, weight); kinds map to _fragment() branches below.
_KINDS = (
    ("word", 0.60), ("word_punct", 0.08), ("mention", 0.06), ("url", 0.04),
    ("hashtag", 0.05), ("emoticon", 0.04), ("flood", 0.04), ("punct", 0.03),
    ("number", 0.02), ("accented", 0.02), ("emoji", 0.02),
)
_KIND_NAMES = tuple(k for k, _ in _KINDS)
_KIND_WEIGHTS = tuple(w for _, w in _KINDS)

MEDIAN_TOKENS = 11
MAX_TOKENS = 30
BLANK_LINES = ("", "   ")


@dataclass(frozen=True)
class Line:
    """One raw line and the tokens it must tokenize to (() for a blank line)."""

    text: str
    tokens: tuple


def _word(rng: random.Random) -> str:
    n = rng.choices(range(1, 16), weights=_WORD_LENGTH_WEIGHTS)[0]
    while True:
        w = "".join(rng.choice(_LETTERS) for _ in range(n))
        # "xd", "xdd", ... are emoticons to the tokenizer; redraw them.
        if not (w[0] == "x" and len(w) > 1 and set(w[1:]) == {"d"}):
            return w


def _fragment(kind: str, rng: random.Random):
    """(raw fragment, expected tokens)."""
    if kind == "word":
        w = _word(rng)
        if rng.random() < 0.1:
            w = w.capitalize()
        return w, (w,)
    if kind == "word_punct":
        w, p = _word(rng), rng.choice(_TRAILING)
        return w + p, (w, p)
    if kind == "mention":
        name = _word(rng) + rng.choice(("", "_", "_x", "42"))
        return "@" + name, ("@",)
    if kind == "url":
        slug = "".join(rng.choice(_LETTERS + "0123456789ABCXYZ") for _ in range(10))
        scheme = rng.choice(("http://", "https://", "www."))
        return f"{scheme}t.{rng.choice(_TLDS)}/{slug}", ("^",)
    if kind == "hashtag":
        tag = "#" + _word(rng) + rng.choice(("", "", "2015", "Life"))
        return tag, (tag,)
    if kind == "emoticon":
        e = rng.choice(_EMOTICONS)
        return e, (e,)
    if kind == "flood":
        w = _word(rng)
        w = w + w[-1] * rng.randint(3, 9)
        return w, (w,)
    if kind == "punct":
        p = rng.choice(_PUNCT_RUNS)
        return p, (p,)
    if kind == "number":
        n = str(rng.randint(0, 2020))
        return n, (n,)
    if kind == "accented":
        w = rng.choice(_ACCENTED)
        return w, (w,)
    e = rng.choice(_EMOJI) * rng.randint(1, 3)
    return e, (e,)


def _token_counts(n: int, rng: random.Random) -> list:
    normal = NormalDist(0.0, 0.5)
    counts = [min(MAX_TOKENS, max(1, round(MEDIAN_TOKENS * math.exp(normal.inv_cdf((i + 0.5) / n)))))
              for i in range(n)]
    rng.shuffle(counts)
    return counts


def tweet_lines(seed: int, n: int, blank_every: int = 40) -> list:
    """n lines; every blank_every-th line (by position) is blank."""
    rng = random.Random(f"perfbench-lines-{seed}")
    n_blank = n // blank_every
    counts = _token_counts(n - n_blank, rng)
    lines = []
    for i in range(n):
        if (i + 1) % blank_every == 0 and n_blank > 0:
            lines.append(Line(rng.choice(BLANK_LINES), ()))
            n_blank -= 1
            continue
        target = counts.pop()
        raws, tokens = [], []
        # A fragment may yield two tokens, so a line can overshoot by one.
        while len(tokens) < target:
            raw, toks = _fragment(rng.choices(_KIND_NAMES, weights=_KIND_WEIGHTS)[0], rng)
            raws.append(raw)
            tokens.extend(toks)
        lines.append(Line(" ".join(raws), tuple(tokens)))
    return lines
