"""Tweet normalization, tokenization, vocabularies, dataset IO and folds.

Normalization maps user mentions to "@" and URLs to "^" so the model
never sees character content that the author did not choose, then
NFC-normalizes the Unicode.  Tokenization is a deliberately simple rule
set for noisy user text (the rules are frozen by golden tests):

  * fragments are whitespace-delimited
  * "#"-initial fragments are kept whole
  * "@" / "^" placeholders are standalone tokens
  * emoticon-shaped fragments (":)", "o.O", "^_^", "xD", ...) are kept whole
  * fragments with no letters or digits are kept whole
  * otherwise leading and trailing punctuation runs split off as their
    own tokens; interior punctuation ("ain't", "a.b") is untouched
  * repeated-character flooding is never collapsed

The dataset format is a UTF-8 TSV, one record per line:

    user_id <TAB> ext <TAB> sta <TAB> agr <TAB> con <TAB> opn <TAB> text

with each score a decimal in [-0.5, 0.5].
"""

import codecs
import math
import re
import unicodedata
from dataclasses import dataclass, field

from .rng import SplitMix64

TRAITS = ("ext", "sta", "agr", "con", "opn")

MAX_TWEET_CHARS = 512
MAX_WORD_CHARS = 64

_URL_RE = re.compile(r"(?:^|(?<=\s))(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"(?:^|(?<=\s))@\w+")

_EMOTICON_RE = re.compile(
    r"""^(?:
        [<>]?[:;=8][\-o*']?[)\](\[dDpP/\\}{@|]+    # :-) :D =P ;-(
      | [)\](\[dDpP/\\]+[\-o*']?[:;=8][<>]?        # (-: D:
      | <3
      | [oO0>^~][._\-]+[oO0<^~]                    # o.O ^_^ >.<
      | [xX][dD]+
    )$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class TraitScores:
    """The five trait values, each in [-0.5, 0.5]."""

    ext: float
    sta: float
    agr: float
    con: float
    opn: float

    def __post_init__(self):
        for name in TRAITS:
            v = getattr(self, name)
            if not (-0.5 <= v <= 0.5) or not math.isfinite(v):
                raise ValueError(f"trait {name}={v} outside [-0.5, 0.5]")

    def get(self, trait: str) -> float:
        if trait not in TRAITS:
            raise ValueError(f"unknown trait {trait!r}, expected one of {TRAITS}")
        return getattr(self, trait)

    def as_tuple(self):
        return tuple(getattr(self, name) for name in TRAITS)


@dataclass(frozen=True)
class RawRecord:
    user_id: str
    text: str
    traits: TraitScores

    def __post_init__(self):
        if not self.user_id:
            raise ValueError("user_id must be non-empty")


@dataclass(frozen=True)
class Tweet:
    user_id: str
    normalized_text: str
    tokens: tuple
    traits: TraitScores

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("Tweet requires a non-empty token sequence")


@dataclass
class LoadReport:
    """Counts from one load: parsed, rejected (with reasons), dropped-empty."""

    parsed: int = 0
    dropped_empty: int = 0
    rejected: list = field(default_factory=list)  # (line_no, reason)

    def as_dict(self) -> dict:
        return {
            "parsed": self.parsed,
            "dropped_empty": self.dropped_empty,
            "rejected": [{"line": n, "reason": r} for n, r in self.rejected],
        }

    def summary(self) -> str:
        return (
            f"parsed {self.parsed} records, dropped {self.dropped_empty} empty, "
            f"rejected {len(self.rejected)} lines"
        )


def normalize_tweet(text: str) -> str:
    """Replace mentions with '@' and URLs with '^', then NFC-normalize."""
    out = unicodedata.normalize("NFC", text)
    out = _URL_RE.sub("^", out)
    out = _MENTION_RE.sub("@", out)
    return out


def _split_fragment(frag: str) -> list:
    if frag.startswith("#"):
        return [frag]
    if _EMOTICON_RE.match(frag):
        return [frag]
    if frag[0] in "@^":
        rest = frag[1:]
        return [frag[0]] + (_split_fragment(rest) if rest else [])
    if not any(c.isalnum() for c in frag):
        return [frag]
    i, j = 0, len(frag)
    while i < j and not frag[i].isalnum():
        i += 1
    while j > i and not frag[j - 1].isalnum():
        j -= 1
    out = []
    if i > 0:
        out.append(frag[:i])
    out.append(frag[i:j])
    if j < len(frag):
        out.append(frag[j:])
    return out


def tokenize(text: str) -> list:
    """Split normalized text into tokens; may be empty, never contains ''."""
    tokens = []
    for frag in text.split():
        tokens.extend(_split_fragment(frag))
    return tokens


class CharVocab:
    """Dense character-to-id map with a reserved trailing UNK id."""

    def __init__(self, char_to_id: dict):
        ids = sorted(char_to_id.values())
        if ids != list(range(len(ids))):
            raise ValueError("character ids must be dense and unique")
        self.char_to_id = dict(char_to_id)
        self.unk_id = len(ids)

    @property
    def size(self) -> int:
        """Vocabulary size including the UNK slot."""
        return self.unk_id + 1

    def id_of(self, ch: str) -> int:
        return self.char_to_id.get(ch, self.unk_id)

    def ids_of(self, text: str) -> list:
        return [self.id_of(c) for c in text]


class WordVocab:
    """Dense token-to-id map with a reserved trailing UNK id."""

    def __init__(self, word_to_id: dict):
        ids = sorted(word_to_id.values())
        if ids != list(range(len(ids))):
            raise ValueError("word ids must be dense and unique")
        self.word_to_id = dict(word_to_id)
        self.unk_id = len(ids)

    @property
    def size(self) -> int:
        return self.unk_id + 1

    def id_of(self, word: str) -> int:
        return self.word_to_id.get(word, self.unk_id)


def build_char_vocab(tweets, source: str = "tokens") -> CharVocab:
    """Ids in first-appearance order over token text (or full normalized
    text with source="text", which adds the space character)."""
    if not tweets:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    if source not in ("tokens", "text"):
        raise ValueError(f"unknown vocab source {source!r}")
    char_to_id = {}
    for tw in tweets:
        pieces = tw.tokens if source == "tokens" else (tw.normalized_text,)
        for piece in pieces:
            for ch in piece:
                if ch not in char_to_id:
                    char_to_id[ch] = len(char_to_id)
    return CharVocab(char_to_id)


def build_word_vocab(tweets) -> WordVocab:
    if not tweets:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    word_to_id = {}
    for tw in tweets:
        for tok in tw.tokens:
            if tok not in word_to_id:
                word_to_id[tok] = len(word_to_id)
    return WordVocab(word_to_id)


def split_lines(text: str) -> list:
    """The lines of text without their ends, broken only at \\n, \\r\\n
    and \\r as text-mode reading breaks them (str.splitlines also breaks
    at \\x0c, \\x85, U+2028 and more, which a tweet may hold)."""
    lines = re.split(r"\r\n|\r|\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def parse_record_line(line: str) -> RawRecord:
    cols = line.split("\t")
    if len(cols) != 7:
        raise ValueError(f"expected 7 tab-separated columns, got {len(cols)}")
    user_id, *score_cols, text = cols
    scores = []
    for name, col in zip(TRAITS, score_cols):
        try:
            v = float(col)
        except ValueError:
            raise ValueError(f"non-numeric {name} score {col!r}") from None
        if not (-0.5 <= v <= 0.5):
            raise ValueError(f"{name} score {v} outside [-0.5, 0.5]")
        scores.append(v)
    return RawRecord(user_id=user_id, text=text, traits=TraitScores(*scores))


def read_text(path) -> str:
    """The text of a UTF-8 file, one leading byte order mark skipped.  Invalid
    UTF-8 is a ValueError naming the path and the file's byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    skip = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw[skip:].decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: invalid UTF-8 at byte offset {skip + e.start}") from None


def load_dataset(path):
    """Parse a TSV dataset read by read_text; returns (records, LoadReport).
    Malformed lines are counted and reported with their line numbers."""
    records = []
    report = LoadReport()
    for line_no, line in enumerate(split_lines(read_text(path)), start=1):
        try:
            records.append(parse_record_line(line))
            report.parsed += 1
        except ValueError as e:
            report.rejected.append((line_no, str(e)))
    return records, report


def save_dataset(records, path) -> None:
    """Write records as TSV; floats use repr so load round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            scores = "\t".join(repr(v) for v in r.traits.as_tuple())
            fh.write(f"{r.user_id}\t{scores}\t{r.text}\n")


def build_tweets(records, report: LoadReport = None):
    """Normalize and tokenize records, dropping any that come out empty."""
    tweets = []
    dropped = 0
    for r in records:
        normalized = normalize_tweet(r.text)[:MAX_TWEET_CHARS]
        tokens = tuple(t[:MAX_WORD_CHARS] for t in tokenize(normalized))
        if not tokens:
            dropped += 1
            continue
        tweets.append(Tweet(r.user_id, normalized, tokens, r.traits))
    if report is not None:
        report.dropped_empty += dropped
    return tweets, dropped


def load_tweets(path):
    """load_dataset + build_tweets with a merged report."""
    records, report = load_dataset(path)
    tweets, _ = build_tweets(records, report)
    return tweets, report


@dataclass(frozen=True)
class FoldPlan:
    """Record-index -> fold assignment for k-fold cross-validation."""

    k: int
    level: str  # "tweet" or "user"
    seed: int
    assignment: tuple

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.level not in ("tweet", "user"):
            raise ValueError(f"level must be 'tweet' or 'user', got {self.level!r}")
        if any(f < 0 or f >= self.k for f in self.assignment):
            raise ValueError("fold assignment outside [0, k)")

    def train_indices(self, fold: int) -> list:
        return [i for i, f in enumerate(self.assignment) if f != fold]

    def test_indices(self, fold: int) -> list:
        return [i for i, f in enumerate(self.assignment) if f == fold]


def tweets_by_user(items) -> dict:
    """Each user's ascending indices into items (anything with a user_id),
    users in order of first appearance."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(item.user_id, []).append(i)
    return groups


def kfold_split(tweets, k: int, level: str, seed: int) -> FoldPlan:
    """Deterministic fold plan.

    USER level keeps each user's tweets in a single fold; fold sizes in
    users differ by at most one.  TWEET level stratifies by user: each
    user's shuffled tweets are dealt round-robin in one continuous pass,
    so per-user fold counts and global fold sizes both differ by at most
    one.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if level not in ("tweet", "user"):
        raise ValueError(f"level must be 'tweet' or 'user', got {level!r}")
    rng = SplitMix64(seed).derive("kfold")
    groups = tweets_by_user(tweets)
    assignment = [0] * len(tweets)
    if level == "user":
        if len(groups) < k:
            raise ValueError(f"user-level split needs >= {k} users, got {len(groups)}")
        users = list(groups)
        rng.shuffle(users)
        for pos, u in enumerate(users):
            for i in groups[u]:
                assignment[i] = pos % k
    else:
        if len(tweets) < k:
            raise ValueError(f"tweet-level split needs >= {k} tweets, got {len(tweets)}")
        # continuous round-robin across users: per-user fold counts differ
        # by at most one, and so do global fold sizes (no empty folds)
        offset = rng.below(k)
        for idxs in groups.values():
            rng.shuffle(idxs)
            for pos, i in enumerate(idxs):
                assignment[i] = (offset + pos) % k
            offset = (offset + len(idxs)) % k
    return FoldPlan(k=k, level=level, seed=seed, assignment=tuple(assignment))


def _clamp_score(v: float) -> float:
    return min(0.5, max(-0.5, v))


_FILLER_WORDS = (
    "the", "cat", "sat", "on", "a", "mat", "we", "like", "sunny", "days",
    "coffee", "rain", "music", "code", "book", "walk", "home", "still",
)
_MARKER_WORD = "lol"

FIXTURE_SIGNALS = ("exclamation", "length", "marker")


def generate_fixture(n_users: int, tweets_per_user: int, signal: str = "exclamation",
                     noise: float = 0.0, seed: int = 0) -> list:
    """Synthetic corpus whose driven trait is a function of surface text.

    Per signal, the driven trait and its generator:
      exclamation -> ext = clamp(0.1 * count("!") - 0.3); every tweet of a
                     user ends in the same run of count("!") bangs
      length      -> sta = clamp(0.1 * (tokens_per_tweet - 5))
      marker      -> agr = +0.25 when every tweet contains "lol", else -0.25

    Non-driven traits are user-level uniform draws.  noise adds a
    clamped Gaussian perturbation to the driven trait (per user, so all
    of a user's tweets still share one score).  Fully reproducible from
    the seed.
    """
    if n_users <= 0 or tweets_per_user <= 0:
        raise ValueError("n_users and tweets_per_user must be positive")
    if signal not in FIXTURE_SIGNALS:
        raise ValueError(f"unknown signal {signal!r}, expected one of {FIXTURE_SIGNALS}")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be a finite non-negative number, got {noise}")
    rng = SplitMix64(seed).derive("fixture")
    records = []
    for u in range(n_users):
        user_id = f"u{u + 1:03d}"
        bangs, marked = 0, False
        verbosity = 3 + rng.below(6)
        traits = {name: rng.uniform(-0.5, 0.5) for name in TRAITS}
        if signal == "exclamation":
            bangs = u % 9
            driven, value = "ext", _clamp_score(0.1 * bangs - 0.3)
        elif signal == "length":
            verbosity = 3 + (u % 6)
            driven, value = "sta", _clamp_score(0.1 * (verbosity - 5))
        else:
            marked = u % 2 == 1
            driven, value = "agr", 0.25 if marked else -0.25
        if noise > 0.0:
            value = _clamp_score(value + rng.gauss(0.0, noise))
        traits[driven] = value
        scores = TraitScores(**traits)
        for _ in range(tweets_per_user):
            words = [_FILLER_WORDS[rng.below(len(_FILLER_WORDS))] for _ in range(verbosity)]
            if marked:
                words.insert(rng.below(len(words) + 1), _MARKER_WORD)
            if bangs > 0:
                words.append("!" * bangs)
            records.append(RawRecord(user_id=user_id, text=" ".join(words), traits=scores))
    return records
