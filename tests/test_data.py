import math

import pytest
from hypothesis import given, settings, strategies as st

from traitgru import data
from traitgru.data import (FoldPlan, RawRecord, TraitScores, Tweet, build_char_vocab,
                           build_tweets, build_word_vocab, generate_fixture,
                           kfold_split, load_dataset, load_tweets, normalize_tweet,
                           parse_record_line, save_dataset, tokenize)


def mk_tweet(user_id, text, ext=0.0):
    normalized = normalize_tweet(text)
    return Tweet(user_id, normalized, tuple(tokenize(normalized)),
                 TraitScores(ext, 0, 0, 0, 0))


class TestNormalize:
    def test_mention_and_url_mapping(self):
        assert normalize_tweet("@john hi http://t.co/abc") == "@ hi ^"

    def test_plain_text_untouched(self):
        assert normalize_tweet("no entities here!") == "no entities here!"

    def test_www_mention_hashtag(self):
        assert normalize_tweet("see www.example.com and @a_b #topic") == "see ^ and @ #topic"

    def test_https_and_standalone_at(self):
        assert normalize_tweet("https://x.co/a b @ c") == "^ b @ c"

    def test_mid_word_at_preserved(self):
        assert normalize_tweet("email me@home now") == "email me@home now"

    def test_idempotent_on_goldens(self):
        for text in ("@john hi http://t.co/abc", "see www.example.com and @a_b #topic",
                     "plain", "@@@ ^^ www. wwwww.foo xhttp://a"):
            once = normalize_tweet(text)
            assert normalize_tweet(once) == once

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_idempotent_fuzz(self, text):
        once = normalize_tweet(text)
        assert normalize_tweet(once) == once


class TestTokenize:
    def test_plain_split(self):
        assert tokenize("hi there") == ["hi", "there"]

    def test_placeholders_standalone(self):
        assert tokenize("@ hi ^") == ["@", "hi", "^"]

    def test_trailing_period_splits(self):
        assert tokenize("Being good ain't enough lately.") == \
            ["Being", "good", "ain't", "enough", "lately", "."]

    def test_hashtag_kept_whole(self):
        assert tokenize("#topic!") == ["#topic!"]

    def test_emoticons_kept_whole(self):
        assert tokenize(":) o.O ^_^ xD <3") == [":)", "o.O", "^_^", "xD", "<3"]

    def test_flooding_preserved(self):
        assert tokenize("soooo cool!!!") == ["soooo", "cool", "!!!"]

    def test_punctuation_only_fragment(self):
        assert tokenize("...") == ["..."]

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_no_empty_or_whitespace_tokens(self, text):
        for tok in tokenize(normalize_tweet(text)):
            assert tok
            assert not any(c.isspace() for c in tok)


class TestCharVocab:
    def test_first_appearance_order_and_unk(self):
        vocab = build_char_vocab([mk_tweet("u1", "ab"), mk_tweet("u1", "ba")])
        assert vocab.size == 3  # a, b, UNK
        assert vocab.id_of("a") == 0 and vocab.id_of("b") == 1
        assert vocab.id_of("ω") == vocab.unk_id

    def test_deterministic_rebuild(self):
        tweets = [mk_tweet("u1", "hello world"), mk_tweet("u2", "chars !!")]
        v1 = build_char_vocab(tweets)
        v2 = build_char_vocab(tweets)
        assert v1.char_to_id == v2.char_to_id

    def test_text_source_includes_space(self):
        tweets = [mk_tweet("u1", "a b")]
        assert " " not in build_char_vocab(tweets, source="tokens").char_to_id
        assert " " in build_char_vocab(tweets, source="text").char_to_id

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_char_vocab([])

    def test_word_vocab(self):
        vocab = build_word_vocab([mk_tweet("u1", "a b a")])
        assert vocab.size == 3
        assert vocab.id_of("a") == 0 and vocab.id_of("b") == 1
        assert vocab.id_of("zzz") == vocab.unk_id


class TestLoadDataset:
    def test_direct_parse(self):
        rec = parse_record_line("u1\t0.25\t-0.5\t0\t0.1\t0.5\thello @john")
        assert rec.user_id == "u1"
        assert rec.traits.as_tuple() == (0.25, -0.5, 0.0, 0.1, 0.5)
        assert rec.text == "hello @john"

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\t0.75\t0\t0\t0\t0\thello\n", encoding="utf-8")
        records, report = load_dataset(path)
        assert records == []
        assert len(report.rejected) == 1 and report.rejected[0][0] == 1
        assert "0.75" in report.rejected[0][1]

    def test_bad_column_count_reported(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\t0.1\t0\t0\t0\t0\n", encoding="utf-8")
        _, report = load_dataset(path)
        assert report.parsed == 0 and len(report.rejected) == 1

    def test_empty_text_dropped_and_counted(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("u1\t0\t0\t0\t0\t0\t\nu2\t0\t0\t0\t0\t0\thi\n", encoding="utf-8")
        tweets, report = load_tweets(path)
        assert len(tweets) == 1
        assert report.parsed == 2 and report.dropped_empty == 1

    def test_invalid_utf8_names_byte_offset(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"u1\t0\t0\t0\t0\t0\thi \xff\n")
        with pytest.raises(ValueError, match="byte offset 16"):
            load_dataset(path)

    def test_leading_bom_is_skipped(self, tmp_path):
        plain, with_bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
        save_dataset(generate_fixture(3, 2, seed=4), plain)
        # A rejected line too, so the report's line numbers are compared.
        raw = plain.read_bytes() + b"u9\t0.1\n"
        plain.write_bytes(raw)
        with_bom.write_bytes(b"\xef\xbb\xbf" + raw)
        records, report = load_dataset(with_bom)
        assert records[0].user_id == "u001"
        assert (records, report) == load_dataset(plain)
        assert report.rejected and report.rejected[0][0] == 7
        assert load_tweets(with_bom) == load_tweets(plain)

    def test_invalid_utf8_after_a_bom_names_the_file_offset(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        with pytest.raises(ValueError, match="byte offset 5"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.tsv")

    def test_roundtrip_fixture(self, tmp_path):
        records = generate_fixture(4, 3, signal="exclamation", noise=0.1, seed=5)
        path = tmp_path / "fx.tsv"
        save_dataset(records, path)
        loaded, report = load_dataset(path)
        assert not report.rejected
        assert loaded == records

    def test_lines_end_only_at_newline_and_carriage_return(self, tmp_path):
        # str.splitlines would also break at these; a text may hold them.
        texts = ["form\x0cfeed", "next\x85line", "line\u2028separator",
                 "\x0b\x1c\x1d\x1e\u2029 all"]
        records = [RawRecord(f"u{i}", text, TraitScores(0.1, 0, 0, 0, 0))
                   for i, text in enumerate(texts)]
        path = tmp_path / "d.tsv"
        save_dataset(records, path)
        loaded, report = load_dataset(path)
        assert not report.rejected
        assert loaded == records
        # CRLF and lone CR end lines as before; line numbers count them.
        lines = path.read_bytes().split(b"\n")[:-1] + [b"u9\t0.1"]
        ends = [b"\r\n", b"\r", b"\r\n", b"\n", b"\r\n"]
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
        loaded, report = load_dataset(crlf)
        assert loaded == records
        assert [line for line, _ in report.rejected] == [5]


class TestKfold:
    def test_five_folds_of_two(self):
        tweets = [mk_tweet("u1", f"t {i}") for i in range(10)]
        plan = kfold_split(tweets, 5, "tweet", seed=1)
        sizes = [len(plan.test_indices(f)) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_too_few_users_rejected(self):
        tweets = [mk_tweet(f"u{i}", "hi") for i in range(4)]
        with pytest.raises(ValueError, match="users"):
            kfold_split(tweets, 5, "user", seed=1)

    def test_stratification_balances_users(self):
        tweets = [mk_tweet(f"u{u}", f"t {i}") for u in range(3) for i in range(10)]
        plan = kfold_split(tweets, 5, "tweet", seed=3)
        for fold in range(5):
            idx = plan.test_indices(fold)
            for u in range(3):
                count = sum(1 for i in idx if tweets[i].user_id == f"u{u}")
                assert count == 2

    def test_user_level_never_splits_users(self):
        tweets = [mk_tweet(f"u{u}", f"t {i}") for u in range(7) for i in range(3)]
        plan = kfold_split(tweets, 3, "user", seed=9)
        fold_of = {}
        for i, tw in enumerate(tweets):
            fold = plan.assignment[i]
            assert fold_of.setdefault(tw.user_id, fold) == fold

    def test_user_fold_sizes_differ_by_at_most_one(self):
        tweets = [mk_tweet(f"u{u}", "x") for u in range(11)]
        plan = kfold_split(tweets, 3, "user", seed=2)
        user_counts = [len(plan.test_indices(f)) for f in range(3)]
        assert max(user_counts) - min(user_counts) <= 1

    def test_partition_property(self):
        tweets = [mk_tweet(f"u{u}", f"t {i}") for u in range(5) for i in range(4)]
        for level in ("tweet", "user"):
            plan = kfold_split(tweets, 4, level, seed=11)
            seen = sorted(i for f in range(4) for i in plan.test_indices(f))
            assert seen == list(range(len(tweets)))

    def test_deterministic_for_fixed_seed(self):
        tweets = [mk_tweet(f"u{u}", f"t {i}") for u in range(4) for i in range(5)]
        a = kfold_split(tweets, 5, "tweet", seed=42)
        b = kfold_split(tweets, 5, "tweet", seed=42)
        assert a.assignment == b.assignment
        c = kfold_split(tweets, 5, "tweet", seed=43)
        assert a.assignment != c.assignment

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FoldPlan(k=1, level="tweet", seed=0, assignment=(0,))
        with pytest.raises(ValueError):
            FoldPlan(k=2, level="nope", seed=0, assignment=(0, 1))


class TestFixture:
    def test_exclamation_formula(self):
        records = generate_fixture(10, 5, signal="exclamation", seed=42)
        for r in records:
            bangs = r.text.count("!")
            assert r.traits.ext == min(0.5, max(-0.5, 0.1 * bangs - 0.3))

    def test_reproducible(self):
        a = generate_fixture(5, 4, signal="marker", noise=0.0, seed=9)
        b = generate_fixture(5, 4, signal="marker", noise=0.0, seed=9)
        assert a == b

    @pytest.mark.parametrize("noise", [-1.0, -1e-9, math.nan, math.inf])
    def test_negative_or_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise"):
            generate_fixture(2, 2, noise=noise)

    def test_length_signal(self):
        records = generate_fixture(6, 3, signal="length", seed=1)
        for r in records:
            n_tokens = len(r.text.split())
            assert r.traits.sta == pytest.approx(0.1 * (n_tokens - 5), abs=1e-12)

    def test_marker_signal(self):
        records = generate_fixture(4, 3, signal="marker", seed=2)
        for r in records:
            expected = 0.25 if "lol" in r.text.split() else -0.25
            assert r.traits.agr == expected

    def test_average_baseline_rmse_equals_population_std(self):
        records = generate_fixture(9, 6, signal="exclamation", noise=0.0, seed=3)
        scores = [r.traits.ext for r in records]
        mean = sum(scores) / len(scores)
        rmse = math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))
        pop_std = math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))
        assert rmse == pytest.approx(pop_std, abs=1e-15)

    def test_tweets_never_normalize_empty(self):
        records = generate_fixture(12, 4, signal="exclamation", seed=4)
        tweets, dropped = build_tweets(records)
        assert dropped == 0 and len(tweets) == len(records)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_fixture(0, 5)
        with pytest.raises(ValueError):
            generate_fixture(2, 2, signal="nope")


class TestTypes:
    def test_trait_range_enforced(self):
        with pytest.raises(ValueError):
            TraitScores(0.6, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            TraitScores(float("nan"), 0, 0, 0, 0)

    def test_empty_user_id_rejected(self):
        with pytest.raises(ValueError):
            RawRecord("", "text", TraitScores(0, 0, 0, 0, 0))

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            Tweet("u1", "x", (), TraitScores(0, 0, 0, 0, 0))

    def test_word_and_tweet_caps(self):
        record = RawRecord("u1", "x" * 1000, TraitScores(0, 0, 0, 0, 0))
        tweets, _ = build_tweets([record])
        assert len(tweets[0].normalized_text) == data.MAX_TWEET_CHARS
        assert all(len(t) <= data.MAX_WORD_CHARS for t in tweets[0].tokens)
