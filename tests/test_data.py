"""Tokenization, vocabularies, filtering, batching, and toy corpora."""

import numpy as np
import pytest

from fusionmt.data import (
    BOS_ID,
    CT_ARTICLE,
    CT_NOUNS,
    EOS_ID,
    RESERVED,
    UNK_ID,
    BatchIterator,
    DataError,
    SentencePair,
    Vocabulary,
    article_rule_violations,
    build_vocab,
    encode_pairs,
    filter_pairs,
    make_toy_corpus,
    pad_batch,
    pad_mono_batch,
    read_lines,
    tokenize,
    write_lines,
)


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_no_lowercase(self):
        assert tokenize("Ab", lowercase=False) == ["Ab"]

    def test_char_mode(self):
        assert tokenize("ab c", char_mode=True) == ["a", "b", "c"]

    def test_fixture_hand_tally(self, tmp_path):
        lines = [
            "the cat sat.",
            "Don't stop!",
            "  spaced   out  ",
            "a b c d e",
            "",
        ]
        # hand tally ("." "'" "!" split off): 4 / 5 / 2 / 5 / 0 tokens
        path = tmp_path / "fix.txt"
        write_lines(path, lines)
        counts = [len(tokenize(ln)) for ln in read_lines(path)]
        assert counts == [4, 5, 2, 5, 0]


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary(["x"])
        assert v.id_to_token[:3] == list(RESERVED)
        assert (UNK_ID, EOS_ID, BOS_ID) == (0, 1, 2)

    def test_hand_counted_ids(self):
        v = build_vocab([["a", "a", "b"]], cap=5)
        assert v.encode(["a", "b"]) == [3, 4]

    def test_unknown_maps_to_unk(self):
        v = build_vocab([["a"]], cap=5)
        assert v.encode(["zzz"]) == [UNK_ID]
        assert v.encode(["a", "zzz"]) == [3, 0]

    def test_cap_binds(self):
        corpus = [[f"w{i}" for i in range(20)]]
        v = build_vocab(corpus, cap=10)
        assert len(v) == 10

    def test_frequency_then_lexicographic(self):
        v = build_vocab([["b", "b", "c", "a", "c", "a"]], cap=6)
        # all tied at 2 -> alphabetical
        assert v.id_to_token[3:] == ["a", "b", "c"]

    def test_save_load_roundtrip(self, tmp_path):
        v = build_vocab([["b", "a", "b"]], cap=6)
        path = tmp_path / "vocab.txt"
        v.save(path)
        w = Vocabulary.load(path)
        assert w.id_to_token == v.id_to_token

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_lines(path, ["a", "b", "c", "d"])
        with pytest.raises(DataError):
            Vocabulary.load(path)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], cap=5)
        with pytest.raises(DataError):
            build_vocab([["a"]], cap=3)


class TestFilterPairs:
    def test_eighty_word_limit(self):
        long = ["w"] * 81
        ok = ["w"] * 80
        assert filter_pairs([(long, ok), (ok, ok)]) == [(ok, ok)]

    def test_ratio_boundary(self):
        pairs = [
            (["w"] * 10, ["w"] * 31),  # ratio 3.1 -> dropped
            (["w"] * 10, ["w"] * 30),  # ratio 3.0 -> kept
        ]
        assert filter_pairs(pairs) == pairs[1:]

    def test_mixed_fixture(self):
        pairs = [
            (["a"], ["b"]),               # kept
            (["a"] * 81, ["b"]),          # length
            ([], ["b"]),                  # empty
            (["a"] * 2, ["b"] * 7),       # ratio 3.5
            (["a"] * 3, ["b"] * 9),       # ratio 3.0, kept
            (["a"] * 80, ["b"] * 80),     # kept
        ]
        assert filter_pairs(pairs) == [pairs[0], pairs[4], pairs[5]]

    def test_all_filtered_raises(self):
        with pytest.raises(DataError):
            filter_pairs([(["a"] * 81, ["b"])])


class TestPadding:
    def test_batch_layout(self):
        batch = pad_batch([SentencePair([3, 4], [5, 6, 7]),
                           SentencePair([8], [9])])
        np.testing.assert_array_equal(batch.src,
                                      [[3, 4, EOS_ID], [8, EOS_ID, 0]])
        np.testing.assert_array_equal(batch.src_mask,
                                      [[1, 1, 1], [1, 1, 0]])
        np.testing.assert_array_equal(batch.tgt_in,
                                      [[BOS_ID, 5, 6, 7], [BOS_ID, 9, 0, 0]])
        np.testing.assert_array_equal(batch.tgt_out,
                                      [[5, 6, 7, EOS_ID], [9, EOS_ID, 0, 0]])
        np.testing.assert_array_equal(batch.tgt_mask,
                                      [[1, 1, 1, 1], [1, 1, 0, 0]])
        assert batch.size == 2

    def test_mono_batch_reuses_target_fields(self):
        batch = pad_mono_batch([[3, 4], [5]])
        np.testing.assert_array_equal(batch.tgt_out,
                                      [[3, 4, EOS_ID], [5, EOS_ID, 0]])


class TestBatchIterator:
    def test_batch_sizes(self):
        it = BatchIterator(list(range(163)), 80, seed=0)
        sizes = [len(b) for b in it.epoch_batches()]
        assert sizes == [80, 80, 3]

    def test_epoch_covers_every_item_once(self):
        it = BatchIterator(list(range(30)), 7, seed=1)
        seen = [x for b in it.epoch_batches() for x in b]
        assert sorted(seen) == list(range(30))

    def test_seeded_shuffle_reproducible(self):
        def orders(seed):
            it = BatchIterator(list(range(50)), 8, seed=seed)
            return [[x for b in it.epoch_batches() for x in b]
                    for _ in range(2)]

        a = orders(3)
        b = orders(3)
        assert a == b
        assert a[0] != a[1]  # intra-run epochs differ

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            BatchIterator([], 4)


class TestEncodePairs:
    def test_roundtrip(self):
        sv = build_vocab([["x", "y"]], cap=6)
        tv = build_vocab([["u", "v"]], cap=6)
        pairs = encode_pairs([(["x", "q"], ["v"])], sv, tv)
        assert pairs[0].src == [3, 0]
        assert pairs[0].tgt == [4]

    def test_empty_rejected(self):
        v = build_vocab([["a"]], cap=5)
        with pytest.raises(DataError):
            encode_pairs([], v, v)


class TestToyCorpora:
    def test_copy_source_equals_target(self):
        corpus = make_toy_corpus("copy", 50, 5, 5, seed=0)
        for split in (corpus.train, corpus.dev, corpus.test):
            for src, tgt in split:
                assert src == tgt

    def test_reverse(self):
        corpus = make_toy_corpus("reverse", 20, 2, 2, seed=0)
        for src, tgt in corpus.train:
            assert tgt == src[::-1]

    def test_same_seed_identical(self):
        a = make_toy_corpus("constrained-target", 30, 5, 5, seed=4, n_mono=50)
        b = make_toy_corpus("constrained-target", 30, 5, 5, seed=4, n_mono=50)
        assert (a.train, a.dev, a.test, a.mono) == (b.train, b.dev, b.test,
                                                    b.mono)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_toy_corpus("nope", 1, 1, 1)

    def test_mono_corpus_satisfies_constraint(self):
        corpus = make_toy_corpus("constrained-target", 10, 2, 2, seed=0,
                                 n_mono=500)
        assert len(corpus.mono) == 500

        def independent_check(tokens):
            # scan: every noun token must follow the article directly
            for i, t in enumerate(tokens):
                if t in CT_NOUNS and (i == 0 or tokens[i - 1] != CT_ARTICLE):
                    return False
            return True

        assert all(independent_check(s) for s in corpus.mono)
        assert sum(article_rule_violations(s) for s in corpus.mono) == 0

    def test_dev_test_references_are_clean(self):
        corpus = make_toy_corpus("constrained-target", 100, 30, 30, seed=1,
                                 n_mono=10)
        for split in (corpus.dev, corpus.test):
            assert all(article_rule_violations(t) == 0 for _, t in split)

    def test_train_split_underdetermines_rule(self):
        corpus = make_toy_corpus("constrained-target", 200, 10, 10, seed=1,
                                 n_mono=10)
        violations = sum(article_rule_violations(t) for _, t in corpus.train)
        assert violations > 0  # articles dropped from some training targets

    def test_violation_counter(self):
        assert article_rule_violations(["da", "n1", "p2"]) == 0
        assert article_rule_violations(["n1"]) == 1
        assert article_rule_violations(["p1", "n2", "da", "n2", "n3"]) == 2

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_toy_corpus("copy", 0, 1, 1)
