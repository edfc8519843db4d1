import numpy as np
import pytest

from helpers import decode, load_corpus, vocab_from_tsv
from nnlm.corpus import (END, START, UNKNOWN, build_vocabulary, encode,
                         load_documents, split_corpus)


def write(tmp_path, text, name="corpus.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoading:
    def test_basic_tokenization(self, tmp_path):
        p = write(tmp_path, "The cat sat\non  the\tmat\n")
        assert load_corpus(p) == [["the", "cat", "sat"], ["on", "the", "mat"]]

    def test_lowercase_off(self, tmp_path):
        p = write(tmp_path, "The Cat\n")
        assert load_corpus(p, lowercase=False) == [["The", "Cat"]]

    def test_blank_lines_delimit_documents(self, tmp_path):
        p = write(tmp_path, "a b\nc\n\n\nd e f\n")
        docs = load_documents(p)
        assert docs == [[["a", "b"], ["c"]], [["d", "e", "f"]]]
        assert load_corpus(p) == [["a", "b"], ["c"], ["d", "e", "f"]]

    def test_no_blank_lines_is_one_document(self, tmp_path):
        p = write(tmp_path, "a\nb\n")
        assert len(load_documents(p)) == 1

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(OSError, match="nope.txt"):
            load_corpus(tmp_path / "nope.txt")

    def test_bad_utf8_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"fine line\n\xff\xfe broken\n")
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(p)


class TestVocabulary:
    def test_marks_come_first(self):
        v = build_vocabulary([["b", "a", "b"]])
        assert v.words[:3] == [START, END, UNKNOWN]
        assert (v.start, v.end, v.unknown) == (0, 1, 2)

    def test_frequency_then_lexicographic_order(self):
        v = build_vocabulary([["b", "a", "b", "c", "a", "z"]])
        assert v.words[3:] == ["a", "b", "c", "z"]
        np.testing.assert_array_equal(v.frequencies[3:], [2, 2, 1, 1])

    def test_mark_frequencies_count_sentences(self):
        v = build_vocabulary([["a"], ["b"], ["a", "b"]])
        assert v.frequencies[v.start] == 3
        assert v.frequencies[v.end] == 3

    def test_min_count_folds_into_unknown(self):
        v = build_vocabulary([["a", "a", "b", "c"]], min_count=2)
        assert "b" not in v.index and "c" not in v.index
        assert v.frequencies[v.unknown] == 2
        assert v.size == 4

    def test_min_count_zero_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], min_count=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_deterministic(self):
        sents = [["x", "y"], ["y", "z", "z"]]
        a, b = build_vocabulary(sents), build_vocabulary(sents)
        assert a.words == b.words
        np.testing.assert_array_equal(a.frequencies, b.frequencies)

    def test_tsv_round_trip(self):
        v = build_vocabulary([["a", "b", "a"]], min_count=1)
        w = vocab_from_tsv(v.to_tsv())
        assert w.words == v.words
        assert w.index == v.index
        np.testing.assert_array_equal(w.frequencies, v.frequencies)


class TestEncode:
    def test_adds_boundary_marks(self):
        v = build_vocabulary([["a", "b"]])
        enc = encode(["a", "b"], v)
        assert enc[0] == v.start and enc[-1] == v.end
        assert len(enc) == 4

    def test_unknown_words_map_to_unknown(self):
        v = build_vocabulary([["a"]])
        enc = v.encode(["mystery"])
        assert enc[1] == v.unknown

    def test_decode_strips_marks(self):
        v = build_vocabulary([["a", "b"]])
        assert decode(v, v.encode(["b", "a"])) == ["b", "a"]
        assert UNKNOWN in decode(v, v.encode(["q"]))


class TestSplit:
    def test_whole_sentence_boundaries(self):
        sents = [["a"] * 3, ["b"] * 3, ["c"] * 3, ["d"] * 3]
        sp = split_corpus(sents, n_train=4, n_valid=2)
        # four tokens wanted, sentences are length 3, so train takes two whole
        # sentences (6 tokens) and validation one more
        assert sp.counts == (6, 3, 3)
        assert sp.train == sents[:2]
        assert sp.test == sents[3:]

    def test_exact_fit(self):
        sents = [["a", "b"], ["c", "d"], ["e", "f"]]
        sp = split_corpus(sents, n_train=2, n_valid=2)
        assert sp.counts == (2, 2, 2)

    def test_nothing_lost(self):
        sents = [["w"] * n for n in (1, 5, 2, 7, 3)]
        sp = split_corpus(sents, n_train=6, n_valid=5)
        assert sp.train + sp.validation + sp.test == sents

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="only"):
            split_corpus([["a", "b"]], n_train=5, n_valid=5)
