import math

import numpy as np
import pytest

from helpers import make_model
from nnlm.artifact import build_model
from nnlm.caching import CacheConfig
from nnlm.config import RunConfig
from nnlm.corpus import build_vocabulary
from nnlm.evaluation import (EvalReport, perplexity, report_from_log2,
                             reverse_sentences)
from nnlm.models import RnnCore, RnnParameters, model_arrays
from nnlm.numerics import make_rng
from nnlm.training import train_epoch


def tiny_vocab(sentences=None):
    return build_vocabulary(sentences or [["a", "b", "c"], ["b", "a"]])


def uniform_model(vocab, n_h=4):
    """All-zero parameters: every score is 0, every word gets probability 1/k."""
    core, strategy = make_model("rnn", seed=0, k=vocab.size, m=3, n_h=n_h)
    for a in model_arrays(core, strategy).values():
        a[:] = 0.0
    return core, strategy


class TestPerplexityOracles:
    def test_uniform_model_scores_exactly_k(self):
        vocab = tiny_vocab()
        core, strategy = uniform_model(vocab)
        rep = perplexity(core, strategy, [["a", "b"], ["c"]], vocab)
        assert rep.ppl == pytest.approx(vocab.size, abs=1e-9)

    def test_token_count_scores_end_mark_but_not_start(self):
        vocab = tiny_vocab()
        core, strategy = uniform_model(vocab)
        rep = perplexity(core, strategy, [["a", "b", "c"]], vocab)
        assert rep.tokens == 4  # three words plus the end mark

    def test_near_perfect_successor_model(self):
        """Direct connections hard-wired to the deterministic successor of the
        current word drive the perplexity to essentially 1."""
        sents = [["a", "b", "c"]] * 3
        vocab = build_vocabulary(sents)
        k = vocab.size
        core, strategy = make_model("rnn", seed=1, direct=True, k=k, m=k, n_h=4)
        for a in model_arrays(core, strategy).values():
            a[:] = 0.0
        core.params.emb[:] = np.eye(k)
        chain = [vocab.start] + vocab.encode(["a", "b", "c"]).tolist()[1:]
        for cur, nxt in zip(chain[:-1], chain[1:]):
            strategy.w_direct[nxt, cur] = 50.0
        rep = perplexity(core, strategy, sents, vocab)
        assert rep.ppl < 1.001

    def test_matches_exponent_tracked_probability_product(self):
        """Recompute 2^(-1/T sum log2 p) by multiplying raw probabilities with
        manual exponent bookkeeping, no logarithms involved."""
        core, strategy = make_model("rnn", seed=3)
        sents = [["a", "b"], ["c", "a", "b"]]
        vocab = tiny_vocab()
        rep = perplexity(core, strategy, sents, vocab)

        mantissa, exponent, count = 1.0, 0, 0
        for sent in sents:
            enc = vocab.encode(sent)
            tape = core.run(enc[:-1])
            for t, tgt in enumerate(enc[1:]):
                prob = math.exp(strategy.logprob(tape.states[t], tape.xs[t], int(tgt)))
                mantissa, e = math.frexp(mantissa * prob)
                exponent += e
                count += 1
        log2_product = math.log2(mantissa) + exponent
        assert rep.ppl == pytest.approx(2.0 ** (-log2_product / count), rel=1e-12)
        assert rep.tokens == count

    def test_scoring_leaves_parameters_untouched(self):
        core, strategy = make_model("lstm", seed=4)
        before = {n: a.copy() for n, a in model_arrays(core, strategy).items()}
        perplexity(core, strategy, [["a", "b"]], tiny_vocab())
        for n, a in model_arrays(core, strategy).items():
            np.testing.assert_array_equal(a, before[n])


class TestReversal:
    def test_reverse_is_an_involution(self):
        sents = [["a", "b", "c"], ["d"]]
        assert reverse_sentences(reverse_sentences(sents)) == sents

    def test_sentence_order_preserved(self):
        assert reverse_sentences([["a", "b"], ["c"]]) == [["b", "a"], ["c"]]

    def test_uniform_model_indifferent_to_direction(self):
        vocab = tiny_vocab()
        core, strategy = uniform_model(vocab)
        fwd = perplexity(core, strategy, [["a", "b", "c"]], vocab)
        bwd = perplexity(core, strategy, reverse_sentences([["a", "b", "c"]]), vocab)
        assert fwd.ppl == pytest.approx(bwd.ppl)


class TestCacheInterpolation:
    def test_lambda_one_bit_identical_to_plain(self):
        core, strategy = make_model("rnn", seed=5)
        vocab = tiny_vocab()
        sents = [["a", "b", "a"], ["b", "a"]]
        plain = perplexity(core, strategy, sents, vocab)
        cached = perplexity(core, strategy, sents, vocab,
                            cache=CacheConfig(lam=1.0))
        assert cached.log2_total == plain.log2_total
        assert cached.sentence_log2 == plain.sentence_log2

    def test_cache_helps_uniform_model_on_repetitive_text(self):
        vocab = tiny_vocab()
        core, strategy = uniform_model(vocab)
        sents = [["a", "a", "a", "a", "a", "a"]]
        plain = perplexity(core, strategy, sents, vocab)
        cached = perplexity(core, strategy, sents, vocab,
                            cache=CacheConfig(lam=0.5, length=20))
        assert cached.ppl < plain.ppl

    def test_class_cache_matches_word_cache_on_singleton_classes(self):
        """With every class holding exactly one word the class cache caches
        word identity, so both modes must agree to float precision."""
        from nnlm.output_layer import ClassSoftmax, HierarchicalCode
        vocab = tiny_vocab()
        k = vocab.size
        rng = make_rng(6)
        p = RnnParameters.create(k, 3, 5, rng)
        core = RnnCore(p)
        singles = HierarchicalCode(rng.permutation(k), [np.arange(k + 1)])
        strategy = ClassSoftmax.create(singles, 5, rng)
        sents = [["a", "b", "a", "b", "c"]]
        word = perplexity(core, strategy, sents, vocab,
                          cache=CacheConfig(lam=0.5, mode="word"))
        # singleton classes: P(class cache) * P(word|class) with the word
        # factor over one row contributing probability one
        cls = perplexity(core, strategy, sents, vocab,
                         cache=CacheConfig(lam=0.5, mode="class"))
        assert cls.log2_total == pytest.approx(word.log2_total, abs=1e-10)

    def test_cache_longer_than_the_text_scores_as_a_full_one(self):
        """A cache.length far beyond the scored tokens allocates nothing of
        that size and scores as any length that never fills."""
        core, strategy = make_model("rnn", seed=5)
        vocab = tiny_vocab()
        sents = [["a", "b", "a"], ["b", "a", "c", "a"]]
        reps = [perplexity(core, strategy, sents, vocab,
                           cache=CacheConfig(lam=0.5, length=n, decay="linear"))
                for n in (9, 10 ** 15)]
        assert reps[0].sentence_log2 == reps[1].sentence_log2

    def test_class_cache_requires_class_strategy(self):
        vocab = tiny_vocab()
        core, strategy = uniform_model(vocab)
        with pytest.raises(ValueError, match="class"):
            perplexity(core, strategy, [["a"]], vocab,
                       cache=CacheConfig(lam=0.5, mode="class"))

    def test_cache_resets_at_document_boundaries(self):
        vocab = tiny_vocab()
        core, strategy = uniform_model(vocab)
        sents = [["a", "a"], ["a", "a"]]
        cfg = CacheConfig(lam=0.5, length=20)
        same_doc = perplexity(core, strategy, sents, vocab, cache=cfg,
                              doc_ids=[0, 0])
        split_doc = perplexity(core, strategy, sents, vocab, cache=cfg,
                               doc_ids=[0, 1])
        # carrying cache across the boundary helps the second sentence
        assert same_doc.ppl < split_doc.ppl


class TestCarryover:
    def test_per_sentence_documents_match_no_carryover(self):
        core, strategy = make_model("lstm", seed=7)
        vocab = tiny_vocab()
        sents = [["a", "b"], ["c", "a"]]
        plain = perplexity(core, strategy, sents, vocab)
        carried = perplexity(core, strategy, sents, vocab, carryover=True,
                             doc_ids=[0, 1])
        assert carried.log2_total == plain.log2_total

    def test_carryover_changes_mid_document_scores(self):
        core, strategy = make_model("rnn", seed=8)
        vocab = tiny_vocab()
        sents = [["a", "b"], ["c", "a"]]
        plain = perplexity(core, strategy, sents, vocab)
        carried = perplexity(core, strategy, sents, vocab, carryover=True,
                             doc_ids=[0, 0])
        assert carried.sentence_log2[0] == plain.sentence_log2[0]
        assert carried.sentence_log2[1] != plain.sentence_log2[1]

    def test_doc_ids_length_checked(self):
        core, strategy = make_model("rnn", seed=9)
        with pytest.raises(ValueError, match="doc_ids"):
            perplexity(core, strategy, [["a"]], tiny_vocab(), doc_ids=[0, 1])


class TestReports:
    def test_zero_tokens_rejected(self):
        with pytest.raises(ValueError):
            report_from_log2([], 0)

    @pytest.mark.parametrize("total", [float("nan"), float("-inf"), float("inf")])
    def test_non_finite_total_rejected(self, total):
        with pytest.raises(FloatingPointError, match="not finite"):
            report_from_log2([total], 3)

    def test_report_round_numbers(self):
        rep = report_from_log2([-2.0, -2.0], 4)
        assert rep.ppl == pytest.approx(2.0)

    def test_tsv_contains_fields(self):
        text = EvalReport(10, -20.0, 4.0, 123.0).to_tsv()
        lines = text.strip().split("\n")
        assert lines[0].split("\t") == ["tokens", "log2_total", "ppl", "words_per_s"]
        assert lines[1].split("\t")[0] == "10"


def pinned_corpus():
    """(train, valid, test, test doc ids): 25 Zipf-like sentences over 30
    words, the test split in three documents."""
    rng = make_rng(17)
    words = [f"w{i}" for i in range(30)]
    p = 1.0 / np.arange(1, 31)
    p /= p.sum()
    sents = [[words[i] for i in rng.choice(30, size=int(rng.integers(3, 9)), p=p)]
             for _ in range(25)]
    return sents[:10], sents[10:13], sents[13:], [0] * 5 + [1] * 4 + [2] * 3


PINNED_CACHES = {
    "word": CacheConfig(lam=0.7, length=7, decay="exponential", gamma=0.8),
    "class": CacheConfig(lam=0.6, length=5, decay="linear", mode="class"),
    "class_constant": CacheConfig(lam=0.8, length=9, mode="class"),
}

# static and cached test PPLs of the model below, recorded with the deque
# cache and the gathered class factors; regenerating them changes a check
PINNED_PPL = {
    "static": 16.988987660410146,
    "word": 15.084087182578207,
    "class": 18.770313453789878,
    "class_constant": 17.225291202718847,
}


def test_trained_class_rnn_ppls_are_pinned():
    """A seeded class RNN trained on 10 sentences with weight decay (the lazy
    path) scores the test split statically and through word and class caches
    with carryover as it did when the values were recorded."""
    train, valid, test, doc_ids = pinned_corpus()
    vocab = build_vocabulary(train)
    cfg = RunConfig(arch="rnn", strategy="class", assign="sqrt_freq", m=5,
                    n_h=13, bias=True, alpha=0.3, beta=0.01, seed=4)
    core, strategy, _ = build_model(cfg, vocab)
    tc = cfg.training_config()
    train_epoch(core, strategy, train, valid, vocab, tc, make_rng(tc.seed), tc.alpha)
    got = {"static": perplexity(core, strategy, test, vocab).ppl}
    for name, cache in PINNED_CACHES.items():
        got[name] = perplexity(core, strategy, test, vocab, cache=cache,
                               carryover=True, doc_ids=doc_ids).ppl
    assert got == pytest.approx(PINNED_PPL, rel=1e-12, abs=0)
