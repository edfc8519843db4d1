"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Criteria that need the full-scale reference corpus look for newline-delimited
sentence files under $NNLM_CORPUS_ROOT (brown.txt, optionally domain_a.txt /
domain_b.txt).  Without it those checks are skipped with a visible reason;
everything that can run on synthetic data always runs.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (GRADIENT_CONFIGS, cache_distribution,
                     check_model_gradients, dense, effective_sample_size,
                     example_gradient, fnn_forward, make_model, rnn_step)
from nnlm.caching import CacheConfig, WordCache
from nnlm.cli import CORPUS_ROOT_ENV, main as cli_main
from nnlm.corpus import CorpusSplit, build_vocabulary
from nnlm.evaluation import perplexity
from nnlm.models import RnnCore, RnnParameters, model_arrays, zero_state
from nnlm.numerics import make_rng
from nnlm.output_layer import (ClassAssignment, ClassSoftmax, FullSoftmax,
                               HierarchicalSoftmax, assign_uniform_random,
                               hierarchy_from_classes,
                               hierarchy_uniform_random)
from nnlm.training import (ProposalDistribution, TrainingConfig,
                           dynamic_evaluate, importance_sampling_gradient,
                           sentence_gradients, train, update_parameters)


def corpus_root() -> Path | None:
    root = os.environ.get(CORPUS_ROOT_ENV)
    if root and (Path(root) / "brown.txt").exists():
        return Path(root)
    return None


def verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def skipped(num, reason):
    print(f"ACCEPTANCE {num:2d}: SKIP - {reason}")
    pytest.skip(reason)


# ---------------------------------------------------------------------------

def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    for arch, kind, toggles in GRADIENT_CONFIGS:
        check_model_gradients(arch, kind, **toggles)
    elapsed = time.perf_counter() - t0
    verdict(1, elapsed < 60.0,
            f"analytic vs finite-difference gradients, "
            f"{len(GRADIENT_CONFIGS)} model/output combinations in {elapsed:.1f}s")


def test_criterion_02_normalization_suite():
    k, n_h = 64, 7
    rng = make_rng(0)
    strategies = [
        FullSoftmax.create(k, n_h, rng, n_i=4, direct=True, bias=True),
        FullSoftmax.create(k, n_h, rng, energy=True),
        ClassSoftmax.create(assign_uniform_random(k, 8, rng), n_h, rng, bias=True),
        HierarchicalSoftmax.create(hierarchy_uniform_random(k, 3, rng), n_h, rng),
    ]
    worst = 0.0
    for strategy in strategies:
        for trial in range(3):
            state, x = rng.normal(size=n_h), rng.normal(size=4)
            total = float(np.exp(strategy.log_probs(state, x)).sum())
            worst = max(worst, abs(total - 1.0))
    # cache interpolation of two normalized distributions
    ring = WordCache(16)
    for w in rng.integers(0, k, size=12):
        ring.push(int(w))
    for decay in ("constant", "linear", "exponential"):
        cfg = CacheConfig(lam=0.4, decay=decay)
        p_model = np.exp(strategies[0].log_probs(rng.normal(size=n_h),
                                                 rng.normal(size=4)))
        mix = cfg.lam * p_model + (1 - cfg.lam) * cache_distribution(ring, k, cfg)
        worst = max(worst, abs(float(mix.sum()) - 1.0))
    verdict(2, worst <= 1e-10,
            f"probabilities sum to 1 (k={k}), worst deviation {worst:.2e}")


def test_criterion_03_equivalence_oracles():
    rng = make_rng(1)
    k, m, n_h = 12, 4, 6
    worst = 0.0

    # class softmax with one class == full softmax
    w = rng.uniform(-0.1, 0.1, size=(k, n_h))
    full = FullSoftmax(w)
    cls1 = ClassSoftmax(ClassAssignment(np.arange(k), np.array([0, k])),
                        rng.uniform(-0.1, 0.1, size=(1, n_h)), w.copy())
    state = rng.normal(size=n_h)
    for t in range(k):
        worst = max(worst, abs(cls1.logprob(state, None, t)
                               - full.logprob(state, None, t)))

    # depth-1 hierarchy == flat class softmax
    a = assign_uniform_random(k, 4, rng)
    wc = rng.uniform(-0.1, 0.1, size=(4, n_h))
    ww = rng.uniform(-0.1, 0.1, size=(k, n_h))
    cls = ClassSoftmax(a, wc, ww)
    hier = HierarchicalSoftmax(hierarchy_from_classes(a), [wc.copy()], ww.copy())
    for t in range(k):
        worst = max(worst, abs(hier.logprob(state, None, t)
                               - cls.logprob(state, None, t)))

    # recurrent model with zero recurrence == 2-gram feed-forward model
    rnn = make_model("rnn", seed=2, k=k, m=m, n_h=n_h)
    rnn[0].params.w_rec[:] = 0.0
    fnn = make_model("fnn", seed=3, k=k, m=m, n_h=n_h, n=2)
    fnn[0].params.emb[:] = rnn[0].params.emb
    fnn[0].params.w_in[:] = rnn[0].params.w_in
    fnn[1].w_out[:] = rnn[1].w_out
    st = zero_state(n_h)
    for word in (3, 1, 4, 1, 5):
        y_r, st = rnn_step(*rnn, word, st)
        worst = max(worst, float(np.abs(y_r - fnn_forward(*fnn, [word])).max()))

    # class cache over singleton classes == word cache
    sents = [["a", "b", "a", "b", "c"], ["c", "a"]]
    vocab = build_vocabulary(sents)
    p = RnnParameters.create(vocab.size, m, n_h, make_rng(4))
    singles = ClassAssignment(make_rng(5).permutation(vocab.size),
                              np.arange(vocab.size + 1))
    strat = ClassSoftmax.create(singles, n_h, make_rng(6))
    word_rep = perplexity(RnnCore(p), strat, sents, vocab,
                          cache=CacheConfig(lam=0.5, mode="word"))
    cls_rep = perplexity(RnnCore(p), strat, sents, vocab,
                         cache=CacheConfig(lam=0.5, mode="class"))
    worst = max(worst, abs(word_rep.log2_total - cls_rep.log2_total))

    verdict(3, worst <= 1e-12, f"four equivalences, worst deviation {worst:.2e}")


def test_criterion_04_importance_sampling():
    k = 20
    core, strategy = make_model("fnn", seed=7, energy=True, k=k, m=4, n_h=5, n=3)
    vocab_freqs = make_rng(8).integers(1, 200, size=k)
    proposal = ProposalDistribution(vocab_freqs.astype(float) + 1.0)
    ctx, target = np.array([3, 9]), 11
    exact_cfg = TrainingConfig(block_size=4, min_ess=1e9, max_samples=1)
    estimate, info = importance_sampling_gradient(core, strategy, ctx, target,
                                                  proposal, make_rng(0), exact_cfg)
    assert info.exact
    arrays = model_arrays(core, strategy)
    exact = dense(example_gradient(core, strategy, ctx, *estimate), arrays)
    den = sum(float(np.sum(g * g)) for g in exact.values())

    def median_err(n, trials=20):
        cfg = TrainingConfig(block_size=n, min_ess=1.0, max_samples=10 * n)
        errs = []
        for t in range(trials):
            estimate, si = importance_sampling_gradient(
                core, strategy, ctx, target, proposal, make_rng(500 + t), cfg)
            assert si.n_samples == n
            g = dense(example_gradient(core, strategy, ctx, *estimate), arrays)
            num = sum(float(np.sum((g[x] - exact[x]) ** 2)) for x in exact)
            errs.append(math.sqrt(num / den))
        return float(np.median(errs))

    errs = {n: median_err(n) for n in (10, 100, 1000, 5000)}
    monotone = errs[10] > errs[100] > errs[1000] > errs[5000]
    ess_exact = effective_sample_size(np.full(37, 0.25)) == 37.0
    ok = errs[5000] <= 0.05 and monotone and ess_exact
    verdict(4, ok,
            f"sampled gradient error N=5000: {errs[5000]:.3f} (<=0.05), "
            f"monotone in N: {monotone}, equal-weight ESS exact: {ess_exact}")


def test_criterion_05_reference_corpus_bands():
    root = corpus_root()
    if root is None:
        skipped(5, f"needs brown.txt under ${CORPUS_ROOT_ENV} "
                   "(full-scale training, hours on CPU); run "
                   "`nnlm reproduce 1` to check the bands")
    code = cli_main(["reproduce", "1", "--corpus-root", str(root),
                     "--outdir", str(root / "reproduce")])
    verdict(5, code == 0, "table-1 perplexity bands via `nnlm reproduce 1`")


def test_criterion_06_class_factorization():
    # synthetic throughput check at a realistic vocabulary size
    k, m, n_h = 15000, 100, 200
    sents = [["w%d" % i for i in make_rng(9).integers(3, k - 3, size=12)]
             for _ in range(4)]
    words = [f"w{i}" for i in range(k - 3)]
    vocab = build_vocabulary([words] + sents)
    assert vocab.size >= 15000
    rng = make_rng(10)
    enc = [vocab.encode(s) for s in sents]

    def words_per_s(core, strategy):
        arrays = model_arrays(core, strategy)
        tokens, t0 = 0, time.perf_counter()
        for e in enc:
            logps, grads = sentence_gradients(core, strategy, e)
            update_parameters(arrays, grads, 0.1, 1e-6)
            tokens += len(logps)
        return tokens / (time.perf_counter() - t0)

    full = FullSoftmax.create(vocab.size, n_h, rng)
    fp = RnnParameters.create(vocab.size, m, n_h, rng)
    full_wps = words_per_s(RnnCore(fp), full)
    cp = RnnParameters.create(vocab.size, m, n_h, rng)
    cls = ClassSoftmax.create(assign_uniform_random(vocab.size, 123, rng),
                              n_h, rng)
    class_wps = words_per_s(RnnCore(cp), cls)
    ratio = class_wps / full_wps

    root = corpus_root()
    trend_note = "PPL depth/assignment trends via `nnlm reproduce 2`"
    if root is not None:
        code = cli_main(["reproduce", "2", "--corpus-root", str(root),
                         "--outdir", str(root / "reproduce")])
        verdict(6, ratio >= 1.5 and code == 0,
                f"class training {ratio:.1f}x faster than full softmax "
                f"at k={vocab.size}; {trend_note} passed")
    else:
        verdict(6, ratio >= 1.5,
                f"class training {ratio:.1f}x faster than full softmax at "
                f"k={vocab.size} (corpus-scale {trend_note} skipped: "
                f"${CORPUS_ROOT_ENV} unset)")


def test_criterion_07_reversal():
    root = corpus_root()
    if root is None:
        skipped(7, f"needs brown.txt under ${CORPUS_ROOT_ENV}; run "
                   "`nnlm reproduce 4` for the forward/reversed comparison")
    code = cli_main(["reproduce", "4", "--corpus-root", str(root),
                     "--outdir", str(root / "reproduce")])
    verdict(7, code == 0, "reversed-text PPL within 5% of forward")


def _repetitive_setup():
    sents = ([["press", "the", "red", "button"],
              ["press", "the", "green", "button"]] * 6
             + [["the", "manual", "explains", "the", "button"]] * 4)
    vocab = build_vocabulary(sents)
    return (*make_model("rnn", seed=11, k=vocab.size, m=8, n_h=12), vocab,
            sents)


def test_criterion_08_caching():
    core, strategy, vocab, sents = _repetitive_setup()
    # adapt the model slightly so probabilities are not uniform
    split = CorpusSplit(sents, sents[:2], sents)
    train(core, strategy, split, vocab,
          TrainingConfig(alpha=0.1, max_epochs=3, improve_threshold=1e9,
                         patience=3, seed=12))
    base = perplexity(core, strategy, sents, vocab)
    lam1 = perplexity(core, strategy, sents, vocab, cache=CacheConfig(lam=1.0))
    bit_exact = (lam1.log2_total == base.log2_total
                 and lam1.sentence_log2 == base.sentence_log2)
    sweep = {lam: perplexity(core, strategy, sents, vocab,
                             cache=CacheConfig(lam=lam, length=50)).ppl
             for lam in (0.25, 0.5, 0.75, 0.9)}
    helps = any(ppl < base.ppl for ppl in sweep.values())

    root = corpus_root()
    if root is not None:
        code = cli_main(["reproduce", "3", "--corpus-root", str(root),
                         "--outdir", str(root / "reproduce")])
        verdict(8, bit_exact and helps and code == 0,
                f"lambda=1 bit-exact: {bit_exact}; cache helps on repetitive "
                f"text: {helps}; carryover band via `nnlm reproduce 3` passed")
    else:
        verdict(8, bit_exact and helps,
                f"lambda=1 bit-exact: {bit_exact}; cache lowers PPL on "
                f"repetitive text for some lambda<1: {helps} "
                f"(corpus-scale carryover band skipped: ${CORPUS_ROOT_ENV} unset)")


def test_criterion_09_dynamic_evaluation():
    core, strategy, vocab, sents = _repetitive_setup()
    static = perplexity(core, strategy, sents, vocab)
    frozen = dynamic_evaluate(core, strategy, sents, vocab, alpha_dyn=0.0)
    exact = (frozen.log2_total == static.log2_total
             and frozen.sentence_log2 == static.sentence_log2)

    root = corpus_root()
    if root is not None:
        code = cli_main(["reproduce", "dynamic", "--corpus-root", str(root),
                         "--outdir", str(root / "reproduce")])
        verdict(9, exact and code == 0,
                f"alpha_dyn=0 equals static bit-exactly: {exact}; >=10% "
                f"corpus-scale reduction via `nnlm reproduce dynamic` passed")
    else:
        adapted = dynamic_evaluate(core, strategy, sents, vocab, alpha_dyn=0.2)
        verdict(9, exact and adapted.ppl < static.ppl,
                f"alpha_dyn=0 equals static bit-exactly: {exact}; adaptation "
                f"lowers PPL on repetitive text ({adapted.ppl:.3f} < "
                f"{static.ppl:.3f}) (corpus-scale >=10% check skipped: "
                f"${CORPUS_ROOT_ENV} unset)")


def _domain(prefix, seed, n_sentences):
    """Synthetic topical domain: a noisy word cycle over its own vocabulary."""
    rng = make_rng(seed)
    words = [f"{prefix}{i}" for i in range(30)]
    sents = []
    for _ in range(n_sentences):
        start = int(rng.integers(0, 30))
        length = int(rng.integers(3, 8))
        sent = [(start + j + int(rng.integers(0, 2))) % 30 for j in range(length)]
        sents.append([words[i] for i in sent])
    return sents


def test_criterion_10_cross_domain():
    root = os.environ.get(CORPUS_ROOT_ENV)
    full = (root is not None and (Path(root) / "domain_a.txt").exists()
            and (Path(root) / "domain_b.txt").exists())
    if full:
        from helpers import load_corpus
        from nnlm.corpus import split_corpus
        a_split = split_corpus(load_corpus(Path(root) / "domain_a.txt"),
                               800000, 100000)
        b_split = split_corpus(load_corpus(Path(root) / "domain_b.txt"),
                               800000, 100000)
        a_train, b_train = a_split.train, b_split.train
        a_test = a_split.test
        vocab = build_vocabulary(a_train + b_train, min_count=5)
        cfg = TrainingConfig()
        m, n_h = 100, 200
        scale = "800k/100k/100k tokens from domain_a.txt and domain_b.txt"
    else:
        a_train, a_test = _domain("alpha", 13, 120), _domain("alpha", 14, 30)
        b_train = _domain("beta", 15, 120)
        vocab = build_vocabulary(a_train + b_train)
        cfg = TrainingConfig(alpha=0.2, max_epochs=6, improve_threshold=0.01,
                             patience=2, seed=16)
        m, n_h = 10, 16
        scale = (f"synthetic two-domain proxy; full run needs "
                 f"domain_a.txt/domain_b.txt under ${CORPUS_ROOT_ENV}")

    def fit(train_sents):
        core, strategy = make_model("rnn", seed=17, k=vocab.size, m=m, n_h=n_h)
        valid = train_sents[: max(4, len(train_sents) // 50)]
        train(core, strategy, CorpusSplit(train_sents, valid, []), vocab, cfg)
        return core, strategy

    in_domain = perplexity(*fit(a_train), a_test, vocab).ppl
    out_domain = perplexity(*fit(b_train), a_test, vocab).ppl
    verdict(10, in_domain < out_domain,
            f"in-domain model beats out-of-domain on held-out text "
            f"({in_domain:.1f} < {out_domain:.1f}; {scale})")
