import numpy as np
import pytest

import helpers
from helpers import (dense, dense_reference_epoch, effective_sample_size,
                     example_gradient, fnn_reference, make_model)
from nnlm import training
from nnlm.corpus import CorpusSplit, build_vocabulary
from nnlm.evaluation import perplexity
from nnlm.models import model_arrays
from nnlm.numerics import Gradients, make_rng, softmax
from nnlm.training import (ProposalDistribution, TrainingConfig,
                           clip_gradients, dynamic_evaluate, energy_normalize,
                           importance_sampling_gradient, sentence_gradients,
                           train, train_epoch, update_parameters)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        dict(alpha=0.0), dict(alpha=-1.0), dict(beta=-1e-9),
        dict(block_size=0), dict(mode="antithetic"),
        dict(clip=-5.0), dict(clip=0.0), dict(clip=float("nan")),
        dict(clip=float("inf")), dict(min_ess=float("nan")),
        dict(min_ess=float("inf")), dict(min_ess=0.0), dict(min_ess=-1.0),
        dict(max_samples=0),
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainingConfig(**kw)


class TestUpdate:
    def test_matrix_update_closed_form(self):
        theta = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = np.ones((2, 2))
        expect = (1.0 - 0.01) * theta - 0.1 * g
        update_parameters({"w": theta}, {"w": g}, alpha=0.1, beta=0.01)
        np.testing.assert_allclose(theta, expect, atol=1e-15)

    def test_bias_vectors_skip_weight_decay(self):
        b = np.array([1.0, -1.0])
        update_parameters({"b": b}, {"b": np.zeros(2)}, alpha=0.1, beta=0.5)
        np.testing.assert_array_equal(b, [1.0, -1.0])

    def test_non_finite_gradient_raises(self):
        with pytest.raises(FloatingPointError, match="w"):
            update_parameters({"w": np.ones((1, 1))},
                              {"w": np.array([[np.nan]])}, 0.1, 0.0)

    @pytest.mark.parametrize("beta", [1e-3, 0.0])
    def test_untouched_rows_only_decay(self, beta):
        """Rows a sentence never touched shrink by exactly (1-beta), which
        at beta=0 leaves them bit-identical; touched rows take the step."""
        k = 40
        core, strategy = make_model("rnn", "class", seed=3, k=k, bias=True)
        _, grads = sentence_gradients(core, strategy, np.array([0, 5, 9, 5, 1]))
        arrays = model_arrays(core, strategy)
        before = {n: a.copy() for n, a in arrays.items()}
        update_parameters(arrays, grads, 0.1, beta)
        for name in ("emb", "w_word", "b_word"):
            touched = grads.rows[name]
            untouched = np.setdiff1d(np.arange(k), touched)
            assert len(touched) and len(untouched)
            decay = 1.0 - beta if arrays[name].ndim == 2 else 1.0
            np.testing.assert_array_equal(arrays[name][untouched],
                                          before[name][untouched] * decay)
            np.testing.assert_array_equal(
                arrays[name][touched],
                before[name][touched] * decay - 0.1 * grads[name])


class TestClip:
    def test_small_gradients_untouched(self):
        g = {"a": np.array([0.3, 0.4])}  # norm 0.5
        assert clip_gradients(g, 5.0) is False
        np.testing.assert_array_equal(g["a"], [0.3, 0.4])

    def test_large_gradients_scaled_to_ceiling(self):
        g = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}  # norm 5
        assert clip_gradients(g, 1.0) is True
        total = np.sqrt(sum(np.sum(v * v) for v in g.values()))
        assert total == pytest.approx(1.0)
        # direction preserved
        np.testing.assert_allclose(g["a"], [0.6, 0.0])

    def test_zero_gradient_is_a_no_op(self):
        g = {"a": np.zeros(3)}
        assert clip_gradients(g, 1.0) is False

    def test_non_finite_tensor_named_before_scaling(self):
        g = {"a": np.array([3.0, 4.0]), "b": np.array([[1.0, np.nan]])}
        with pytest.raises(FloatingPointError, match="'b'"):
            clip_gradients(g, 1.0)
        np.testing.assert_array_equal(g["a"], [3.0, 4.0])


class TestFactored:
    """A factored gradient (``Gradients.factors``) is clipped and applied as
    the dense product of its factors would be."""

    @staticmethod
    def grads(direct=True):
        rng = make_rng(40)
        g = Gradients({"b_out": rng.normal(size=40)})
        g.set_factors("w_out", rng.normal(size=(40, 6)), rng.normal(size=(6, 3)))
        if direct:
            g.set_factors("w_direct", rng.normal(size=(40, 6)),
                          rng.normal(size=(6, 5)))
        return g

    @pytest.mark.parametrize("beta", [0.0, 1e-3])
    def test_clip_and_step_match_dense(self, beta, monkeypatch):
        # blocks of 7 rows: five whole blocks and a partial one
        monkeypatch.setattr(training, "FACTOR_BLOCK", 7)
        rng = make_rng(41)
        arrays = {"b_out": rng.normal(size=40),
                  "w_out": rng.normal(size=(40, 3)),
                  "w_direct": rng.normal(size=(40, 5))}
        want = {n: a.copy() for n, a in arrays.items()}
        g = self.grads()
        d = dense(g, arrays)
        assert clip_gradients(g, 1.0) and clip_gradients(d, 1.0)
        for name in d:
            np.testing.assert_allclose(dense(g, arrays)[name], d[name],
                                       rtol=1e-12)
        update_parameters(arrays, g, 0.1, beta)
        update_parameters(want, d, 0.1, beta)
        for name in want:
            np.testing.assert_allclose(arrays[name], want[name], rtol=1e-12)

    @pytest.mark.parametrize("name", ["w_out", "w_direct"])
    def test_overflowing_product_named_before_any_move(self, name):
        """Finite factors whose product overflows raise, naming the tensor,
        before anything is scaled or updated; numpy's own warnings are off,
        as ``nnlm`` runs."""
        g = self.grads()
        g[name][:] *= 1e200
        g.factors[name][:] *= 1e200
        assert np.all(np.isfinite(g[name]))
        before = {n: v.copy() for n, v in g.items()}
        arrays = {"b_out": np.zeros(40), "w_out": np.zeros((40, 3)),
                  "w_direct": np.zeros((40, 5))}
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match=f"'{name}'"):
                clip_gradients(g, 1.0)
            with pytest.raises(FloatingPointError, match=f"'{name}'"):
                update_parameters(arrays, g, 0.1, 1e-3)
        for n, v in g.items():
            assert v.tobytes() == before[n].tobytes(), n
        assert not any(a.any() for a in arrays.values())

    def test_non_finite_factor_named(self):
        g = self.grads(direct=False)
        g.factors["w_out"][2, 1] = np.nan
        with pytest.raises(FloatingPointError, match="'w_out'"):
            clip_gradients(g, 1e9)


class TestEffectiveSampleSize:
    def test_hand_example(self):
        # (2+1+1)^2 / (4+1+1) = 16/6
        assert effective_sample_size([2.0, 1.0, 1.0]) == pytest.approx(16.0 / 6.0)

    def test_uniform_weights_give_n(self):
        assert effective_sample_size(np.full(40, 0.025)) == pytest.approx(40.0)

    def test_degenerate_weights_give_one(self):
        assert effective_sample_size([5.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            effective_sample_size([])
        with pytest.raises(ValueError):
            effective_sample_size([1.0, -0.5])
        with pytest.raises(ValueError):
            effective_sample_size([0.0, 0.0])


class TestProposal:
    def test_normalized(self):
        q = ProposalDistribution([1.0, 3.0])
        np.testing.assert_allclose(q.probs, [0.25, 0.75])

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ProposalDistribution([1.0, 0.0])

    def test_unigram_add_one(self):
        vocab = build_vocabulary([["a", "a", "b"]])
        q = ProposalDistribution.unigram(vocab)
        expect = vocab.frequencies + 1.0
        np.testing.assert_allclose(q.probs, expect / expect.sum())

    @pytest.mark.parametrize("probs", [[1.0, np.nan], [1.0, np.inf],
                                       [1.0, -np.inf], [[1.0, 2.0]], [],
                                       [1e308, 1e308]])
    def test_malformed_rejected(self, probs):
        """What ``Generator.choice`` refused: a NaN or inf would otherwise
        give wrong indices without an error."""
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            ProposalDistribution(np.array(probs, dtype=np.float64))

    @pytest.mark.parametrize("k", [1, 7, 20003])
    @pytest.mark.parametrize("size", [1, 100])
    def test_sample_equals_generator_choice(self, k, size):
        """Inverting the precomputed CDF draws exactly what ``rng.choice``
        with the same probabilities draws, and consumes the same stream."""
        q = ProposalDistribution(make_rng(k).random(k) + 0.01)
        ours, theirs = make_rng(11), make_rng(11)
        for _ in range(5):
            a = q.sample(ours, size)
            b = theirs.choice(k, size, p=q.probs)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert ours.random() == theirs.random()

    def test_sample_reproducible(self):
        q = ProposalDistribution(np.ones(10))
        a = q.sample(make_rng(0), 100)
        b = q.sample(make_rng(0), 100)
        np.testing.assert_array_equal(a, b)

    def test_energy_normalize(self):
        y = make_rng(1).normal(size=8)
        np.testing.assert_allclose(energy_normalize(y), softmax(-y), atol=1e-15)


def energy_fnn(k=12, m=4, n_h=5, seed=0):
    return make_model("fnn", seed=seed, energy=True, k=k, m=m, n_h=n_h, n=3)


class _Exhaustive:
    """Stub proposal whose single block enumerates the whole vocabulary."""

    def __init__(self, k):
        self.probs = np.full(k, 1.0 / k)
        self._k = k

    def sample(self, rng, size):
        assert size == self._k
        return np.arange(self._k)


class TestImportanceSampling:
    def test_exhaustive_enumeration_is_exact(self):
        """One block covering every word with a uniform proposal makes the
        self-normalized weights the exact model distribution, so the sampled
        gradient must match the exact one to rounding."""
        k = 12
        core, strategy = energy_fnn(k=k, seed=2)
        ctx = np.array([3, 7])
        exact_cfg = TrainingConfig(block_size=5, min_ess=1e9, max_samples=1)
        exact, info_e = importance_sampling_gradient(
            core, strategy, ctx, 4, ProposalDistribution(np.ones(k)),
            make_rng(0), exact_cfg)
        assert info_e.exact
        sampled_cfg = TrainingConfig(block_size=k, min_ess=1.0, max_samples=10 * k)
        sampled, info_s = importance_sampling_gradient(
            core, strategy, ctx, 4, _Exhaustive(k), make_rng(0), sampled_cfg)
        assert not info_s.exact and info_s.n_samples == k
        arrays = model_arrays(core, strategy)
        exact = dense(example_gradient(core, strategy, ctx, *exact), arrays)
        sampled = dense(example_gradient(core, strategy, ctx, *sampled), arrays)
        assert set(exact) == set(sampled)
        for name in exact:
            np.testing.assert_allclose(sampled[name], exact[name], atol=1e-10)

    def test_error_shrinks_with_more_samples(self):
        k = 20
        core, strategy = energy_fnn(k=k, seed=3)
        ctx = np.array([1, 2])
        target = 5
        proposal = ProposalDistribution(np.ones(k))
        exact_cfg = TrainingConfig(block_size=5, min_ess=1e9, max_samples=1)
        exact, _ = importance_sampling_gradient(core, strategy, ctx, target,
                                                proposal, make_rng(0), exact_cfg)
        arrays = model_arrays(core, strategy)
        exact = dense(example_gradient(core, strategy, ctx, *exact), arrays)

        def median_error(n, trials=30):
            cfg = TrainingConfig(block_size=n, min_ess=1.0, max_samples=10 * n)
            errs = []
            for t in range(trials):
                g, info = importance_sampling_gradient(
                    core, strategy, ctx, target, proposal, make_rng(1000 + t), cfg)
                assert info.n_samples == n
                g = dense(example_gradient(core, strategy, ctx, *g), arrays)
                num = sum(float(np.sum((g[x] - exact[x]) ** 2)) for x in exact)
                den = sum(float(np.sum(exact[x] ** 2)) for x in exact)
                errs.append(np.sqrt(num / den))
            return float(np.median(errs))

        e10, e100, e1000 = median_error(10), median_error(100), median_error(1000)
        assert e10 > e100 > e1000
        assert e1000 < 0.05

    def test_ess_stopping_rule_draws_extra_blocks(self):
        k = 30
        core, strategy = energy_fnn(k=k, seed=4)
        # a proposal wildly mismatched with the model keeps the effective
        # sample size low, forcing several blocks
        skew = np.ones(k)
        skew[0] = 1e4
        cfg = TrainingConfig(block_size=8, min_ess=6.0, max_samples=400)
        _, info = importance_sampling_gradient(
            core, strategy, [1, 2], 3, ProposalDistribution(skew),
            make_rng(5), cfg)
        assert info.n_samples % 8 == 0
        assert info.exact or info.ess >= 6.0

    def test_sample_budget_falls_back_to_exact(self):
        k = 10
        core, strategy = energy_fnn(k=k, seed=5)
        cfg = TrainingConfig(block_size=4, min_ess=1e9, max_samples=8)
        _, info = importance_sampling_gradient(
            core, strategy, [1, 2], 3, ProposalDistribution(np.ones(k)),
            make_rng(6), cfg)
        assert info.exact and info.n_samples == 8

    def test_requires_energy_softmax(self):
        core, plain = make_model("fnn", seed=7, k=8, m=3, n_h=4, n=3)
        with pytest.raises(ValueError, match="energy"):
            importance_sampling_gradient(core, plain, [1, 2], 3,
                                         ProposalDistribution(np.ones(8)),
                                         make_rng(0), TrainingConfig())

    def test_recurrent_models_refused(self):
        vocab = build_vocabulary([["a", "b"]])
        core, strategy = make_model("rnn", seed=8, energy=True, k=vocab.size,
                                    m=3, n_h=4)
        split = CorpusSplit([["a", "b"]], [["a"]], [])
        cfg = TrainingConfig(mode="importance", max_epochs=1)
        with pytest.raises(ValueError, match="feed-forward"):
            train(core, strategy, split, vocab, cfg)


def reference_importance_sentence(core, strategy, enc, proposal, rng, config):
    """One sentence's sampled gradient the way it was first computed: per
    position, the context's hidden state by a gemv, the estimate, and a
    one-position backward; the dense gradients summed, in the order of the
    per-example tensors.  Returns (dense gradients, the SamplingInfo of
    every position)."""
    arrays = model_arrays(core, strategy)
    total = {}
    inputs, targets = enc[:-1], enc[1:]
    contexts = fnn_reference(core.params, inputs,
                             np.zeros((len(inputs), core.params.n_h)))[0]
    infos = []
    for ctx, target in zip(contexts, targets):
        estimate, info = importance_sampling_gradient(
            core, strategy, ctx, int(target), proposal, rng, config)
        for name, g in dense(example_gradient(core, strategy, ctx, *estimate),
                             arrays).items():
            total[name] = total[name] + g if name in total else g
        infos.append(info)
    return total, infos


class TestImportanceSentence:
    # with these settings the long sentence has positions that stop on the
    # ESS rule and positions that reach the budget and fall back
    CONFIG = TrainingConfig(block_size=4, min_ess=5.0, max_samples=8)

    @pytest.mark.parametrize("toggles,enc", [
        (dict(direct=True, bias=True), [0, 3, 5, 3, 5, 3, 1, 7, 2]),
        (dict(), [0, 3, 5, 3, 5, 3, 1, 7, 2]),
        (dict(direct=True, bias=True), [0, 4]),
    ], ids=["direct-bias", "plain", "one-position"])
    def test_matches_per_position_reference(self, toggles, enc, monkeypatch):
        core, strategy = make_model("fnn", "full", seed=3, k=12, energy=True,
                                    **toggles)
        enc = np.array(enc)
        proposal = ProposalDistribution(np.arange(12, 0, -1.0))
        ref_rng = make_rng(1)
        want, want_infos = reference_importance_sentence(
            core, strategy, enc, proposal, ref_rng, self.CONFIG)

        infos = []

        def recording(*args, **kwargs):
            result = importance_sampling_gradient(*args, **kwargs)
            infos.append(result[1])
            return result

        # the sentence loop must call the module-level name, which the
        # benchmark's tracer wraps
        monkeypatch.setattr(training, "importance_sampling_gradient", recording)
        rng = make_rng(1)
        _, grads = training._importance_sentence(core, strategy, enc, proposal,
                                                 rng, self.CONFIG)
        # the hidden states come from one GEMM here and from a gemv per
        # position in the reference, so they may differ in the last bit
        assert [(i.n_samples, i.exact) for i in infos] == \
            [(i.n_samples, i.exact) for i in want_infos]
        np.testing.assert_allclose([i.ess for i in infos],
                                   [i.ess for i in want_infos], rtol=1e-12)
        if len(enc) > 2:
            assert {info.exact for info in infos} == {False, True}
        assert rng.random() == ref_rng.random()
        assert list(grads) == list(want)    # the clip norm's summation order
        got = dense(grads, model_arrays(core, strategy))
        for name, w in want.items():
            err = float(np.abs(got[name] - w).max())
            assert err <= 1e-12 * float(np.abs(w).max()), (name, err)


def memorizable_setup(arch="rnn", seed=0):
    sents = [["green", "eggs", "and", "ham"], ["one", "fish", "two", "fish"]] * 4
    vocab = build_vocabulary(sents)
    core, strategy = make_model(arch, seed=seed, k=vocab.size, m=8, n_h=16)
    return core, strategy, vocab, CorpusSplit(sents, sents[:2], sents[:2])


class TestTrainEpoch:
    def test_gradient_logps_match_static_scoring(self):
        core, strategy, vocab, _ = memorizable_setup()
        enc = vocab.encode(["green", "eggs"])
        logps, _ = sentence_gradients(core, strategy, enc)
        tape = core.run(enc[:-1])
        static, _, _ = strategy.score_sentence(tape.states, tape.xs, enc[1:])
        assert logps == static.tolist()

    def test_epoch_is_deterministic(self):
        results = []
        for attempt in range(2):
            core, strategy, vocab, split = memorizable_setup(seed=1)
            cfg = TrainingConfig(alpha=0.05, seed=9)
            train_epoch(core, strategy, split.train, split.validation, vocab,
                        cfg, make_rng(cfg.seed), cfg.alpha)
            results.append({n: a.copy()
                            for n, a in model_arrays(core, strategy).items()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_training_reduces_nll(self):
        core, strategy, vocab, split = memorizable_setup(seed=2)
        cfg = TrainingConfig(alpha=0.1, seed=3)
        rng = make_rng(cfg.seed)
        first = train_epoch(core, strategy, split.train, split.validation,
                            vocab, cfg, rng, cfg.alpha, epoch=1)
        fifth = None
        for epoch in range(2, 6):
            fifth = train_epoch(core, strategy, split.train, split.validation,
                                vocab, cfg, rng, cfg.alpha, epoch=epoch)
        assert fifth.train_nll < first.train_nll
        assert fifth.valid_ppl < first.valid_ppl

    def test_memorizes_tiny_corpus(self):
        core, strategy, vocab, split = memorizable_setup(seed=4)
        cfg = TrainingConfig(alpha=0.3, max_epochs=20, improve_threshold=0.01,
                             patience=5, seed=5)
        reports = train(core, strategy, split, vocab, cfg)
        assert min(r.valid_ppl for r in reports) < 3.0


TRAJECTORIES = ([(arch, kind) for arch in ("fnn", "rnn", "lstm")
                 for kind in ("full", "class", "hier")]
                + [("fnn", "importance")])


@pytest.mark.parametrize("arch,kind", TRAJECTORIES,
                         ids=[f"{a}-{k}" for a, k in TRAJECTORIES])
def test_epoch_matches_dense_reference(arch, kind):
    """One epoch of row-compact clip and update lands where the dense
    reference (every row decayed, clipped and updated) lands."""
    sents = [["green", "eggs", "and", "ham"], ["one", "fish", "two", "fish"],
             ["red", "fish", "and", "blue", "fish"], ["sam", "i", "am"]]
    # words no training sentence uses leave rows the epoch never touches
    vocab = build_vocabulary(sents + [[f"spare{i}" for i in range(20)]])
    importance = kind == "importance"
    # with these sampler settings 8 of the 20 positions reach the sample
    # budget and fall back to the exact gradient, so both paths run
    cfg = TrainingConfig(alpha=0.3, beta=1e-3, clip=1.0,
                         mode="importance" if importance else "exact",
                         block_size=4, min_ess=7.5, max_samples=8)
    proposal = ProposalDistribution.unigram(vocab) if importance else None

    def build():
        return make_model(arch, "full" if importance else kind, seed=5,
                          k=vocab.size, bias=True,
                          direct=kind in ("full", "importance"),
                          energy=importance)

    core, strategy = build()
    train_epoch(core, strategy, sents, sents[:1], vocab, cfg, make_rng(4),
                cfg.alpha, 1, proposal)
    ref_core, ref_strategy = build()
    dense_reference_epoch(ref_core, ref_strategy, sents, vocab, cfg,
                          make_rng(4), cfg.alpha, proposal)
    start = model_arrays(*build())
    got = model_arrays(core, strategy)
    for name, want in model_arrays(ref_core, ref_strategy).items():
        assert not np.array_equal(want, start[name]), name
        err = float(np.abs(got[name] - want).max())
        assert err <= 1e-10 * float(np.abs(want).max()), (name, err)


LAZY = [(arch, kind) for arch in ("fnn", "rnn", "lstm")
        for kind in ("full", "class", "hier")]
# "<s>" starts every sentence; other words recur after gaps that depend on
# the shuffled order
STALE_SENTS = [["a", "b", "c"], ["d", "e", "f"], ["g", "h", "a"],
               ["i", "j", "k"], ["b", "l", "m"], ["n", "o", "d"],
               ["p", "q", "r"], ["c", "e", "s"]]


def stale_setup(arch, kind):
    vocab = build_vocabulary(STALE_SENTS)
    cfg = TrainingConfig(alpha=0.3, beta=0.1, clip=5.0)

    def build():
        return make_model(arch, kind, seed=5, k=vocab.size, bias=True)

    return vocab, cfg, build


@pytest.mark.parametrize("arch,kind", LAZY, ids=[f"{a}-{k}" for a, k in LAZY])
def test_lazy_decay_syncs_stale_rows(arch, kind, monkeypatch):
    """With a decay large enough that a missed sync moves a sentence's NLL
    by about 1e-2, every sentence scores as under the eager update, and the
    epoch ends where the eager one does."""
    vocab, cfg, build = stale_setup(arch, kind)
    order = make_rng(4).permutation(len(STALE_SENTS))
    seen, gaps = {}, []
    for step, idx in enumerate(order):
        for word in set(STALE_SENTS[idx]):
            if word in seen:
                gaps.append(step - seen[word])
            seen[word] = step
    assert max(gaps) >= 3    # a word read again after two sentences without it

    got = []
    real = training.sentence_gradients

    def recording(core, strategy, enc):
        logps, grads = real(core, strategy, enc)
        got.append(-sum(logps))
        return logps, grads

    core, strategy = build()
    monkeypatch.setattr(training, "sentence_gradients", recording)
    train_epoch(core, strategy, STALE_SENTS, STALE_SENTS[:1], vocab, cfg,
                make_rng(4), cfg.alpha)
    monkeypatch.undo()
    ref_core, ref_strategy = build()
    want = dense_reference_epoch(ref_core, ref_strategy, STALE_SENTS, vocab,
                                 cfg, make_rng(4), cfg.alpha)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    got_arrays = model_arrays(core, strategy)
    for name, w in model_arrays(ref_core, ref_strategy).items():
        err = float(np.abs(got_arrays[name] - w).max())
        assert err <= 1e-10 * float(np.abs(w).max()), (name, err)


@pytest.mark.parametrize("arch,kind", LAZY, ids=[f"{a}-{k}" for a, k in LAZY])
def test_read_rows_are_gradient_rows(arch, kind):
    """The rows declared before a sentence's forward pass are the rows its
    gradients hold, one-word hierarchy leaves (which k=12 has) included."""
    core, strategy = make_model(arch, kind, seed=2)
    rng = make_rng(3)
    for enc in (np.concatenate([[0], rng.permutation(12)]),
                rng.integers(0, 12, size=6)):
        _, grads = sentence_gradients(core, strategy, enc)
        reads = training.read_rows(strategy, enc)
        assert set(reads) == {"emb", "w_word"} & set(grads.rows)
        for name, rows in reads.items():
            assert len(np.unique(rows)) == len(rows)
            assert set(rows.tolist()) == set(grads.rows[name].tolist()), name


def test_failed_epoch_flushes_pending_decay(monkeypatch):
    """A sentence that raises mid-epoch leaves the parameters where the
    eager update of the sentences before it leaves them."""
    vocab, cfg, build = stale_setup("rnn", "class")

    def failing_after(n, real):
        calls = []

        def gradients(core, strategy, enc):
            calls.append(1)
            if len(calls) > n:
                raise FloatingPointError("injected")
            return real(core, strategy, enc)
        return gradients

    core, strategy = build()
    monkeypatch.setattr(training, "sentence_gradients",
                        failing_after(5, training.sentence_gradients))
    with pytest.raises(FloatingPointError, match="injected"):
        train_epoch(core, strategy, STALE_SENTS, STALE_SENTS[:1], vocab, cfg,
                    make_rng(4), cfg.alpha)
    ref_core, ref_strategy = build()
    monkeypatch.setattr(helpers, "sentence_gradients",
                        failing_after(5, helpers.sentence_gradients))
    with pytest.raises(FloatingPointError, match="injected"):
        dense_reference_epoch(ref_core, ref_strategy, STALE_SENTS, vocab, cfg,
                              make_rng(4), cfg.alpha)
    got = model_arrays(core, strategy)
    for name, w in model_arrays(ref_core, ref_strategy).items():
        err = float(np.abs(got[name] - w).max())
        assert err <= 1e-10 * float(np.abs(w).max()), (name, err)


class TestSchedule:
    def test_stalls_decay_rate_and_stop(self):
        core, strategy, vocab, split = memorizable_setup(seed=6)
        # an unreachable improvement threshold stalls every epoch after the
        # first, so training stops after exactly `patience` further epochs
        cfg = TrainingConfig(alpha=0.1, max_epochs=50, improve_threshold=1e9,
                             patience=3, seed=7)
        reports = train(core, strategy, split, vocab, cfg)
        assert len(reports) == 1 + cfg.patience
        assert reports[-1].alpha == pytest.approx(cfg.alpha * cfg.decay ** 2)

    def test_log_file_written(self, tmp_path):
        core, strategy, vocab, split = memorizable_setup(seed=8)
        cfg = TrainingConfig(alpha=0.1, max_epochs=2, improve_threshold=1e9,
                             patience=1, seed=8)
        path = tmp_path / "epochs.tsv"
        reports = train(core, strategy, split, vocab, cfg, log_path=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("epoch\t")
        assert len(lines) == 1 + len(reports)


class TestDynamicEvaluation:
    def test_zero_rate_bit_identical_to_static(self):
        core, strategy, vocab, split = memorizable_setup(seed=9)
        static = perplexity(core, strategy, split.test, vocab)
        dynamic = dynamic_evaluate(core, strategy, split.test, vocab,
                                   alpha_dyn=0.0)
        assert dynamic.log2_total == static.log2_total
        assert dynamic.sentence_log2 == static.sentence_log2
        assert dynamic.ppl == static.ppl

    def test_adaptation_improves_repeated_text(self):
        core, strategy, vocab, _ = memorizable_setup(seed=10)
        sents = [["green", "eggs", "and", "ham"]] * 6
        rep = dynamic_evaluate(core, strategy, sents, vocab, alpha_dyn=0.2)
        assert rep.sentence_log2[-1] > rep.sentence_log2[0]

    def test_sentence_scored_before_its_own_update(self):
        core, strategy, vocab, _ = memorizable_setup(seed=11)
        sents = [["one", "fish", "two", "fish"]]
        static = perplexity(core, strategy, sents, vocab)
        dynamic = dynamic_evaluate(core, strategy, sents, vocab, alpha_dyn=0.5)
        # a single sentence cannot benefit from its own update
        assert dynamic.log2_total == pytest.approx(static.log2_total, abs=1e-12)

    def test_adaptation_mutates_parameters(self):
        core, strategy, vocab, _ = memorizable_setup(seed=12)
        before = {n: a.copy() for n, a in model_arrays(core, strategy).items()}
        dynamic_evaluate(core, strategy, [["green", "eggs"]], vocab, alpha_dyn=0.1)
        changed = any(not np.array_equal(a, before[n])
                      for n, a in model_arrays(core, strategy).items())
        assert changed
