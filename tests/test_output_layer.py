import numpy as np
import pytest

from helpers import class_reference, dense, full_softmax_token_reference
from nnlm.corpus import build_vocabulary
from nnlm.numerics import init_matrix, make_rng
from nnlm.output_layer import (ClassAssignment, ClassSoftmax, FullSoftmax,
                               HierarchicalCode, HierarchicalSoftmax,
                               assign_by_frequency,
                               assign_by_sqrt_frequency, assign_uniform_random,
                               default_num_classes, hierarchy_from_classes,
                               hierarchy_uniform_random)


def fake_vocab(frequencies):
    words = [f"w{i}" for i in range(len(frequencies))]
    sents = [[w] * f for w, f in zip(words, frequencies)]
    v = build_vocabulary(sents)
    # rebuild so indices follow the given order, marks excluded for clarity
    order = [v.index[w] for w in words]
    v.words = words
    v.frequencies = np.asarray(frequencies, dtype=np.int64)
    v.index = {w: i for i, w in enumerate(words)}
    assert order  # build_vocabulary already validated the input
    return v


class TestAssignments:
    def test_uniform_random_sizes_near_equal(self):
        a = assign_uniform_random(10, 3, make_rng(0))
        sizes = np.diff(a.bounds)
        assert sizes.sum() == 10 and sizes.max() - sizes.min() <= 1

    def test_uniform_random_is_a_partition(self):
        a = assign_uniform_random(20, 6, make_rng(1))
        assert sorted(a.order.tolist()) == list(range(20))
        for w in range(20):
            c = int(a.class_of[w])
            assert w in a.order[a.bounds[c]:a.bounds[c + 1]]

    def test_uniform_random_deterministic_in_seed(self):
        a = assign_uniform_random(15, 4, make_rng(7))
        b = assign_uniform_random(15, 4, make_rng(7))
        np.testing.assert_array_equal(a.order, b.order)

    def test_frequency_binning_hand_example(self):
        # cumulative shares .5, .8, .9, 1.0 with two bins: the first word
        # alone fills bin one, the rest land in bin two
        v = fake_vocab([5, 3, 1, 1])
        a = assign_by_frequency(v, 2)
        np.testing.assert_array_equal(np.diff(a.bounds), [1, 3])
        assert a.class_of[0] == 0
        assert all(a.class_of[i] == 1 for i in (1, 2, 3))

    def test_group_index_is_the_binary_search_with_empty_groups(self):
        """class_of and group_of, read off the groups' lengths, equal the
        binary search over the offsets, also where a group is empty."""
        order = make_rng(2).permutation(10)
        outer = np.array([0, 0, 4, 4, 10, 10])
        inner = np.array([0, 0, 2, 4, 4, 7, 10, 10])
        a = ClassAssignment(order, outer)
        code = HierarchicalCode(order, [outer, inner])
        for got, bounds in ((a.class_of, outer), (code.group_of[0], outer),
                            (code.group_of[1], inner)):
            want = np.searchsorted(bounds, a.position, side="right") - 1
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_frequency_binning_uniform_freqs_even_split(self):
        v = fake_vocab([2] * 8)
        a = assign_by_frequency(v, 4)
        np.testing.assert_array_equal(np.diff(a.bounds), [2, 2, 2, 2])

    def test_sqrt_binning_more_balanced_on_zipf(self):
        freqs = [max(1, int(1000 / (i + 1))) for i in range(60)]
        v = fake_vocab(freqs)
        r = 6
        raw = np.diff(assign_by_frequency(v, r).bounds)
        damped = np.diff(assign_by_sqrt_frequency(v, r).bounds)
        assert damped.max() / max(damped.min(), 1) <= raw.max() / max(raw.min(), 1)
        assert damped.sum() == raw.sum() == 60

    def test_every_class_nonempty_after_mass_binning(self):
        v = fake_vocab([100, 1, 1, 1, 1, 1])
        a = assign_by_frequency(v, 3)
        assert np.all(np.diff(a.bounds) >= 1)

    def test_default_num_classes(self):
        assert default_num_classes(1) == 1
        assert default_num_classes(16) == 4
        assert default_num_classes(17) == 5
        assert default_num_classes(10000) == 100

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            assign_uniform_random(5, 0, make_rng(0))
        with pytest.raises(ValueError):
            assign_uniform_random(5, 6, make_rng(0))
        with pytest.raises(ValueError):
            assign_by_frequency(fake_vocab([1, 1]), 0)


class TestHierarchy:
    def test_uniform_levels_nest(self):
        code = hierarchy_uniform_random(30, 3, make_rng(2))
        for j in range(code.depth - 1):
            coarse = set(code.levels[j].tolist())
            fine = set(code.levels[j + 1].tolist())
            assert coarse <= fine

    def test_group_sizes_near_equal_per_parent(self):
        code = hierarchy_uniform_random(50, 2, make_rng(3))
        sizes = np.diff(code.levels[-1])
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 2

    def test_from_classes_matches_partition(self):
        a = assign_uniform_random(12, 3, make_rng(5))
        code = hierarchy_from_classes(a)
        assert code.depth == 1
        np.testing.assert_array_equal(code.group_of[0], a.class_of)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            hierarchy_uniform_random(10, 0, make_rng(0))


K, NH = 14, 5


def strategies():
    rng = make_rng(10)
    full = FullSoftmax.create(K, NH, rng, n_i=3, direct=True, bias=True)
    cls = ClassSoftmax.create(assign_uniform_random(K, 4, rng), NH, rng, bias=True)
    hier = HierarchicalSoftmax.create(hierarchy_uniform_random(K, 2, rng),
                                      NH, rng, bias=True)
    return [("full", full), ("class", cls), ("hier", hier)]


class TestNormalization:
    @pytest.mark.parametrize("name,strategy", strategies(),
                             ids=[n for n, _ in strategies()])
    def test_probabilities_sum_to_one(self, name, strategy):
        rng = make_rng(11)
        for trial in range(3):
            state = rng.normal(size=NH)
            x = rng.normal(size=3)
            lp = strategy.log_probs(state, x)
            assert abs(np.exp(lp).sum() - 1.0) <= 1e-10

    def test_energy_convention_reverses_preference(self):
        w = init_matrix(6, NH, make_rng(12))
        state = make_rng(13).normal(size=NH)
        plain = FullSoftmax(w).log_probs(state)
        energy = FullSoftmax(w, energy=True).log_probs(state)
        assert plain.argmax() == energy.argmin()
        assert abs(np.exp(energy).sum() - 1.0) <= 1e-10


class TestEquivalences:
    def test_single_class_equals_full_softmax(self):
        rng = make_rng(14)
        w = init_matrix(K, NH, rng)
        full = FullSoftmax(w)
        one = ClassAssignment(np.arange(K), np.array([0, K]))
        cls = ClassSoftmax(one, init_matrix(1, NH, rng), w.copy())
        state = rng.normal(size=NH)
        for target in range(K):
            assert abs(cls.logprob(state, None, target)
                       - full.logprob(state, None, target)) <= 1e-12

    def test_depth_one_hierarchy_equals_class_softmax(self):
        rng = make_rng(15)
        a = assign_uniform_random(K, 4, rng)
        w_class = init_matrix(4, NH, rng)
        w_word = init_matrix(K, NH, rng)
        cls = ClassSoftmax(a, w_class, w_word)
        hier = HierarchicalSoftmax(hierarchy_from_classes(a),
                                   [w_class.copy()], w_word.copy())
        state = rng.normal(size=NH)
        for target in range(K):
            assert abs(hier.logprob(state, None, target)
                       - cls.logprob(state, None, target)) <= 1e-12

    def test_zero_parameter_binary_tree_is_uniform(self):
        code = hierarchy_uniform_random(8, 2, make_rng(16), branching=2)
        hier = HierarchicalSoftmax.create(code, NH, make_rng(17))
        for w in hier.params().values():
            w[:] = 0.0
        lp = hier.log_probs(np.ones(NH))
        np.testing.assert_allclose(np.exp(lp), np.full(8, 1.0 / 8), atol=1e-12)

    def test_singleton_leaf_skips_word_factor(self):
        # depth chosen so every leaf holds one word: the word factor must
        # contribute nothing rather than a degenerate softmax
        code = hierarchy_uniform_random(8, 3, make_rng(18), branching=2)
        assert np.all(np.diff(code.levels[-1]) == 1)
        hier = HierarchicalSoftmax.create(code, NH, make_rng(19))
        state = make_rng(20).normal(size=NH)
        before = hier.w_word.copy()
        lp = hier.log_probs(state)
        assert abs(np.exp(lp).sum() - 1.0) <= 1e-10
        hier.w_word += 100.0
        np.testing.assert_array_equal(hier.log_probs(state), lp)
        hier.w_word[:] = before


class TestGradientAccumulation:
    def test_zero_grads_resets(self):
        _, cls = strategies()[1]
        state = make_rng(21).normal(size=NH)
        cls.logprob_grad(state, None, 3)
        assert any(np.abs(g).sum() > 0 for g in cls.grads().values())
        cls.zero_grads()
        assert all(np.abs(g).sum() == 0 for g in cls.grads().values())

    def test_logprob_matches_logprob_grad_value(self):
        """A one-token sentence scores each target as ``logprob`` does, to a
        GEMM row's rounding for the full softmax and bit for bit for the
        looping layers."""
        for name, strategy in strategies():
            state = make_rng(22).normal(size=NH)
            x = make_rng(23).normal(size=3)
            for target in (0, K - 1, 5):
                lp = strategy.logprob(state, x, target)
                lg, _, _ = strategy.score_sentence([state], [x], [target],
                                                   grad=True)
                if name == "full":
                    assert lg[0] == pytest.approx(lp, rel=1e-14), name
                else:
                    assert lg[0] == lp, name
            strategy.zero_grads()

    def test_bad_target_rejected(self):
        for name, strategy in strategies():
            with pytest.raises(ValueError):
                strategy.logprob(np.zeros(NH), np.zeros(3), K)


def sentence_inputs(n_i, T, seed):
    rng = make_rng(seed)
    states, xs = rng.normal(size=(T, NH)), rng.normal(size=(T, n_i))
    targets = [5] if T == 1 else [0, K - 1, 5, 5, 3, 0, 5, 9, K - 1, 2, 5, 0][:T]
    return states, xs, targets


class TestScoreSentence:
    @pytest.mark.parametrize("T", [1, 12])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("direct", [False, True])
    @pytest.mark.parametrize("energy", [False, True])
    def test_full_matches_token_reference(self, energy, direct, bias, T):
        full = FullSoftmax.create(K, NH, make_rng(30), n_i=3, direct=direct,
                                  bias=bias, energy=energy)
        if bias:
            full.b_out[:] = make_rng(31).normal(size=K)
        states, xs, targets = sentence_inputs(3, T, 32)
        logps, d_states, d_inputs = full.score_sentence(states, xs, targets,
                                                        grad=True)
        ref = full_softmax_token_reference(full, states, xs, targets)
        close = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(logps, ref[0], **close)
        np.testing.assert_allclose(d_states, ref[1], **close)
        if direct:
            np.testing.assert_allclose(d_inputs, ref[2], **close)
        else:
            assert d_inputs is None and ref[2] is None
        grads = dense(full.grads(), full.params())
        assert set(grads) == set(ref[3])
        for name, g in ref[3].items():
            np.testing.assert_allclose(grads[name], g, **close)

    @pytest.mark.parametrize("name,strategy", strategies(),
                             ids=[n for n, _ in strategies()])
    def test_out_of_range_target_raises(self, name, strategy):
        states, xs, _ = sentence_inputs(3, 2, 33)
        for bad in (K, -1):
            with pytest.raises(ValueError):
                strategy.score_sentence(states, xs, [1, bad])

    @pytest.mark.parametrize("name,strategy", strategies(),
                             ids=[n for n, _ in strategies()])
    def test_grad_and_static_logps_bit_identical(self, name, strategy):
        states, xs, targets = sentence_inputs(3, 12, 34)
        static, d_states, d_inputs = strategy.score_sentence(states, xs, targets)
        assert d_states is None and d_inputs is None
        trained, d_states, _ = strategy.score_sentence(states, xs, targets,
                                                       grad=True)
        assert static.tobytes() == trained.tobytes()
        assert d_states.shape == (12, NH)

    @pytest.mark.parametrize("name,strategy", strategies()[1:],
                             ids=[n for n, _ in strategies()[1:]])
    def test_grouped_equals_token_loop(self, name, strategy):
        states, xs, targets = sentence_inputs(3, 12, 35)
        strategy.score_sentence(states[::-1], xs, targets, grad=True)
        logps, d_states, d_inputs = strategy.score_sentence(states, xs, targets,
                                                            grad=True)
        got = strategy.grads()
        strategy.zero_grads()
        steps = [strategy.logprob_grad(s, x, w)
                 for s, x, w in zip(states, xs, targets)]
        want = strategy.grads()
        assert d_inputs is None
        assert logps.tobytes() == np.array([lp for lp, _, _ in steps]).tobytes()
        assert d_states.tobytes() == np.array([ds for _, ds, _ in steps]).tobytes()
        assert set(got) == set(want) and got.rows.keys() == want.rows.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key
        for key in want.rows:
            assert got.rows[key].tobytes() == want.rows[key].tobytes(), key
        static = [strategy.logprob(s, x, w) for s, x, w in zip(states, xs, targets)]
        assert strategy.score_sentence(states, xs, targets)[0].tolist() == static


def zipf_vocab(seed=3, n_words=60, n_sents=80):
    """A vocabulary with its three marks, over Zipf-like sentences."""
    rng = make_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    p = 1.0 / np.arange(1, n_words + 1)
    p /= p.sum()
    return build_vocabulary([
        [words[i] for i in rng.choice(n_words, size=int(rng.integers(2, 12)), p=p)]
        for _ in range(n_sents)])


def in_place_layers():
    """(name, layer) over a vocabulary with marks: sqrt-frequency classes and
    a depth-1 hierarchy over them (mostly runs of word ids, so slices), a
    uniform random assignment and a depth-3 random hierarchy with one-word
    leaves (gathers), and random classes of which three hold one word (whose
    word factor and ``w_word`` rows a class layer keeps), each with and
    without biases, at n_h = 13."""
    vocab = zipf_vocab()
    k = vocab.size
    out = []
    for bias in (False, True):
        rng = make_rng(40 + bias)
        sqrt = assign_by_sqrt_frequency(vocab, 8)
        layers = {
            "sqrt_freq": ClassSoftmax.create(sqrt, 13, rng, bias=bias),
            "uniform": ClassSoftmax.create(assign_uniform_random(k, 7, rng), 13,
                                           rng, bias=bias),
            "hier_depth1": HierarchicalSoftmax.create(hierarchy_from_classes(sqrt),
                                                      13, rng, bias=bias),
            "hier_depth3": HierarchicalSoftmax.create(
                hierarchy_uniform_random(k, 3, rng, branching=4), 13, rng,
                bias=bias),
            "one_word_classes": ClassSoftmax.create(
                ClassAssignment(rng.permutation(k), np.array([0, 1, 2, 9, 10, k])),
                13, rng, bias=bias),
        }
        for name, layer in layers.items():
            for key, a in layer.params().items():
                if key.startswith("b_"):
                    a[:] = rng.normal(size=a.shape)
            out.append((f"{name}-{'bias' if bias else 'nobias'}", layer))
    return out


IN_PLACE = dict(in_place_layers())


class TestInPlaceReads:
    """Factors that read their weight rows in place score, differentiate and
    report rows bit for bit as the gathered factors they replaced."""

    def test_sqrt_frequency_layer_has_slice_and_gather_blocks(self):
        kinds = {type(r) for r in IN_PLACE["sqrt_freq-nobias"]._readers}
        assert kinds == {slice, np.ndarray}
        depth3 = IN_PLACE["hier_depth3-nobias"]
        assert 1 in np.diff(depth3.code.levels[-1])    # a leaf without word factor

    @pytest.mark.parametrize("name,layer", IN_PLACE.items(), ids=list(IN_PLACE))
    def test_matches_gathered_reference(self, name, layer):
        ref = class_reference(layer)
        k = layer.k
        rng = make_rng(50)
        targets = np.concatenate([rng.permutation(k), rng.integers(0, k, size=30)])
        states = rng.normal(size=(len(targets), 13))
        for s, w in zip(states, targets.tolist()):
            if isinstance(layer, ClassSoftmax):
                assert layer.factor_logprobs(s, w) == ref.factor_logprobs(s, w)
            assert layer.logprob(s, None, w) == ref.logprob(s, None, w)
        layer.zero_grads()
        ref.zero_grads()
        for s, w in zip(states, targets.tolist()):
            lp, ds, _ = layer.logprob_grad(s, None, w)
            lp_ref, ds_ref, _ = ref.logprob_grad(s, None, w)
            assert lp == lp_ref
            assert ds.tobytes() == ds_ref.tobytes()
        got, want = layer.grads(), ref.grads()
        assert list(got) == list(want) and got.rows.keys() == want.rows.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key
        for key in want.rows:
            assert got.rows[key].tobytes() == want.rows[key].tobytes(), key
        few = targets[:9]
        assert layer.word_rows(few).tobytes() == ref.word_rows(few).tobytes()
