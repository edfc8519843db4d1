import numpy as np
import pytest

from helpers import DequeCache, cache_distribution, deque_cache_probability
from nnlm import caching
from nnlm.caching import (CacheConfig, WordCache, cache_probability,
                          carryover_initial_state, class_cache_probability,
                          interpolate)
from nnlm.models import HiddenState
from nnlm.numerics import make_rng


def filled(entries, length=10):
    cache = WordCache(length)
    for e in entries:
        cache.push(e)
    return cache


class TestConfig:
    def test_defaults_valid(self):
        CacheConfig()

    @pytest.mark.parametrize("kw", [
        dict(lam=-0.1), dict(lam=1.5), dict(length=0),
        dict(decay="quadratic"), dict(mode="sentence"),
        dict(gamma=float("nan")), dict(gamma=7.0), dict(gamma=0.0),
        dict(gamma=-0.5), dict(gamma=float("inf")),
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            CacheConfig(**kw)


class TestWordCache:
    def test_newest_first(self):
        cache = filled([1, 2, 3])
        assert cache.entries() == [3, 2, 1]

    def test_capacity_evicts_oldest(self):
        cache = filled([1, 2, 3, 4], length=3)
        assert cache.entries() == [4, 3, 2]

    def test_clear(self):
        cache = filled([1, 2])
        cache.clear()
        assert len(cache) == 0


class TestRingMatchesDeque:
    @pytest.mark.parametrize("decay", ["constant", "linear", "exponential"])
    @pytest.mark.parametrize("length", [1, 7, 500])
    def test_bit_identical_at_every_fill_level(self, decay, length):
        """The array ring and its probabilities equal the deque reference
        (``==``) before every push, through more than 2N pushes (the run
        reaches the buffer's front and moves back to its end) and a clear()
        mid-stream."""
        cfg = CacheConfig(decay=decay, gamma=0.83, length=length)
        ring, ref = WordCache(length), DequeCache(length)
        rng = make_rng(length)
        stream = rng.zipf(1.6, size=2 * length + 40) % 50
        clear_at = length + 3
        fills = set()
        for step, w in enumerate(stream.tolist()):
            if step == clear_at:
                ring.clear()
                ref.clear()
            fills.add(len(ring))
            assert len(ring) == len(ref)
            assert ring.entries() == ref.entries()
            for index in set(ref.entries()[:5]) | {w, 50}:
                assert (cache_probability(ring, index, cfg)
                        == deque_cache_probability(ref, index, cfg))
            ring.push(w)
            ref.push(w)
        assert fills == set(range(length + 1))

    def test_memo_is_bounded_and_read_only(self):
        rho, total = caching._rho(4, "linear", 0.9)
        assert not rho.flags.writeable
        assert total == rho.sum()
        assert caching._rho.cache_info().maxsize is not None


class TestCacheProbability:
    def test_empty_cache_gives_zero(self):
        assert cache_probability(WordCache(5), 3, CacheConfig()) == 0.0

    def test_constant_decay_is_plain_frequency(self):
        # two of three cached entries are word 7
        cache = filled([7, 2, 7])
        cfg = CacheConfig(decay="constant")
        assert cache_probability(cache, 7, cfg) == pytest.approx(2.0 / 3.0)
        assert cache_probability(cache, 2, cfg) == pytest.approx(1.0 / 3.0)
        assert cache_probability(cache, 9, cfg) == 0.0

    def test_linear_decay_hand_example(self):
        # ages 1 and 2 with weights 1 and 1/2: newest word gets 2/3
        cache = filled([4, 8])  # 8 is newest
        cfg = CacheConfig(decay="linear")
        assert cache_probability(cache, 8, cfg) == pytest.approx(2.0 / 3.0)
        assert cache_probability(cache, 4, cfg) == pytest.approx(1.0 / 3.0)

    def test_exponential_decay_hand_example(self):
        cache = filled([4, 8])
        cfg = CacheConfig(decay="exponential", gamma=0.5)
        # weights 1 and 0.5
        assert cache_probability(cache, 8, cfg) == pytest.approx(2.0 / 3.0)
        assert cache_probability(cache, 4, cfg) == pytest.approx(1.0 / 3.0)

    def test_counting_oracle_random_stream(self):
        """Constant decay must agree with a plain frequency count over the
        retained window for an arbitrary stream."""
        rng = make_rng(0)
        stream = rng.integers(0, 6, size=200)
        cache = WordCache(50)
        cfg = CacheConfig(decay="constant", length=50)
        for w in stream:
            cache.push(int(w))
        window = stream[-50:]
        for w in range(6):
            expect = np.sum(window == w) / 50
            assert cache_probability(cache, w, cfg) == pytest.approx(expect)

    def test_distribution_matches_pointwise_and_sums_to_one(self):
        cache = filled([1, 3, 3, 0])
        for decay in ("constant", "linear", "exponential"):
            cfg = CacheConfig(decay=decay, gamma=0.7)
            dist = cache_distribution(cache, 5, cfg)
            assert dist.sum() == pytest.approx(1.0)
            for w in range(5):
                assert dist[w] == pytest.approx(cache_probability(cache, w, cfg))

    def test_class_cache_is_same_statistic(self):
        assert class_cache_probability is cache_probability


class TestInterpolate:
    def test_lambda_one_is_pure_model(self):
        assert interpolate(0.37, 0.9, 1.0) == 0.37

    def test_lambda_zero_is_pure_cache(self):
        assert interpolate(0.37, 0.9, 0.0) == 0.9

    def test_convexity_preserves_distributions(self):
        rng = make_rng(1)
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        mix = np.array([interpolate(a, b, 0.3) for a, b in zip(p, q)])
        assert mix.sum() == pytest.approx(1.0)
        assert np.all(mix >= 0)


class TestCarryover:
    def test_document_start_resets(self):
        prev = HiddenState(np.ones(4), np.ones(4))
        st = carryover_initial_state(prev, True, 4, with_cell=True)
        np.testing.assert_array_equal(st.s, np.zeros(4))
        np.testing.assert_array_equal(st.c, np.zeros(4))

    def test_mid_document_copies_previous(self):
        prev = HiddenState(np.arange(4.0), np.arange(4.0) + 10)
        st = carryover_initial_state(prev, False, 4, with_cell=True)
        np.testing.assert_array_equal(st.s, prev.s)
        np.testing.assert_array_equal(st.c, prev.c)
        st.s[0] = 99.0
        assert prev.s[0] == 0.0  # handed state is a copy

    def test_no_previous_state_is_zero(self):
        st = carryover_initial_state(None, False, 3)
        np.testing.assert_array_equal(st.s, np.zeros(3))
        assert st.c is None
