"""Evaluation-time caches: interpolated unigram/class caches over recent
history with optional recency decay, and cross-sentence state carryover.

Caches never touch model parameters; they only reshape the scoring
distribution.  The recency-weighted cache counts are renormalized over the
vocabulary so the interpolated output stays a probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import HiddenState, zero_state

DECAY_MODES = ("constant", "linear", "exponential")


@dataclass
class CacheConfig:
    lam: float = 0.5          # weight on the model; 1.0 disables the cache
    length: int = 100         # number of recent words kept
    decay: str = "constant"
    gamma: float = 0.9        # exponential decay base
    mode: str = "word"        # "word" or "class"

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"interpolation weight must be in [0,1], got {self.lam}")
        if self.length < 1:
            raise ValueError(f"cache length must be >= 1, got {self.length}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.decay not in DECAY_MODES:
            raise ValueError(f"decay must be one of {DECAY_MODES}, got {self.decay!r}")
        if self.mode not in ("word", "class"):
            raise ValueError(f"cache mode must be word or class, got {self.mode!r}")


class WordCache:
    """Ring of the last <= N indices; age 1 is the most recent entry.

    An int64 buffer of 2N holds the entries newest first in one contiguous
    run, ``view``.  A push writes the slot in front of it; once the run
    reaches the buffer's front, the newest N-1 entries move to its end."""

    def __init__(self, length: int):
        self._length = length
        self._buf = np.zeros(2 * length, dtype=np.int64)
        self._start = 2 * length    # the newest entry's slot
        self._n = 0

    def push(self, index: int):
        if self._start == 0:
            keep = min(self._n, self._length - 1)
            self._start = 2 * self._length - keep
            self._buf[self._start:] = self._buf[:keep]
        self._start -= 1
        self._buf[self._start] = index
        self._n = min(self._n + 1, self._length)

    def clear(self):
        self._n = 0

    def __len__(self):
        return self._n

    @property
    def view(self) -> np.ndarray:
        """The cached indices ordered by age, newest first."""
        return self._buf[self._start:self._start + self._n]

    def entries(self) -> list[int]:
        """Cached indices ordered by age, newest first."""
        return self.view.tolist()


@lru_cache(maxsize=1024)
def _rho(n: int, decay: str, gamma: float) -> tuple[np.ndarray, np.float64]:
    """The recency weights of fill level n and their sum, read-only."""
    j = np.arange(1, n + 1, dtype=np.float64)
    if decay == "constant":
        rho = np.ones(n)
    elif decay == "linear":
        rho = 1.0 - (j - 1.0) / n
    else:
        rho = gamma ** (j - 1.0)
    rho.flags.writeable = False
    return rho, rho.sum()


def cache_probability(cache: WordCache, index: int, config: CacheConfig) -> float:
    """Recency-weighted fraction of cache slots holding ``index``, normalized
    so the cache factor sums to one over the vocabulary.  Empty cache: 0."""
    n = len(cache)
    if n == 0:
        return 0.0
    rho, rho_sum = _rho(n, config.decay, config.gamma)
    return float((rho * (cache.view == index)).sum() / rho_sum)


# A class cache is the same recency statistic over class indices.
class_cache_probability = cache_probability


def interpolate(p_model: float, p_cache: float, lam: float) -> float:
    """Convex combination of the model and cache probabilities."""
    return lam * p_model + (1.0 - lam) * p_cache


def carryover_initial_state(previous: HiddenState | None, document_start: bool,
                            n_h: int, with_cell: bool = False) -> HiddenState:
    """Zero state at a document start, otherwise the stored final state of the
    directly preceding sentence."""
    if document_start or previous is None:
        return zero_state(n_h, with_cell)
    return previous.copy()
