"""Output strategies: full softmax, class-factored softmax, and multi-level
hierarchical decomposition, plus the rules that partition the vocabulary.

A partition is a ``HierarchicalCode``: every group contiguous in a stored
word ordering, and a class assignment its depth-1 case.  The class layer is
the depth-1 hierarchical one; its factors read weight rows in place where
they form one run and gather them otherwise, and keep the word-factor
gradients (``w_word``, ``b_word``) row-compact, one block per class or leaf
a sentence hit; the full softmax keeps those of ``w_out`` and ``w_direct``
as their rank-T factors (see ``numerics.Gradients``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, sqrt

import numpy as np

from .numerics import Gradients, init_matrix, log_softmax, log_softmax_rows

Arrays = dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def check_partition(order: np.ndarray, levels: dict[str, np.ndarray]):
    """Raise ValueError, naming the array, unless ``order`` is a permutation
    of 0..k-1 and each of ``levels``, outermost first, is a run of offsets
    non-decreasing from 0 to k that holds every offset of the one before."""
    k = order.size
    if order.ndim != 1 or k and (order.min() < 0 or order.max() >= k
                                 or (np.bincount(order, minlength=k) != 1).any()):
        raise ValueError(f"order is not a permutation of 0..{k - 1}")
    outer = None
    for name, bounds in levels.items():
        if (bounds.ndim != 1 or len(bounds) == 0 or bounds[0] != 0
                or bounds[-1] != k or (np.diff(bounds) < 0).any()):
            raise ValueError(f"{name} does not run non-decreasing from 0 to {k}")
        if outer is not None and not np.isin(levels[outer], bounds).all():
            raise ValueError(f"{name} lacks an offset of {outer}")
        outer = name


def _group_index(bounds: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The group of each word, as ``searchsorted(bounds, position, "right")
    - 1`` gives it on checked bounds, read off the groups' lengths."""
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))[position]


def _positions(order: np.ndarray) -> np.ndarray:
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    return position


@dataclass
class HierarchicalCode:
    """Nested contiguous partition: ``levels[j]`` are the group offsets at
    depth j+1; leaf groups hold the words a final word softmax runs over."""

    order: np.ndarray
    levels: list[np.ndarray]
    position: np.ndarray = field(init=False)
    group_of: np.ndarray = field(init=False)        # (depth, k)
    child_lo: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=np.int64)
        self.levels = [np.asarray(b, dtype=np.int64) for b in self.levels]
        check_partition(self.order, {f"level{j + 1}": b
                                     for j, b in enumerate(self.levels)})
        self.position = _positions(self.order)
        self.group_of = np.stack([_group_index(b, self.position) for b in self.levels])
        # group g at depth j spans child groups
        # [child_lo[j][g], child_lo[j][g+1]) at depth j+1
        self.child_lo = [np.searchsorted(self.levels[j + 1], self.levels[j])
                         for j in range(self.depth - 1)]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def k(self) -> int:
        return len(self.order)

    def group_counts(self) -> list[int]:
        return [len(b) - 1 for b in self.levels]


def default_num_classes(k: int) -> int:
    """sqrt(k) balances the class and word softmax factors."""
    return max(1, ceil(sqrt(k)))


def _even_bounds(total: int, parts: int, offset: int = 0) -> list[int]:
    """offsets splitting [offset, offset+total) into near-equal runs (sizes differ <= 1)."""
    base, extra = divmod(total, parts)
    out = [offset]
    for i in range(parts):
        out.append(out[-1] + base + (1 if i < extra else 0))
    return out


def assign_uniform_random(k: int, r: int, rng) -> HierarchicalCode:
    """Random permutation of the words cut into r near-equal classes."""
    if not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
    return HierarchicalCode(rng.permutation(k), [np.array(_even_bounds(k, r))])


def _assign_by_mass(freq_order: np.ndarray, mass: np.ndarray, r: int) -> HierarchicalCode:
    k = len(freq_order)
    if r > k:
        raise ValueError(f"cannot split {k} words into {r} classes")
    cum = np.cumsum(mass)
    cum /= cum[-1]
    cls = np.minimum(np.ceil(cum * r).astype(np.int64) - 1, r - 1)
    cls = np.maximum(cls, 0)
    bounds = np.searchsorted(cls, np.arange(r + 1), side="left")
    # A single word with a huge mass share can jump the cumulative total past
    # several bin edges at once, leaving lower classes empty.  An empty class
    # still receives class-factor probability that no word can claim, so the
    # word distribution would no longer sum to one.  Nudge the boundaries just
    # enough that every class keeps at least one word.
    for i in range(1, r):
        bounds[i] = min(max(bounds[i], i), k - (r - i))
    return HierarchicalCode(freq_order, [bounds])


def _freq_order(vocab) -> np.ndarray:
    keys = sorted(range(vocab.size), key=lambda i: (-vocab.frequencies[i], vocab.words[i]))
    return np.array(keys, dtype=np.int64)


def assign_by_frequency(vocab, r: int) -> HierarchicalCode:
    """Cumulative-frequency binning: word z joins class i when
    i/r < sum_{j<=z} f_j/F <= (i+1)/r over the frequency-descending order."""
    if r < 1:
        raise ValueError(f"need at least one class, got r={r}")
    order = _freq_order(vocab)
    return _assign_by_mass(order, vocab.frequencies[order].astype(np.float64), r)


def assign_by_sqrt_frequency(vocab, r: int) -> HierarchicalCode:
    """Same binning over sqrt(f_j/F) masses; equalizes class sizes on
    Zipf-like vocabularies."""
    if r < 1:
        raise ValueError(f"need at least one class, got r={r}")
    order = _freq_order(vocab)
    f = vocab.frequencies[order].astype(np.float64)
    total = f.sum()
    return _assign_by_mass(order, np.sqrt(f / total), r)


def hierarchy_uniform_random(k: int, depth: int, rng, branching: int | None = None
                             ) -> HierarchicalCode:
    """Random uniform nested clustering with ``depth`` class levels.

    The default branching factor ceil(k^(1/(depth+1))) balances the class
    levels against the final word-in-leaf softmax; depth=1 then matches the
    sqrt(k) flat-class default.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if branching is None:
        branching = max(2, ceil(k ** (1.0 / (depth + 1))))
    order = rng.permutation(k)
    levels = []
    spans = [(0, k)]
    for _ in range(depth):
        bounds = [0]
        next_spans = []
        for lo, hi in spans:
            parts = min(branching, hi - lo)
            cut = _even_bounds(hi - lo, parts, lo)
            bounds.extend(cut[1:])
            next_spans.extend(zip(cut[:-1], cut[1:]))
        levels.append(np.array(bounds, dtype=np.int64))
        spans = next_spans
    return HierarchicalCode(order, levels)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

class FullSoftmax:
    """Softmax over all k scores; ``energy=True`` uses e^{-y} normalization.

    ``w_out`` scores the hidden state; the optional ``w_direct`` scores the
    core's input (the embeddings, concatenated for the FNN) and ``b_out`` is
    the score bias.
    """

    def __init__(self, w_out, w_direct=None, b_out=None, energy=False):
        self.w_out = w_out
        self.w_direct = w_direct
        self.b_out = b_out
        self.energy = energy
        self.zero_grads()

    @classmethod
    def create(cls, k, n_h, rng, n_i=0, direct=False, bias=False, energy=False):
        return cls(
            init_matrix(k, n_h, rng),
            init_matrix(k, n_i, rng) if direct else None,
            np.zeros(k) if bias else None,
            energy=energy,
        )

    @property
    def k(self):
        return self.w_out.shape[0]

    def params(self) -> Arrays:
        out = {"w_out": self.w_out}
        if self.w_direct is not None:
            out["w_direct"] = self.w_direct
        if self.b_out is not None:
            out["b_out"] = self.b_out
        return out

    def zero_grads(self):
        self._g = Gradients()    # score_sentence replaces it every sentence

    def grads(self) -> Gradients:
        return self._g

    def scores(self, state, x=None) -> np.ndarray:
        y = self.w_out @ state
        if self.w_direct is not None:
            y = y + self.w_direct @ x
        if self.b_out is not None:
            y = y + self.b_out
        return y

    def scores_at(self, words, state, x=None) -> np.ndarray:
        y = self.w_out[words] @ state
        if self.w_direct is not None:
            y = y + self.w_direct[words] @ x
        if self.b_out is not None:
            y = y + self.b_out[words]
        return y

    def _logp(self, y):
        return log_softmax(-y) if self.energy else log_softmax(y)

    def logprob(self, state, x, target) -> float:
        if not 0 <= target < self.k:
            raise ValueError(f"target {target} out of range for k={self.k}")
        return float(self._logp(self.scores(state, x))[target])

    def log_probs(self, state, x=None) -> np.ndarray:
        return self._logp(self.scores(state, x))

    def score_sentence(self, states, xs, targets, grad=False):
        """``(logps, d_states, d_inputs)`` for a sentence whose target t is
        scored from row t of ``states`` (and ``xs``): one GEMM and a row-wise
        log-softmax.  ``grad`` adds the NLL gradients of the states, of the
        inputs (None without direct connections) and, through ``grads()``, of
        the parameters; ``logps`` is bit-identical with and without it."""
        targets = np.asarray(targets, dtype=np.int64)
        T = len(targets)
        if np.any((targets < 0) | (targets >= self.k)):
            raise ValueError(f"target out of range for k={self.k}")
        S = np.asarray(states, dtype=np.float64).reshape(T, self.w_out.shape[1])
        Y = S @ self.w_out.T
        if self.w_direct is not None:
            X = np.asarray(xs, dtype=np.float64).reshape(T, self.w_direct.shape[1])
            Y += X @ self.w_direct.T
        if self.b_out is not None:
            Y += self.b_out
        if self.energy:
            np.negative(Y, out=Y)
        lp = log_softmax_rows(Y)
        hit = (np.arange(T), targets)
        logps = lp[hit]
        if not grad:
            return logps, None, None
        dY = np.exp(lp, out=lp)
        dY[hit] -= 1.0
        if self.energy:
            np.negative(dY, out=dY)
        # dW_out = dY^T S has rank T: keep it as its factors, and give
        # w_direct a left factor of its own, since clipping scales it
        self._g = Gradients()
        self._g.set_factors("w_out", dY.T, S)
        d_x = None
        if self.w_direct is not None:
            self._g.set_factors("w_direct", dY.T.copy(), X)
            d_x = dY @ self.w_direct
        if self.b_out is not None:
            self._g["b_out"] = dY.sum(axis=0)
        return logps, dY @ self.w_out, d_x


class HierarchicalSoftmax:
    """Product of per-level branch softmaxes down to a word-in-leaf softmax
    (Morin & Bengio 2005): the one grouped engine, of which a flat class
    layer is the depth-1 case.

    Every internal node owns its own rows of the level matrix, so node
    parameters are independent blocks conditioned on the path.
    """

    least = 2   # a leaf of fewer words has no word factor

    def __init__(self, code: HierarchicalCode, level_w: list, w_word,
                 level_b: list | None = None, b_word=None):
        self.code = code
        self.level_w = list(level_w)
        self.w_word = w_word
        self.level_b = list(level_b) if level_b is not None else None
        self.b_word = b_word
        self.zero_grads()

    @classmethod
    def create(cls, code, n_h, rng, bias=False):
        level_w = [init_matrix(g, n_h, rng) for g in code.group_counts()]
        level_b = [np.zeros(g) for g in code.group_counts()] if bias else None
        return cls(
            code,
            level_w,
            init_matrix(code.k, n_h, rng),
            level_b,
            np.zeros(code.k) if bias else None,
        )

    @property
    def k(self):
        return self.code.k

    def _names(self, j):
        """The ``params()`` keys of level j's matrix and bias."""
        return f"w_level{j + 1}", f"b_level{j + 1}"

    def params(self) -> Arrays:
        names = [self._names(j) for j in range(self.code.depth)]
        out = {w: a for (w, _), a in zip(names, self.level_w)}
        out["w_word"] = self.w_word
        if self.level_b is not None:
            out.update({b: a for (_, b), a in zip(names, self.level_b)})
        if self.b_word is not None:
            out["b_word"] = self.b_word
        return out

    def zero_grads(self):
        self._g = {name: np.zeros_like(a) for name, a in self.params().items()
                   if name not in ("w_word", "b_word")}
        self._blocks = {}   # leaf -> [word ids, w_word block, b_word block]

    def _add_word_block(self, leaf, dy, state):
        """Accumulate the word-factor gradient of one leaf."""
        block = self._blocks.get(leaf)
        if block is None:
            lo, hi = self.code.levels[-1][leaf:leaf + 2]
            self._blocks[leaf] = [self.code.order[lo:hi], np.outer(dy, state), dy]
        else:
            block[1] += np.outer(dy, state)
            block[2] += dy

    def grads(self) -> Gradients:
        """Dense gradients for the level factors; ``w_word`` and ``b_word``
        row-compact over the words of every leaf hit since ``zero_grads``
        (leaves are disjoint, so the rows are distinct)."""
        out = Gradients(self._g)
        blocks = list(self._blocks.values())
        rows = np.concatenate([np.zeros(0, np.int64)] + [b[0] for b in blocks])
        out.set_rows("w_word", rows, np.concatenate(
            [np.zeros((0, self.w_word.shape[1]))] + [b[1] for b in blocks]))
        if self.b_word is not None:
            out.set_rows("b_word", rows, np.concatenate(
                [np.zeros(0)] + [b[2] for b in blocks]))
        return out

    def word_rows(self, targets) -> np.ndarray:
        """The ``w_word`` rows that scoring ``targets`` reads: every word of
        each leaf with a word factor they fall in, which are the rows
        ``grads()`` then holds."""
        code, bounds = self.code, self.code.levels[-1]
        groups = np.unique(code.group_of[-1][np.asarray(targets, dtype=np.int64)])
        lo, size = bounds[groups], bounds[groups + 1] - bounds[groups]
        lo, size = lo[size >= self.least], size[size >= self.least]
        starts = np.repeat(lo - (np.cumsum(size) - size), size)
        return code.order[starts + np.arange(size.sum())]

    @cached_property
    def _readers(self) -> list:
        """Per leaf, the index that reads its ``w_word`` rows: a slice when
        its word ids form one run, else the ids."""
        bounds = self.code.levels[-1]
        blocks = [self.code.order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        return [slice(int(b[0]), int(b[-1]) + 1) if len(b) and np.all(np.diff(b) == 1)
                else b for b in blocks]

    def _factor(self, weights, bias, rows, state, hit, accumulate):
        """log-softmax factor over `rows` (a slice read in place, or ids that
        gather a copy) of a weight matrix at position `hit`."""
        w = weights[rows]
        y = w @ state
        if bias is not None:
            y = y + bias[rows]
        logp = log_softmax(y)
        if not accumulate:
            return float(logp[hit]), None
        dy = np.exp(logp)
        dy[hit] -= 1.0
        d_state = w.T @ dy
        return float(logp[hit]), (dy, d_state)

    def _path(self, target):
        """([(level, siblings, branch)], leaf, leaf size, slot in the leaf)."""
        code = self.code
        if not 0 <= target < code.k:
            raise ValueError(f"word {target} has no hierarchical code")
        groups = code.group_of[:, target].tolist()
        path = []
        for j, g in enumerate(groups):
            if j == 0:
                lo, hi = 0, len(code.levels[0]) - 1
            else:
                parent = groups[j - 1]
                lo, hi = code.child_lo[j - 1][parent:parent + 2].tolist()
            path.append((j, slice(lo, hi), g - lo))
        leaf = groups[-1]
        wlo, whi = code.levels[-1][leaf:leaf + 2].tolist()
        return path, leaf, whi - wlo, int(code.position[target]) - wlo

    def _walk(self, state, target, accumulate):
        """(path log-prob, word log-prob, d_state); a leaf without a word
        factor gives log 1 = 0.  ``accumulate`` adds the gradients to
        ``grads()``, else d_state is None.  Sums start from their first term,
        so depth 1 gives exactly lp_c + lp_w and ds_c + ds_w."""
        path, leaf, size, slot = self._path(target)
        lp_path = d_state = None
        for j, groups, hit in path:
            b = None if self.level_b is None else self.level_b[j]
            lp, step = self._factor(self.level_w[j], b, groups, state, hit, accumulate)
            lp_path = lp if lp_path is None else lp_path + lp
            if accumulate:
                dy, ds = step
                d_state = ds if d_state is None else d_state + ds
                w_name, b_name = self._names(j)
                self._g[w_name][groups] += np.outer(dy, state)
                if b is not None:
                    self._g[b_name][groups] += dy
        lp_word = 0.0
        if size >= self.least:
            lp_word, step = self._factor(self.w_word, self.b_word, self._readers[leaf],
                                         state, slot, accumulate)
            if accumulate:
                dy, ds = step
                d_state = d_state + ds
                self._add_word_block(leaf, dy, state)
        return lp_path, lp_word, d_state

    def factor_logprobs(self, state, target):
        """(path log-prob, word log-prob) without touching gradients; for a
        class layer, (log P(class|h), log P(word|class,h))."""
        lp_path, lp_word, _ = self._walk(state, target, False)
        return lp_path, lp_word

    def logprob(self, state, x, target) -> float:
        lp_path, lp_word = self.factor_logprobs(state, target)
        return lp_path + lp_word

    def logprob_grad(self, state, x, target):
        lp_path, lp_word, d_state = self._walk(state, target, True)
        return lp_path + lp_word, d_state, None

    def log_probs(self, state, x=None) -> np.ndarray:
        return np.array([self.logprob(state, x, w) for w in range(self.k)])

    def score_sentence(self, states, xs, targets, grad=False):
        """``FullSoftmax.score_sentence`` as a loop over ``logprob`` or, after
        ``zero_grads``, ``logprob_grad``: each position's arithmetic is that
        of single-token scoring.  ``d_inputs`` is always None."""
        targets = [int(w) for w in targets]
        if not grad:
            return np.array([self.logprob(s, None, w)
                             for s, w in zip(states, targets)]), None, None
        self.zero_grads()
        steps = [self.logprob_grad(s, None, w) for s, w in zip(states, targets)]
        return (np.array([lp for lp, _, _ in steps]),
                np.array([ds for _, ds, _ in steps]), None)


class ClassSoftmax(HierarchicalSoftmax):
    """Two-factor softmax (Goodman 2001): class given history, then word
    within its class.  The hierarchy over a depth-1 code, whose level is
    named ``w_class``/``b_class`` and whose one-word classes keep a word
    factor (log 1 = 0) and their ``w_word`` rows."""

    least = 1

    def __init__(self, code: HierarchicalCode, w_class, w_word,
                 b_class=None, b_word=None):
        if code.depth != 1:
            raise ValueError(f"a class layer needs a depth-1 code, got depth {code.depth}")
        super().__init__(code, [w_class], w_word,
                         None if b_class is None else [b_class], b_word)

    @classmethod
    def create(cls, code, n_h, rng, bias=False):
        k, r = code.k, code.group_counts()[0]
        return cls(code, init_matrix(r, n_h, rng), init_matrix(k, n_h, rng),
                   np.zeros(r) if bias else None, np.zeros(k) if bias else None)

    def _names(self, j):
        return "w_class", "b_class"
