"""Output strategies: full softmax, class-factored softmax, and multi-level
hierarchical decomposition, plus the rules that partition the vocabulary.

A partition is a ``HierarchicalCode``: every group contiguous in a stored
word ordering, and a class assignment its depth-1 case.  The class layer is
the depth-1 hierarchical one.  Every strategy scores a whole sentence at
once and keeps its word-indexed gradients as rank-T factors (see
``numerics.Gradients``): the full softmax those of ``w_out`` and
``w_direct``, the grouped one that of ``w_word``, row-compact over the
leaves a sentence hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, sqrt

import numpy as np

# nothing here calls log_softmax any more, but bench/tracer.py counts the
# calls made through output_layer.log_softmax, so the name stays
from .numerics import Gradients, init_matrix, log_softmax, log_softmax_rows  # noqa: F401

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
        self.position = np.empty(self.k, dtype=np.int64)
        self.position[self.order] = np.arange(self.k)
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
    if r < 1:
        raise ValueError(f"need at least one class, got r={r}")
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
    order = _freq_order(vocab)
    return _assign_by_mass(order, vocab.frequencies[order].astype(np.float64), r)


def assign_by_sqrt_frequency(vocab, r: int) -> HierarchicalCode:
    """Same binning over sqrt(f_j/F) masses; equalizes class sizes on
    Zipf-like vocabularies."""
    order = _freq_order(vocab)
    f = vocab.frequencies[order].astype(np.float64)
    return _assign_by_mass(order, np.sqrt(f / f.sum()), r)


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
    layer is the depth-1 case.  Every internal node owns its own rows of
    the level matrix, so node parameters are independent blocks conditioned
    on the path.  A sentence is scored at once: the top level by one GEMM; a
    deeper level, and the leaves of at most ``NARROW`` words, by one batched
    product over each position's gathered sibling rows, padded with scores
    of -inf; a wider leaf by one GEMM over its positions, reading its
    ``w_word`` rows in place where their ids form one run."""

    least = 2   # a leaf of fewer words has no word factor
    # the widest leaf scored by the padded gather: on class layers at
    # k=40003, n_h=200, it matched or beat one GEMM per leaf up to leaves of
    # 64 words and drew level near 100
    NARROW = 64

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
        return cls(code, level_w, init_matrix(code.k, n_h, rng), level_b,
                   np.zeros(code.k) if bias else None)

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
        self._g = Gradients()    # logprob_grad fills it every sentence

    def grads(self) -> Gradients:
        """Dense level gradients; ``w_word`` (factored) and ``b_word``
        row-compact over the words of each leaf hit, in the order first hit."""
        return self._g

    def _word_leaves(self, targets):
        """The leaves with a word factor that ``targets`` fall in, in the
        order first hit, and each target's index among them (-1 for none)."""
        leaf = self.code.group_of[-1][targets]
        has = np.diff(self.code.levels[-1])[leaf] >= self.least
        leaves, first, inv = np.unique(leaf[has], return_index=True,
                                       return_inverse=True)
        block = np.full(len(leaf), -1)
        block[has] = np.argsort(np.argsort(first))[inv]
        return leaves[np.argsort(first)], block

    def _rows(self, leaves) -> np.ndarray:
        """The word ids of ``leaves``, leaf after leaf."""
        bounds = self.code.levels[-1]
        lo, size = bounds[leaves], bounds[leaves + 1] - bounds[leaves]
        starts = np.repeat(lo - (np.cumsum(size) - size), size)
        return self.code.order[starts + np.arange(size.sum())]

    def word_rows(self, targets) -> np.ndarray:
        """The ``w_word`` rows that scoring ``targets`` reads, leaf by leaf
        id; ``grads()`` then holds the same rows, leaves in first-hit order."""
        leaves, _ = self._word_leaves(np.asarray(targets, dtype=np.int64))
        return self._rows(np.sort(leaves))

    @cached_property
    def _readers(self) -> list:
        """Per leaf, a slice reading its ``w_word`` rows, or their ids."""
        bounds = self.code.levels[-1]
        blocks = [self.code.order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        return [slice(int(b[0]), int(b[-1]) + 1) if len(b) and np.all(np.diff(b) == 1)
                else b for b in blocks]

    def _score(self, states, targets, grad):
        """(path log-probs, word log-probs, d_states) of a sentence; a leaf
        without a word factor gives log 1 = 0.  ``grad`` puts the parameter
        gradients in ``grads()``, else d_states is None."""
        code = self.code
        targets = np.asarray(targets, dtype=np.int64)
        if np.any((targets < 0) | (targets >= code.k)):
            raise ValueError(f"target out of range for k={code.k}")
        T = len(targets)
        S = np.asarray(states, dtype=np.float64).reshape(T, self.w_word.shape[1])
        lp_path = d_S = None
        for j, w in enumerate(self.level_w):
            b = None if self.level_b is None else self.level_b[j]
            hit, idx, mask = code.group_of[j][targets], slice(None), None
            if j:
                parent = code.group_of[j - 1][targets]
                lo = code.child_lo[j - 1][parent]
                idx, mask = _padded(lo, code.child_lo[j - 1][parent + 1] - lo)
                hit = hit - lo
            lp, dY, dS = _factor(w, b, S, hit, grad, idx, mask)
            lp_path = lp if lp_path is None else lp_path + lp
            if grad:
                d_S = dS if d_S is None else d_S + dS
                M = dY.T if j == 0 else np.zeros((len(w), T))
                if j:
                    M[idx[mask], np.nonzero(mask)[0]] = dY[mask]
                w_name, b_name = self._names(j)
                self._g[w_name] = M @ S
                if b is not None:
                    self._g[b_name] = M.sum(axis=1)

        bounds = code.levels[-1]
        leaf = code.group_of[-1][targets]
        lo, size = bounds[leaf], bounds[leaf + 1] - bounds[leaf]
        slot = code.position[targets] - lo
        leaves, block = self._word_leaves(targets)
        sizes = bounds[leaves + 1] - bounds[leaves]
        offs = np.cumsum(sizes) - sizes
        lp_word = np.zeros(T)
        L = np.zeros((sizes.sum(), T)) if grad else None
        narrow = np.flatnonzero((block >= 0) & (size <= self.NARROW))
        wide = np.flatnonzero((block >= 0) & (size > self.NARROW))
        if len(narrow):
            at, mask = _padded(lo[narrow], size[narrow])
            lp, dY, dS = _factor(self.w_word, self.b_word, S[narrow],
                                 slot[narrow], grad, code.order[at], mask)
            lp_word[narrow] = lp
            if grad:
                d_S[narrow] += dS
                at += (offs[block[narrow]] - lo[narrow])[:, None]
                L[at[mask], narrow[np.nonzero(mask)[0]]] = dY[mask]
        for i in np.unique(block[wide]).tolist():
            P = wide[block[wide] == i]
            lp, dY, dS = _factor(self.w_word, self.b_word, S[P], slot[P], grad,
                                 self._readers[leaves[i]])
            lp_word[P] = lp
            if grad:
                d_S[P] += dS
                L[offs[i]:offs[i] + sizes[i], P] = dY.T
        if grad:
            # dW_word = L S has a block of rows per leaf: keep its factors
            rows = self._rows(leaves)
            self._g.set_factors("w_word", L, S, rows)
            if self.b_word is not None:
                self._g.set_rows("b_word", rows, L.sum(axis=1))
        return lp_path, lp_word, d_S

    def factor_logprobs(self, states, targets):
        """(path, word) log-probs of a sentence, target t scored from row t
        of ``states``; for a class layer, log P(class|h), log P(word|class,h)."""
        return self._score(states, targets, False)[:2]

    def logprob_grad(self, states, targets):
        """(log-probs, d_states) of a sentence, its parameter gradients put
        in ``grads()``; run after ``zero_grads``."""
        lp_path, lp_word, d_states = self._score(states, targets, True)
        return lp_path + lp_word, d_states

    def score_sentence(self, states, xs, targets, grad=False):
        """``FullSoftmax.score_sentence`` through ``factor_logprobs`` or
        ``logprob_grad``, with the same ``logps`` bits; no ``d_inputs``."""
        if not grad:
            lp_path, lp_word = self.factor_logprobs(states, targets)
            return lp_path + lp_word, None, None
        self.zero_grads()
        return (*self.logprob_grad(states, targets), None)


def _padded(lo, width):
    """Per row, the indices lo, lo+1, ... of ``width`` entries, padded to
    the widest with lo, and the mask of the real entries."""
    a = np.arange(width.max())
    mask = a < width[:, None]
    return np.where(mask, lo[:, None] + a, lo[:, None]), mask


def _factor(w, b, S, slot, grad, rows=slice(None), mask=None):
    """(log-prob of ``slot``, dL/dscores, d_states; the last two None
    without ``grad``) of a log-softmax per row of ``S`` over ``rows`` of
    ``w`` (and ``b``): the same rows for every position or, with ``mask``,
    a padded row of them per position, scored -inf where not ``mask``."""
    w = w[rows]
    Y = S @ w.T if mask is None else np.matmul(w, S[:, :, None])[:, :, 0]
    if b is not None:
        Y += b[rows]
    if mask is not None:
        Y[~mask] = -np.inf
    log_softmax_rows(Y)
    hit = (np.arange(len(Y)), slot)
    lp = Y[hit]
    if not grad:
        return lp, None, None
    dY = np.exp(Y, out=Y)
    dY[hit] -= 1.0
    return lp, dY, dY @ w if mask is None else np.matmul(dY[:, None, :], w)[:, 0, :]


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
