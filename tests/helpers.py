"""Shared test utilities: small model factories, finite-difference checks,
the dense reference for the row-compact training step, the per-gate
reference for the stacked LSTM core, the per-position reference for the
feed-forward core, the per-step reference for the simple recurrent core, the
per-example importance-sampling gradient, one-context scoring for the FNN
and one-step scoring for the RNN, the per-token reference for sentence
scoring by the full softmax, the two-branch logistic function, the effective
sample size of importance weights, the corpus reader that runs documents
together, the vocabulary's TSV reader and decoder, the deque cache and its dense distribution, and the gathered
class and hierarchical factors."""

import math
from collections import deque

import numpy as np

from nnlm.caching import CacheConfig
from nnlm.corpus import Vocabulary, load_documents
from nnlm.models import (FnnCore, FnnParameters, FnnTape, HiddenState,
                         LstmCore, LstmParameters, RnnCore, RnnParameters,
                         _check_indices, _fnn_hidden, model_arrays)
from nnlm.numerics import (Gradients, log_softmax, make_rng, sigmoid,
                           sigmoid_deriv, tanh_deriv)
from nnlm.output_layer import (ClassSoftmax, FullSoftmax, HierarchicalSoftmax,
                               assign_uniform_random, hierarchy_uniform_random)
from nnlm.training import _importance_sentence, sentence_gradients

K, M, NH = 12, 5, 7


def make_model(arch, strategy_kind="full", seed=0, direct=False, bias=False,
               peepholes=True, energy=False, k=K, m=M, n_h=NH, n=3):
    """(core, strategy) drawn from ``seed`` in the order ``build_model``
    draws them: a full softmax before the FNN and RNN cores, after the
    LSTM core; a class or hierarchical layer after any core."""
    rng = make_rng(seed)
    n_i = m * (n - 1) if arch == "fnn" else m

    def full_softmax():
        return FullSoftmax.create(k, n_h, rng, n_i, direct, bias, energy)

    strategy = full_softmax() if strategy_kind == "full" and arch != "lstm" else None
    if arch == "fnn":
        core = FnnCore(FnnParameters.create(k, m, n_h, n, rng, bias=bias))
    elif arch == "rnn":
        core = RnnCore(RnnParameters.create(k, m, n_h, rng, bias=bias))
    else:
        core = LstmCore(LstmParameters.create(k, m, n_h, rng, bias=bias,
                                              peepholes=peepholes))
    if strategy is None:
        if strategy_kind == "full":
            strategy = full_softmax()
        elif strategy_kind == "class":
            strategy = ClassSoftmax.create(assign_uniform_random(k, 4, rng),
                                           n_h, rng, bias=bias)
        else:
            strategy = HierarchicalSoftmax.create(
                hierarchy_uniform_random(k, 2, rng), n_h, rng, bias=bias)
    return core, strategy


def dense(grads, arrays):
    """Full-shape copies of ``grads``: row-compact tensors expanded with zero
    rows (``arrays`` gives the shapes), factored ones multiplied out."""
    rows = getattr(grads, "rows", {})
    factors = getattr(grads, "factors", {})
    out = {}
    for name, g in grads.items():
        if name in rows:
            out[name] = np.zeros_like(arrays[name])
            out[name][rows[name]] = g
        elif name in factors:
            out[name] = g @ factors[name]
        else:
            out[name] = np.array(g, copy=True)
    return out


def dense_reference_epoch(core, strategy, sentences, vocab, config, rng,
                          alpha, proposal=None):
    """The sentence loop of ``train_epoch`` with a dense clip and an eager
    update: every gradient expanded to its parameter's shape, every matrix
    decayed and every row updated after every sentence.  It draws from
    ``rng`` in the same order, so it follows the same trajectory.  Returns
    each sentence's NLL in training order."""
    arrays = model_arrays(core, strategy)
    nlls = []
    for idx in rng.permutation(len(sentences)):
        enc = vocab.encode(sentences[idx])
        if config.mode == "importance":
            logps, grads = _importance_sentence(core, strategy, enc, proposal,
                                                rng, config)
        else:
            logps, grads = sentence_gradients(core, strategy, enc)
        nlls.append(-sum(logps))
        g = dense(grads, arrays)
        total = math.sqrt(sum(float(np.sum(v * v)) for v in g.values()))
        if total > config.clip:
            for v in g.values():
                v *= config.clip / total
        for name, v in g.items():
            theta = arrays[name]
            if theta.ndim == 2:
                theta *= 1.0 - config.beta
            theta -= alpha * v
    return nlls


def sentence_nll(core, strategy, enc):
    inputs, targets = enc[:-1], enc[1:]
    tape = core.run(inputs)
    return -sum(strategy.logprob(tape.states[t], tape.xs[t], int(tg))
                for t, tg in enumerate(targets))


def numeric_grads(arrays, loss_fn, h=1e-5):
    out = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * h)
        out[name] = g
    return out


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    assert set(analytic) == set(numeric)
    for name in sorted(analytic):
        a, n = analytic[name], numeric[name]
        tol = atol + rtol * np.maximum(np.abs(a), np.abs(n))
        err = np.abs(a - n)
        assert np.all(err <= tol), (
            f"{name}: worst excess {(err - tol).max():.3g}")


def check_model_gradients(arch, strategy_kind="full", seed=0, **toggles):
    """Analytic sentence gradients vs central finite differences."""
    core, strategy = make_model(arch, strategy_kind, seed=seed, **toggles)
    rng = make_rng(seed + 100)
    enc = rng.integers(0, K, size=5)      # four scored positions
    _, grads = sentence_gradients(core, strategy, enc)
    arrays = model_arrays(core, strategy)
    analytic = dense(grads, arrays)
    numeric = numeric_grads(arrays, lambda: sentence_nll(core, strategy, enc))
    assert_grads_close(analytic, numeric)


GRADIENT_CONFIGS = (
    [("fnn", "full", dict(direct=d, bias=b)) for d in (False, True)
     for b in (False, True)]
    + [("rnn", "full", dict(direct=d, bias=b)) for d in (False, True)
       for b in (False, True)]
    + [("lstm", "full", dict(direct=d, bias=b, peepholes=p))
       for d in (False, True) for b in (False, True) for p in (False, True)]
    + [(arch, kind, {}) for arch in ("fnn", "rnn", "lstm")
       for kind in ("class", "hier")]
    + [("rnn", "class", dict(bias=True))]
)


LSTM_GATES = ("i", "f", "g", "o")    # the stacking order of LstmParameters


def lstm_gate_matrices(p):
    """The stacked LSTM parameters cut into one matrix per gate, named
    ``w_in_<gate>``, ``w_rec_<gate>``, ``w_peep_<gate>`` and ``b_<gate>``;
    the output gate's peephole is ``w_co``."""
    n_h = p.n_h
    out = {}
    for j, gate in enumerate(LSTM_GATES):
        rows = slice(j * n_h, (j + 1) * n_h)
        out[f"w_in_{gate}"] = p.w_x[rows]
        out[f"w_rec_{gate}"] = p.w_h[rows]
        if p.w_peep is not None:
            out[f"w_peep_{gate}"] = p.w_co if gate == "o" else p.w_peep[rows]
        out[f"b_{gate}"] = None if p.b is None else p.b[rows]
    return out


def lstm_reference(p, inputs, h0, d_states, d_inputs=None):
    """Per-gate LSTM forward and backward, written out one step and one gate
    at a time.  Returns (states, cells, grads), the gradients under the
    stacked names and ``emb`` row-compact, for comparison with ``LstmCore``."""
    w = lstm_gate_matrices(p)
    s, c = h0.s.copy(), h0.c.copy()
    steps = []
    for word in inputs:
        x = p.emb[word]

        def pre(gate, tap):
            a = w[f"w_in_{gate}"] @ x + w[f"w_rec_{gate}"] @ s
            if p.w_peep is not None:
                a = a + w[f"w_peep_{gate}"] @ tap
            if p.b is not None:
                a = a + w[f"b_{gate}"]
            return a

        i = sigmoid(pre("i", c))
        f = sigmoid(pre("f", c))
        g = np.tanh(pre("g", c))
        c_new = f * c + i * g
        o = sigmoid(pre("o", c_new))
        s_new = o * np.tanh(c_new)
        steps.append(dict(x=x, s_prev=s, c_prev=c, i=i, f=f, g=g, o=o,
                          c=c_new, s=s_new))
        s, c = s_new, c_new

    gw = {name: np.zeros_like(a) for name, a in w.items() if a is not None}
    rows, slot = np.unique(np.asarray(inputs, dtype=np.int64), return_inverse=True)
    d_emb = np.zeros((len(rows), p.emb.shape[1]))
    ds_carry = np.zeros(p.n_h)
    dc_carry = np.zeros(p.n_h)
    for t in range(len(steps) - 1, -1, -1):
        st = steps[t]
        i, f, g, o, c, c_prev = (st[k] for k in ("i", "f", "g", "o", "c", "c_prev"))
        tc = np.tanh(c)
        ds = d_states[t] + ds_carry
        da = {"o": ds * tc * sigmoid_deriv(o)}
        dc = ds * o * tanh_deriv(tc) + dc_carry
        if p.w_peep is not None:
            dc = dc + w["w_peep_o"].T @ da["o"]
        da["i"] = dc * g * sigmoid_deriv(i)
        da["f"] = dc * c_prev * sigmoid_deriv(f)
        da["g"] = dc * i * tanh_deriv(g)
        dx = np.zeros_like(st["x"])
        ds_carry = np.zeros(p.n_h)
        dc_carry = dc * f
        for gate in ("i", "f", "o", "g"):    # the per-gate code's order
            d = da[gate]
            gw[f"w_in_{gate}"] += np.outer(d, st["x"])
            gw[f"w_rec_{gate}"] += np.outer(d, st["s_prev"])
            if p.w_peep is not None:
                tap = c if gate == "o" else c_prev
                gw[f"w_peep_{gate}"] += np.outer(d, tap)
                if gate != "o":
                    dc_carry = dc_carry + w[f"w_peep_{gate}"].T @ d
            if p.b is not None:
                gw[f"b_{gate}"] += d
            dx += w[f"w_in_{gate}"].T @ d
            ds_carry = ds_carry + w[f"w_rec_{gate}"].T @ d
        if d_inputs is not None and d_inputs[t] is not None:
            dx = dx + d_inputs[t]
        d_emb[slot[t]] += dx

    def stack(prefix, gates=LSTM_GATES):
        return np.concatenate([gw[f"{prefix}{gate}"] for gate in gates])

    grads = Gradients({"w_x": stack("w_in_"), "w_h": stack("w_rec_")})
    if p.w_peep is not None:
        grads["w_peep"] = stack("w_peep_", LSTM_GATES[:3])
        grads["w_co"] = gw["w_peep_o"]
    if p.b is not None:
        grads["b"] = stack("b_")
    grads.set_rows("emb", rows, d_emb)
    return [st["s"] for st in steps], [st["c"] for st in steps], grads


def full_softmax_token_reference(strategy, states, xs, targets):
    """``FullSoftmax.score_sentence(..., grad=True)`` one position at a time:
    a gemv and a log-softmax per token, each parameter gradient accumulated
    as one outer product per token.  Returns (logps, d_states, d_inputs,
    grads); ``d_inputs`` is None without direct connections."""
    grads = {name: np.zeros_like(a) for name, a in strategy.params().items()}
    logps, d_states, d_inputs = [], [], []
    for state, x, target in zip(states, xs, targets):
        y = strategy.scores(state, x)
        lp = log_softmax(-y) if strategy.energy else log_softmax(y)
        dy = np.exp(lp)
        dy[target] -= 1.0
        if strategy.energy:
            dy = -dy
        logps.append(float(lp[target]))
        grads["w_out"] += np.outer(dy, state)
        d_states.append(strategy.w_out.T @ dy)
        if strategy.b_out is not None:
            grads["b_out"] += dy
        if strategy.w_direct is not None:
            grads["w_direct"] += np.outer(dy, x)
            d_inputs.append(strategy.w_direct.T @ dy)
    return (np.array(logps), np.array(d_states),
            np.array(d_inputs) if strategy.w_direct is not None else None, grads)


def sigmoid_reference(x):
    """The logistic function with one division per branch, as
    ``numerics.sigmoid`` was first written."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def fnn_forward(core: FnnCore, strategy: FullSoftmax, context) -> np.ndarray:
    """Score vector over the vocabulary for one (n-1)-word context."""
    p = core.params
    context = np.asarray(context, dtype=np.int64)
    if len(context) != p.n - 1:
        raise ValueError(f"context length {len(context)} != n-1 = {p.n - 1}")
    _check_indices(context, p.k)
    x, h = _fnn_hidden(p, context)
    return strategy.scores(h, x)


def rnn_step(core: RnnCore, strategy: FullSoftmax, word: int, prev: HiddenState):
    """(score vector, new state) for one word given the previous state."""
    tape = core.run([word], h0=prev)
    s = tape.states[0]
    return strategy.scores(s, tape.xs[0]), HiddenState(s.copy())


def fnn_reference(p: FnnParameters, inputs, d_states, d_inputs=None):
    """``FnnCore.run`` and ``FnnCore.backward`` one position at a time, as the
    core was first written: a gemv per window forward, an outer product per
    position and a scatter per window backward, in reverse order.  Returns
    (contexts, xs, states, grads), ``emb`` row-compact."""
    inputs = np.asarray(inputs, dtype=np.int64)
    span = p.n - 1
    contexts, xs, states = [], [], []
    for t in range(len(inputs)):
        lo = t + 1 - span
        ctx = inputs[max(lo, 0): t + 1]
        if lo < 0:
            ctx = np.concatenate([np.full(-lo, inputs[0], dtype=np.int64), ctx])
        x, h = _fnn_hidden(p, ctx)
        contexts.append(ctx)
        xs.append(x)
        states.append(h)
    grads = Gradients({"w_in": np.zeros_like(p.w_in)})
    if p.b_in is not None:
        grads["b_in"] = np.zeros_like(p.b_in)
    words = np.concatenate([np.zeros(0, np.int64), *contexts])
    rows, slot = np.unique(words, return_inverse=True)
    slot = slot.reshape(-1, span)
    d_emb = np.zeros((len(rows), p.m))
    for t in range(len(inputs) - 1, -1, -1):
        da = d_states[t] * tanh_deriv(states[t])
        grads["w_in"] += np.outer(da, xs[t])
        if p.b_in is not None:
            grads["b_in"] += da
        dx = p.w_in.T @ da
        if d_inputs is not None and d_inputs[t] is not None:
            dx = dx + d_inputs[t]
        np.add.at(d_emb, slot[t], dx.reshape(-1, p.m))
    grads.set_rows("emb", rows, d_emb)
    return contexts, xs, states, grads


def rnn_reference(p: RnnParameters, inputs, h0, d_states, d_inputs=None):
    """``RnnCore.run`` and ``RnnCore.backward`` one step at a time, as the core
    was first written: two gemvs per step forward, two outer products and a
    row add into ``emb`` per step backward, in reverse order.  Returns
    (xs, states, grads), ``emb`` row-compact."""
    inputs = np.asarray(inputs, dtype=np.int64)
    s = np.zeros(p.n_h) if h0 is None else np.asarray(h0.s, dtype=np.float64)
    s0 = s.copy()
    xs, states = [], []
    for w in inputs:
        x = p.emb[w]
        a = p.w_in @ x + p.w_rec @ s
        if p.b_in is not None:
            a = a + p.b_in
        s = np.tanh(a)
        xs.append(x)
        states.append(s)
    grads = Gradients({name: np.zeros_like(a)
                       for name, a in p.arrays().items() if name != "emb"})
    rows, slot = np.unique(inputs, return_inverse=True)
    d_emb = np.zeros((len(rows), p.emb.shape[1]))
    carry = np.zeros(p.n_h)
    for t in range(len(d_states) - 1, -1, -1):
        s = states[t]
        s_prev = states[t - 1] if t > 0 else s0
        da = (d_states[t] + carry) * tanh_deriv(s)
        grads["w_in"] += np.outer(da, xs[t])
        grads["w_rec"] += np.outer(da, s_prev)
        if p.b_in is not None:
            grads["b_in"] += da
        dx = p.w_in.T @ da
        if d_inputs is not None and d_inputs[t] is not None:
            dx = dx + d_inputs[t]
        d_emb[slot[t]] += dx
        carry = p.w_rec.T @ da
    grads.set_rows("emb", rows, d_emb)
    return xs, states, grads


def backprop_rows(strategy, rows, dy, state, x):
    """(gradients, d_state, d_x) of a full softmax for dL/dy on the scores of
    ``rows`` alone (distinct word ids); the gradients are row-compact over
    ``rows``."""
    g = Gradients()
    g.set_rows("w_out", rows, np.outer(dy, state))
    d_x = None
    if strategy.w_direct is not None:
        g.set_rows("w_direct", rows, np.outer(dy, x))
        d_x = strategy.w_direct[rows].T @ dy
    if strategy.b_out is not None:
        g.set_rows("b_out", rows, dy)
    return g, strategy.w_out[rows].T @ dy, d_x


def example_gradient(core, strategy, ctx, rows, dy):
    """Every parameter gradient of one FNN example whose output-score
    gradient is ``dy`` on ``rows``, as ``importance_sampling_gradient``
    returns it: the output layer's rows, then one backward step through the
    core.  Row-compact tensors stay so."""
    ctx = np.asarray(ctx, dtype=np.int64)
    x, h = _fnn_hidden(core.params, ctx)
    grads_out, d_h, d_x = backprop_rows(strategy, rows, dy, h, x)
    tape = FnnTape(ctx[None, :], x[None, :], h[None, :])
    grads = core.backward(tape, [d_h], [d_x])
    grads.update(grads_out)
    return grads


def effective_sample_size(weights) -> float:
    """(sum r)^2 / sum r^2; ranges from 1 (degenerate) to N (uniform)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("no weights")
    if np.any(w < 0):
        raise ValueError("importance weights must be non-negative")
    total = w.sum()
    if total == 0:
        raise ValueError("all importance weights are zero")
    return float(total * total / np.sum(w * w))


def load_corpus(path, lowercase=True):
    """A corpus file's sentences, its documents run together; blank lines
    are dropped."""
    return [s for doc in load_documents(path, lowercase=lowercase) for s in doc]


def vocab_from_tsv(text: str) -> Vocabulary:
    """The vocabulary ``Vocabulary.to_tsv`` wrote."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        word, idx, freq = line.split("\t")
        rows.append((int(idx), word, int(freq)))
    rows.sort()
    words = [w for _, w, _ in rows]
    freqs = np.array([f for _, _, f in rows], dtype=np.int64)
    return Vocabulary(words, freqs, {w: i for i, w in enumerate(words)})


def decode(vocab: Vocabulary, indices) -> list[str]:
    """Tokens for the given indices, boundary marks stripped."""
    marks = {vocab.start, vocab.end}
    return [vocab.words[i] for i in indices if i not in marks]


class DequeCache:
    """Ring of the last <= N indices; age 1 is the most recent entry.  The
    cache as a ``deque``, as ``caching.WordCache`` was first written."""

    def __init__(self, length: int):
        self._ring: deque[int] = deque(maxlen=length)

    def push(self, index: int):
        self._ring.appendleft(int(index))

    def clear(self):
        self._ring.clear()

    def __len__(self):
        return len(self._ring)

    def entries(self) -> list[int]:
        """Cached indices ordered by age, newest first."""
        return list(self._ring)


def _rho(n: int, config: CacheConfig) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=np.float64)
    if config.decay == "constant":
        return np.ones(n)
    if config.decay == "linear":
        return 1.0 - (j - 1.0) / n
    return config.gamma ** (j - 1.0)


def deque_cache_probability(cache, index: int, config: CacheConfig) -> float:
    """Recency-weighted fraction of cache slots holding ``index``, normalized
    so the cache factor sums to one over the vocabulary.  Empty cache: 0.
    ``caching.cache_probability`` as first written, one generator step per
    entry."""
    n = len(cache)
    if n == 0:
        return 0.0
    rho = _rho(n, config)
    hits = np.fromiter((1.0 if e == index else 0.0 for e in cache.entries()),
                       dtype=np.float64, count=n)
    return float((rho * hits).sum() / rho.sum())


def cache_distribution(cache, k: int, config: CacheConfig) -> np.ndarray:
    """Dense normalized cache factor over k symbols (zeros when empty)."""
    out = np.zeros(k)
    n = len(cache)
    if n == 0:
        return out
    rho = _rho(n, config)
    np.add.at(out, cache.entries(), rho)
    return out / rho.sum()


class _Gathered:
    """The grouped factors as first written: every factor gathers its weight
    rows (``np.arange`` over all classes or a level's siblings, the word ids
    of a class or leaf) into a copy before its gemv."""

    def _add_word_block(self, group, rows, dy, state):
        block = self._blocks.get(group)
        if block is None:
            self._blocks[group] = [rows, np.outer(dy, state), dy]
        else:
            block[1] += np.outer(dy, state)
            block[2] += dy

    def grads(self) -> Gradients:
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
        group_of, bounds, order, least = self._word_blocks()
        groups = np.unique(group_of[np.asarray(targets, dtype=np.int64)])
        lo, size = bounds[groups], bounds[groups + 1] - bounds[groups]
        lo, size = lo[size >= least], size[size >= least]
        starts = np.repeat(lo - (np.cumsum(size) - size), size)
        return order[starts + np.arange(size.sum())]

    def _factor(self, weights, bias, rows, state, hit, accumulate):
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


class _GatheredClass(_Gathered, ClassSoftmax):
    def _pieces(self, target):
        a = self.assignment
        if not 0 <= target < a.k:
            raise ValueError(f"word {target} has no class assignment")
        c = int(a.class_of[target])
        lo, hi = a.bounds[c], a.bounds[c + 1]
        rows = a.order[lo:hi]
        return c, rows, int(a.position[target] - lo)

    def factor_logprobs(self, state, target):
        c, rows, slot = self._pieces(target)
        lp_c, _ = self._factor(self.w_class, self.b_class,
                               np.arange(self.assignment.r), state, c, False)
        lp_w, _ = self._factor(self.w_word, self.b_word, rows, state, slot, False)
        return lp_c, lp_w

    def logprob(self, state, x, target) -> float:
        lp_c, lp_w = self.factor_logprobs(state, target)
        return lp_c + lp_w

    def logprob_grad(self, state, x, target):
        c, rows, slot = self._pieces(target)
        all_classes = np.arange(self.assignment.r)
        lp_c, (dy_c, ds_c) = self._factor(self.w_class, self.b_class,
                                          all_classes, state, c, True)
        lp_w, (dy_w, ds_w) = self._factor(self.w_word, self.b_word,
                                          rows, state, slot, True)
        self._g["w_class"] += np.outer(dy_c, state)
        if self.b_class is not None:
            self._g["b_class"] += dy_c
        self._add_word_block(c, rows, dy_w, state)
        return lp_c + lp_w, ds_c + ds_w, None


class _GatheredHier(_Gathered, HierarchicalSoftmax):
    def _path(self, target):
        code = self.code
        if not 0 <= target < code.k:
            raise ValueError(f"word {target} has no hierarchical code")
        path = []
        for j in range(code.depth):
            g = int(code.group_of[j][target])
            if j == 0:
                lo, hi = 0, len(code.levels[0]) - 1
            else:
                parent = int(code.group_of[j - 1][target])
                lo = int(code.child_lo[j - 1][parent])
                hi = int(code.child_lo[j - 1][parent + 1])
            path.append((j, np.arange(lo, hi), g - lo))
        leaf = int(code.group_of[-1][target])
        wlo, whi = code.levels[-1][leaf], code.levels[-1][leaf + 1]
        rows = code.order[wlo:whi]
        slot = int(code.position[target] - wlo)
        return path, rows, slot

    def logprob(self, state, x, target) -> float:
        path, rows, slot = self._path(target)
        total = 0.0
        for j, groups, hit in path:
            b = None if self.level_b is None else self.level_b[j]
            lp, _ = self._factor(self.level_w[j], b, groups, state, hit, False)
            total += lp
        if len(rows) > 1:
            lp, _ = self._factor(self.w_word, self.b_word, rows, state, slot, False)
            total += lp
        return total

    def logprob_grad(self, state, x, target):
        path, rows, slot = self._path(target)
        leaf = int(self.code.group_of[-1][target])
        total = 0.0
        d_state = np.zeros_like(state)
        for j, groups, hit in path:
            b = None if self.level_b is None else self.level_b[j]
            lp, (dy, ds) = self._factor(self.level_w[j], b, groups, state, hit, True)
            total += lp
            d_state += ds
            self._g[f"w_level{j + 1}"][groups] += np.outer(dy, state)
            if self.level_b is not None:
                self._g[f"b_level{j + 1}"][groups] += dy
        if len(rows) > 1:
            lp, (dy, ds) = self._factor(self.w_word, self.b_word, rows, state, slot, True)
            total += lp
            d_state += ds
            self._add_word_block(leaf, rows, dy, state)
        return total, d_state, None


def class_reference(strategy):
    """A class or hierarchical layer over the same weights whose factors
    gather their rows into copies, as the layers were first written: the
    reference for the layers that read their weights in place."""
    if isinstance(strategy, ClassSoftmax):
        return _GatheredClass(strategy.assignment, strategy.w_class,
                              strategy.w_word, strategy.b_class, strategy.b_word)
    return _GatheredHier(strategy.code, strategy.level_w, strategy.w_word,
                         strategy.level_b, strategy.b_word)
