"""Feed-forward, recurrent, and LSTM language-model cores.

Every core runs a whole sentence forward while recording a tape, then
backpropagates output-side gradients exactly through every step — no
truncation.  Output scoring (softmax and its factored variants) lives in
``output_layer``; the optional score-side weights (``w_out``, ``w_direct``,
``b_out``) are kept on the parameter objects so a plain full-softmax model
is self-contained.  The embedding gradient ``emb`` is row-compact (see
``numerics.Gradients``): it holds one row per distinct input word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Gradients, init_matrix, sigmoid, sigmoid_deriv, tanh_deriv

Arrays = dict[str, np.ndarray]


@dataclass
class HiddenState:
    s: np.ndarray
    c: np.ndarray | None = None

    def copy(self) -> "HiddenState":
        return HiddenState(self.s.copy(), None if self.c is None else self.c.copy())


def zero_state(n_h: int, with_cell: bool = False) -> HiddenState:
    return HiddenState(np.zeros(n_h), np.zeros(n_h) if with_cell else None)


def _maybe_output(k, n_h, n_i, rng, direct, bias, output):
    if not output:
        return None, None, None
    w_out = init_matrix(k, n_h, rng)
    w_direct = init_matrix(k, n_i, rng) if direct else None
    b_out = np.zeros(k) if bias else None
    return w_out, w_direct, b_out


def _check_indices(indices: np.ndarray, k: int):
    if len(indices) and (indices.min() < 0 or indices.max() >= k):
        raise ValueError(f"word index out of range for vocabulary of size {k}")


def _zero_grads(p) -> Gradients:
    """Zero gradients for every core array but ``emb``, which the backward
    pass stores row-compact."""
    return Gradients({name: np.zeros_like(a)
                      for name, a in p.core_arrays().items() if name != "emb"})


# ---------------------------------------------------------------------------
# Feed-forward core
# ---------------------------------------------------------------------------

@dataclass
class FnnParameters:
    """n-gram feed-forward model: hidden = tanh(w_in . concat(embeddings) + b_in)."""

    emb: np.ndarray                     # k x m word feature vectors
    w_in: np.ndarray                    # n_h x (m * (n - 1))
    n: int
    b_in: np.ndarray | None = None
    w_out: np.ndarray | None = None     # k x n_h
    w_direct: np.ndarray | None = None  # k x (m * (n - 1))
    b_out: np.ndarray | None = None

    @classmethod
    def create(cls, k, m, n_h, n, rng, direct=False, bias=False, output=True):
        if n < 2:
            raise ValueError(f"context order n must be >= 2, got {n}")
        n_i = m * (n - 1)
        w_out, w_direct, b_out = _maybe_output(k, n_h, n_i, rng, direct, bias, output)
        return cls(
            emb=init_matrix(k, m, rng),
            w_in=init_matrix(n_h, n_i, rng),
            n=n,
            b_in=np.zeros(n_h) if bias else None,
            w_out=w_out,
            w_direct=w_direct,
            b_out=b_out,
        )

    @property
    def k(self):
        return self.emb.shape[0]

    @property
    def m(self):
        return self.emb.shape[1]

    @property
    def n_h(self):
        return self.w_in.shape[0]

    def core_arrays(self) -> Arrays:
        out = {"emb": self.emb, "w_in": self.w_in}
        if self.b_in is not None:
            out["b_in"] = self.b_in
        return out

    def arrays(self) -> Arrays:
        out = self.core_arrays()
        for name in ("w_out", "w_direct", "b_out"):
            a = getattr(self, name)
            if a is not None:
                out[name] = a
        return out


@dataclass
class FnnTape:
    contexts: list[np.ndarray]
    xs: list[np.ndarray]
    states: list[np.ndarray]

    @property
    def final_state(self) -> HiddenState:
        return HiddenState(self.states[-1].copy())


def _fnn_hidden(p: FnnParameters, context: np.ndarray):
    x = p.emb[context].reshape(-1)
    a = p.w_in @ x
    if p.b_in is not None:
        a = a + p.b_in
    return x, np.tanh(a)


class FnnCore:
    def __init__(self, params: FnnParameters):
        self.params = params

    def run(self, inputs, h0: HiddenState | None = None) -> FnnTape:
        """One hidden state per input position; the context window for position
        t is the last n-1 of ``inputs[:t+1]``, left-padded with the first token
        (the sentence-start mark for encoded sentences)."""
        p = self.params
        inputs = np.asarray(inputs, dtype=np.int64)
        _check_indices(inputs, p.k)
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
        return FnnTape(contexts, xs, states)

    def backward(self, tape: FnnTape, d_states, d_inputs=None) -> Gradients:
        p = self.params
        if len(d_states) != len(tape.states):
            raise ValueError(
                f"tape has {len(tape.states)} steps but got {len(d_states)} gradients"
            )
        g = _zero_grads(p)
        m = p.m
        words = np.concatenate([np.zeros(0, np.int64), *tape.contexts])
        rows, slot = np.unique(words, return_inverse=True)
        slot = slot.reshape(-1, p.n - 1)
        d_emb = np.zeros((len(rows), m))
        for t in range(len(d_states) - 1, -1, -1):
            h = tape.states[t]
            da = d_states[t] * tanh_deriv(h)
            g["w_in"] += np.outer(da, tape.xs[t])
            if p.b_in is not None:
                g["b_in"] += da
            dx = p.w_in.T @ da
            if d_inputs is not None and d_inputs[t] is not None:
                dx = dx + d_inputs[t]
            np.add.at(d_emb, slot[t], dx.reshape(-1, m))
        g.set_rows("emb", rows, d_emb)
        return g


def fnn_forward(params: FnnParameters, context) -> np.ndarray:
    """Score vector over the vocabulary for one (n-1)-word context."""
    context = np.asarray(context, dtype=np.int64)
    if len(context) != params.n - 1:
        raise ValueError(f"context length {len(context)} != n-1 = {params.n - 1}")
    _check_indices(context, params.k)
    x, h = _fnn_hidden(params, context)
    return _score(params, h, x)


def _score(params, s, x):
    if params.w_out is None:
        raise ValueError("model was built without output weights")
    y = params.w_out @ s
    if params.w_direct is not None:
        y = y + params.w_direct @ x
    if params.b_out is not None:
        y = y + params.b_out
    return y


# ---------------------------------------------------------------------------
# Simple recurrent core
# ---------------------------------------------------------------------------

@dataclass
class RnnParameters:
    emb: np.ndarray                 # k x m
    w_in: np.ndarray                # n_h x m
    w_rec: np.ndarray               # n_h x n_h
    b_in: np.ndarray | None = None
    w_out: np.ndarray | None = None
    w_direct: np.ndarray | None = None
    b_out: np.ndarray | None = None

    @classmethod
    def create(cls, k, m, n_h, rng, direct=False, bias=False, output=True):
        w_out, w_direct, b_out = _maybe_output(k, n_h, m, rng, direct, bias, output)
        return cls(
            emb=init_matrix(k, m, rng),
            w_in=init_matrix(n_h, m, rng),
            w_rec=init_matrix(n_h, n_h, rng),
            b_in=np.zeros(n_h) if bias else None,
            w_out=w_out,
            w_direct=w_direct,
            b_out=b_out,
        )

    @property
    def k(self):
        return self.emb.shape[0]

    @property
    def n_h(self):
        return self.w_rec.shape[0]

    def core_arrays(self) -> Arrays:
        out = {"emb": self.emb, "w_in": self.w_in, "w_rec": self.w_rec}
        if self.b_in is not None:
            out["b_in"] = self.b_in
        return out

    def arrays(self) -> Arrays:
        out = self.core_arrays()
        for name in ("w_out", "w_direct", "b_out"):
            a = getattr(self, name)
            if a is not None:
                out[name] = a
        return out


@dataclass
class RnnTape:
    words: np.ndarray
    xs: list[np.ndarray]
    states: list[np.ndarray]
    s0: np.ndarray

    @property
    def final_state(self) -> HiddenState:
        return HiddenState(self.states[-1].copy() if self.states else self.s0.copy())


class RnnCore:
    def __init__(self, params: RnnParameters):
        self.params = params

    def run(self, inputs, h0: HiddenState | None = None) -> RnnTape:
        p = self.params
        inputs = np.asarray(inputs, dtype=np.int64)
        _check_indices(inputs, p.k)
        s = np.zeros(p.n_h) if h0 is None else np.asarray(h0.s, dtype=np.float64)
        if s.shape != (p.n_h,):
            raise ValueError(f"initial state has shape {s.shape}, expected ({p.n_h},)")
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
        return RnnTape(inputs, xs, states, s0)

    def backward(self, tape: RnnTape, d_states, d_inputs=None) -> Gradients:
        p = self.params
        if len(d_states) != len(tape.states):
            raise ValueError(
                f"tape has {len(tape.states)} steps but got {len(d_states)} gradients"
            )
        g = _zero_grads(p)
        rows, slot = np.unique(tape.words, return_inverse=True)
        d_emb = np.zeros((len(rows), p.emb.shape[1]))
        carry = np.zeros(p.n_h)
        for t in range(len(d_states) - 1, -1, -1):
            s = tape.states[t]
            s_prev = tape.states[t - 1] if t > 0 else tape.s0
            da = (d_states[t] + carry) * tanh_deriv(s)
            g["w_in"] += np.outer(da, tape.xs[t])
            g["w_rec"] += np.outer(da, s_prev)
            if p.b_in is not None:
                g["b_in"] += da
            dx = p.w_in.T @ da
            if d_inputs is not None and d_inputs[t] is not None:
                dx = dx + d_inputs[t]
            d_emb[slot[t]] += dx
            carry = p.w_rec.T @ da
        g.set_rows("emb", rows, d_emb)
        return g


def rnn_step(params: RnnParameters, word: int, prev: HiddenState):
    """(score vector, new state) for one word given the previous state."""
    core = RnnCore(params)
    tape = core.run([word], h0=prev)
    s = tape.states[0]
    return _score(params, s, tape.xs[0]), HiddenState(s.copy())


# ---------------------------------------------------------------------------
# LSTM core
# ---------------------------------------------------------------------------

_GATES = ("i", "f", "o", "g")


@dataclass
class LstmParameters:
    """Gated core with optional peephole connections from the cell.

    The peephole toggle controls all four cell taps: the input/forget gates
    and the candidate read the previous cell, the output gate reads the
    current cell.
    """

    emb: np.ndarray
    w_in_i: np.ndarray
    w_in_f: np.ndarray
    w_in_o: np.ndarray
    w_in_g: np.ndarray
    w_rec_i: np.ndarray
    w_rec_f: np.ndarray
    w_rec_o: np.ndarray
    w_rec_g: np.ndarray
    w_peep_i: np.ndarray | None = None
    w_peep_f: np.ndarray | None = None
    w_peep_o: np.ndarray | None = None
    w_peep_g: np.ndarray | None = None
    b_i: np.ndarray | None = None
    b_f: np.ndarray | None = None
    b_o: np.ndarray | None = None
    b_g: np.ndarray | None = None
    w_out: np.ndarray | None = None
    w_direct: np.ndarray | None = None
    b_out: np.ndarray | None = None

    @classmethod
    def create(cls, k, m, n_h, rng, direct=False, bias=False, peepholes=True,
               output=True):
        kw = {"emb": init_matrix(k, m, rng)}
        for gate in _GATES:
            kw[f"w_in_{gate}"] = init_matrix(n_h, m, rng)
            kw[f"w_rec_{gate}"] = init_matrix(n_h, n_h, rng)
            if peepholes:
                kw[f"w_peep_{gate}"] = init_matrix(n_h, n_h, rng)
            if bias:
                kw[f"b_{gate}"] = np.zeros(n_h)
        w_out, w_direct, b_out = _maybe_output(k, n_h, m, rng, direct, bias, output)
        return cls(w_out=w_out, w_direct=w_direct, b_out=b_out, **kw)

    @property
    def k(self):
        return self.emb.shape[0]

    @property
    def n_h(self):
        return self.w_rec_i.shape[0]

    def core_arrays(self) -> Arrays:
        out = {"emb": self.emb}
        for gate in _GATES:
            for prefix in ("w_in_", "w_rec_", "w_peep_", "b_"):
                a = getattr(self, f"{prefix}{gate}")
                if a is not None:
                    out[f"{prefix}{gate}"] = a
        return out

    def arrays(self) -> Arrays:
        out = self.core_arrays()
        for name in ("w_out", "w_direct", "b_out"):
            a = getattr(self, name)
            if a is not None:
                out[name] = a
        return out


@dataclass
class LstmTape:
    words: np.ndarray
    xs: list[np.ndarray]
    gates_i: list[np.ndarray]
    gates_f: list[np.ndarray]
    gates_o: list[np.ndarray]
    cands: list[np.ndarray]
    cells: list[np.ndarray]
    states: list[np.ndarray]
    s0: np.ndarray
    c0: np.ndarray

    @property
    def final_state(self) -> HiddenState:
        if not self.states:
            return HiddenState(self.s0.copy(), self.c0.copy())
        return HiddenState(self.states[-1].copy(), self.cells[-1].copy())


def _lstm_step(p: LstmParameters, x, s_prev, c_prev):
    def pre(gate, cell_tap):
        a = getattr(p, f"w_in_{gate}") @ x + getattr(p, f"w_rec_{gate}") @ s_prev
        peep = getattr(p, f"w_peep_{gate}")
        if peep is not None and cell_tap is not None:
            a = a + peep @ cell_tap
        b = getattr(p, f"b_{gate}")
        if b is not None:
            a = a + b
        return a

    i = sigmoid(pre("i", c_prev))
    f = sigmoid(pre("f", c_prev))
    g = np.tanh(pre("g", c_prev))
    c = f * c_prev + i * g
    o = sigmoid(pre("o", c))
    s = o * np.tanh(c)
    return i, f, o, g, c, s


class LstmCore:
    def __init__(self, params: LstmParameters):
        self.params = params

    def run(self, inputs, h0: HiddenState | None = None) -> LstmTape:
        p = self.params
        inputs = np.asarray(inputs, dtype=np.int64)
        _check_indices(inputs, p.k)
        n_h = p.n_h
        if h0 is None:
            s, c = np.zeros(n_h), np.zeros(n_h)
        else:
            s = np.asarray(h0.s, dtype=np.float64)
            c = np.zeros(n_h) if h0.c is None else np.asarray(h0.c, dtype=np.float64)
        if s.shape != (n_h,) or c.shape != (n_h,):
            raise ValueError(f"initial state shapes {s.shape}/{c.shape}, expected ({n_h},)")
        tape = LstmTape(inputs, [], [], [], [], [], [], [], s.copy(), c.copy())
        for w in inputs:
            x = p.emb[w]
            i, f, o, g, c, s = _lstm_step(p, x, s, c)
            tape.xs.append(x)
            tape.gates_i.append(i)
            tape.gates_f.append(f)
            tape.gates_o.append(o)
            tape.cands.append(g)
            tape.cells.append(c)
            tape.states.append(s)
        return tape

    def backward(self, tape: LstmTape, d_states, d_inputs=None) -> Gradients:
        p = self.params
        if len(d_states) != len(tape.states):
            raise ValueError(
                f"tape has {len(tape.states)} steps but got {len(d_states)} gradients"
            )
        gr = _zero_grads(p)
        rows, slot = np.unique(tape.words, return_inverse=True)
        d_emb = np.zeros((len(rows), p.emb.shape[1]))
        n_h = p.n_h
        ds_carry = np.zeros(n_h)
        dc_carry = np.zeros(n_h)
        for t in range(len(d_states) - 1, -1, -1):
            x = tape.xs[t]
            i, f, o = tape.gates_i[t], tape.gates_f[t], tape.gates_o[t]
            g, c = tape.cands[t], tape.cells[t]
            s_prev = tape.states[t - 1] if t > 0 else tape.s0
            c_prev = tape.cells[t - 1] if t > 0 else tape.c0
            tc = np.tanh(c)

            ds = d_states[t] + ds_carry
            do = ds * tc
            da_o = do * sigmoid_deriv(o)
            dc = ds * o * tanh_deriv(tc) + dc_carry
            if p.w_peep_o is not None:
                dc = dc + p.w_peep_o.T @ da_o
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            da = {
                "i": di * sigmoid_deriv(i),
                "f": df * sigmoid_deriv(f),
                "o": da_o,
                "g": dg * tanh_deriv(g),
            }

            dx = np.zeros_like(x)
            ds_carry = np.zeros(n_h)
            dc_carry = dc * f
            for gate in _GATES:
                d = da[gate]
                gr[f"w_in_{gate}"] += np.outer(d, x)
                gr[f"w_rec_{gate}"] += np.outer(d, s_prev)
                peep = getattr(p, f"w_peep_{gate}")
                if peep is not None:
                    tap = c if gate == "o" else c_prev
                    gr[f"w_peep_{gate}"] += np.outer(d, tap)
                    if gate in ("i", "f", "g"):
                        dc_carry = dc_carry + peep.T @ d
                if getattr(p, f"b_{gate}") is not None:
                    gr[f"b_{gate}"] += d
                dx += getattr(p, f"w_in_{gate}").T @ d
                ds_carry = ds_carry + getattr(p, f"w_rec_{gate}").T @ d
            if d_inputs is not None and d_inputs[t] is not None:
                dx = dx + d_inputs[t]
            d_emb[slot[t]] += dx
        gr.set_rows("emb", rows, d_emb)
        return gr


def lstm_step(params: LstmParameters, word: int, prev: HiddenState):
    """(score vector, new state) for one word given the previous state."""
    core = LstmCore(params)
    tape = core.run([word], h0=prev)
    s = tape.states[0]
    return _score(params, s, tape.xs[0]), tape.final_state


# ---------------------------------------------------------------------------

def make_core(params):
    if isinstance(params, FnnParameters):
        return FnnCore(params)
    if isinstance(params, RnnParameters):
        return RnnCore(params)
    if isinstance(params, LstmParameters):
        return LstmCore(params)
    raise TypeError(f"unknown parameter type {type(params).__name__}")


def sequence_backward(core, tape, d_states, d_inputs=None) -> Arrays:
    """Exact full-sequence gradients of the recorded forward pass."""
    return core.backward(tape, d_states, d_inputs)


def birnn_encode(forward_params, backward_params, sentence) -> np.ndarray:
    """Concatenation of the final forward state and the final backward state.

    Pure sequence encoder: no probabilities come out of this.
    """
    sentence = np.asarray(sentence, dtype=np.int64)
    if len(sentence) == 0:
        raise ValueError("cannot encode an empty sentence")
    fwd = make_core(forward_params)
    bwd = make_core(backward_params)
    if forward_params.n_h != backward_params.n_h:
        raise ValueError("forward and backward cores must share the hidden size")
    sf = fwd.run(sentence).final_state.s
    sb = bwd.run(sentence[::-1]).final_state.s
    return np.concatenate([sf, sb])
