"""Feed-forward, recurrent, and LSTM language-model cores.

Every core runs a whole sentence forward while recording a tape, then
backpropagates output-side gradients exactly through every step — no
truncation.  Output scoring (softmax and its factored variants) lives in
``output_layer``, which owns every score-side weight; a parameter object
holds only its core's arrays.  The embedding gradient ``emb`` is row-compact
(see ``numerics.Gradients``): it holds one row per distinct input word.
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


def model_arrays(core, strategy) -> Arrays:
    """Every trainable array of a model by name: the core's, then the
    output layer's."""
    return {**core.params.arrays(), **strategy.params()}


def _check_indices(indices: np.ndarray, k: int):
    if len(indices) and (indices.min() < 0 or indices.max() >= k):
        raise ValueError(f"word index out of range for vocabulary of size {k}")


def _set_emb_grad(g: Gradients, words, dX, d_inputs, m: int, step: int = 1):
    """Add each ``d_inputs`` row that is not None to ``dX``, then sum the
    m-wide pieces of ``dX`` into ``g``'s row-compact ``emb``, one row per
    distinct word of ``words``, visiting positions in the order ``step``
    gives (the recurrent cores add in reverse time order)."""
    if d_inputs is not None:
        for t, d in enumerate(d_inputs):
            if d is not None:
                dX[t] += d
    rows, slot = np.unique(words, return_inverse=True)
    d_emb = np.zeros((len(rows), m))
    np.add.at(d_emb, slot.reshape(-1)[::step], dX.reshape(-1, m)[::step])
    g.set_rows("emb", rows, d_emb)
    return g


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

    @classmethod
    def create(cls, k, m, n_h, n, rng, bias=False):
        if n < 2:
            raise ValueError(f"context order n must be >= 2, got {n}")
        return cls(
            emb=init_matrix(k, m, rng),
            w_in=init_matrix(n_h, m * (n - 1), rng),
            n=n,
            b_in=np.zeros(n_h) if bias else None,
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

    def arrays(self) -> Arrays:
        out = {"emb": self.emb, "w_in": self.w_in}
        if self.b_in is not None:
            out["b_in"] = self.b_in
        return out


@dataclass
class FnnTape:
    """Row t of each array belongs to input position t: its n-1 context
    words, their concatenated embeddings and its hidden state."""

    contexts: np.ndarray    # T x (n - 1) word ids
    xs: np.ndarray          # T x m(n - 1)
    states: np.ndarray      # T x n_h

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
        (the sentence-start mark for encoded sentences).  Every window goes
        through one product with ``w_in``."""
        p = self.params
        inputs = np.asarray(inputs, dtype=np.int64)
        _check_indices(inputs, p.k)
        T = len(inputs)
        span = p.n - 1
        contexts = inputs[np.maximum(np.arange(T)[:, None] + np.arange(1 - span, 1), 0)]
        X = p.emb[contexts].reshape(T, span * p.m)
        A = X @ p.w_in.T
        if p.b_in is not None:
            A += p.b_in
        return FnnTape(contexts, X, np.tanh(A, out=A))

    def backward(self, tape: FnnTape, d_states, d_inputs=None) -> Gradients:
        """Every weight gradient as one product over the sentence; the input
        gradients reach ``emb`` through one scatter."""
        p = self.params
        T = len(tape.states)
        if len(d_states) != T:
            raise ValueError(f"tape has {T} steps but got {len(d_states)} gradients")
        dA = np.asarray(d_states, dtype=np.float64).reshape(T, p.n_h)
        dA = dA * tanh_deriv(tape.states)
        g = Gradients({"w_in": dA.T @ tape.xs})
        if p.b_in is not None:
            g["b_in"] = dA.sum(axis=0)
        return _set_emb_grad(g, tape.contexts, dA @ p.w_in, d_inputs, p.m)


# ---------------------------------------------------------------------------
# Simple recurrent core
# ---------------------------------------------------------------------------

@dataclass
class RnnParameters:
    emb: np.ndarray                 # k x m
    w_in: np.ndarray                # n_h x m
    w_rec: np.ndarray               # n_h x n_h
    b_in: np.ndarray | None = None

    @classmethod
    def create(cls, k, m, n_h, rng, bias=False):
        return cls(
            emb=init_matrix(k, m, rng),
            w_in=init_matrix(n_h, m, rng),
            w_rec=init_matrix(n_h, n_h, rng),
            b_in=np.zeros(n_h) if bias else None,
        )

    @property
    def k(self):
        return self.emb.shape[0]

    @property
    def n_h(self):
        return self.w_rec.shape[0]

    def arrays(self) -> Arrays:
        out = {"emb": self.emb, "w_in": self.w_in, "w_rec": self.w_rec}
        if self.b_in is not None:
            out["b_in"] = self.b_in
        return out


@dataclass
class RnnTape:
    """Row t of ``xs`` belongs to input t; row t + 1 of ``s`` is the state
    after input t and row 0 the initial state."""

    words: np.ndarray
    xs: np.ndarray      # T x m
    s: np.ndarray       # (T + 1) x n_h

    @property
    def states(self) -> np.ndarray:
        return self.s[1:]

    @property
    def final_state(self) -> HiddenState:
        return HiddenState(self.s[-1].copy())


class RnnCore:
    def __init__(self, params: RnnParameters):
        self.params = params

    def run(self, inputs, h0: HiddenState | None = None) -> RnnTape:
        """One gemv with ``w_in`` and one with ``w_rec`` per step.  Projecting
        every input at once would change the states' bits, and on a diverged
        model it gives finite states where these products give the NaN that
        stops training with a non-finite gradient."""
        p = self.params
        inputs = np.asarray(inputs, dtype=np.int64)
        _check_indices(inputs, p.k)
        S = np.zeros((len(inputs) + 1, p.n_h))
        if h0 is not None:
            s0 = np.asarray(h0.s, dtype=np.float64)
            if s0.shape != (p.n_h,):
                raise ValueError(
                    f"initial state has shape {s0.shape}, expected ({p.n_h},)")
            S[0] = s0
        X = p.emb[inputs]
        for t in range(len(inputs)):
            a = p.w_in @ X[t] + p.w_rec @ S[t]
            if p.b_in is not None:
                a += p.b_in
            np.tanh(a, out=S[t + 1])
        return RnnTape(inputs, X, S)

    def backward(self, tape: RnnTape, d_states, d_inputs=None) -> Gradients:
        """The deltas in one reverse pass over the recurrent carry, then every
        weight gradient as one product over the whole sentence."""
        p = self.params
        T = len(tape.xs)
        if len(d_states) != T:
            raise ValueError(f"tape has {T} steps but got {len(d_states)} gradients")
        k_a = tanh_deriv(tape.states)      # ds/da at every step
        dA = np.empty((T, p.n_h))
        carry = np.zeros(p.n_h)
        for t in range(T - 1, -1, -1):
            np.multiply(d_states[t] + carry, k_a[t], out=dA[t])
            carry = p.w_rec.T @ dA[t]
        g = Gradients({"w_in": dA.T @ tape.xs, "w_rec": dA.T @ tape.s[:-1]})
        if p.b_in is not None:
            g["b_in"] = dA.sum(axis=0)
        return _set_emb_grad(g, tape.words, dA @ p.w_in, d_inputs,
                             p.emb.shape[1], step=-1)


# ---------------------------------------------------------------------------
# LSTM core
# ---------------------------------------------------------------------------

@dataclass
class LstmParameters:
    """Gated core with its four gates stacked in the order (i, f, g, o).

    Row block j of ``w_x``, ``w_h`` and ``b`` feeds gate j: input, forget,
    candidate, output.  With peepholes, ``w_peep`` stacks the i, f and g taps
    on the previous cell and ``w_co`` is the output gate's tap on the
    current cell.
    """

    emb: np.ndarray                     # k x m
    w_x: np.ndarray                     # 4n_h x m
    w_h: np.ndarray                     # 4n_h x n_h
    w_peep: np.ndarray | None = None    # 3n_h x n_h, reads c_prev
    w_co: np.ndarray | None = None      # n_h x n_h, reads c
    b: np.ndarray | None = None         # 4n_h

    @classmethod
    def create(cls, k, m, n_h, rng, bias=False, peepholes=True):
        emb = init_matrix(k, m, rng)
        w_x, w_h = np.empty((4 * n_h, m)), np.empty((4 * n_h, n_h))
        peep = np.empty((4 * n_h, n_h)) if peepholes else None
        # Drawn gate by gate in the order i, f, o, g, each gate's input,
        # recurrent and peephole matrix in turn, so a seed gives the same
        # numbers as a model stored one matrix per gate.
        for j in (0, 1, 3, 2):
            rows = slice(j * n_h, (j + 1) * n_h)
            w_x[rows] = init_matrix(n_h, m, rng)
            w_h[rows] = init_matrix(n_h, n_h, rng)
            if peepholes:
                peep[rows] = init_matrix(n_h, n_h, rng)
        return cls(emb=emb, w_x=w_x, w_h=w_h,
                   w_peep=peep[:3 * n_h] if peepholes else None,
                   w_co=peep[3 * n_h:] if peepholes else None,
                   b=np.zeros(4 * n_h) if bias else None)

    @property
    def k(self):
        return self.emb.shape[0]

    @property
    def n_h(self):
        return self.w_h.shape[1]

    def arrays(self) -> Arrays:
        out = {"emb": self.emb, "w_x": self.w_x, "w_h": self.w_h}
        for name in ("w_peep", "w_co", "b"):
            a = getattr(self, name)
            if a is not None:
                out[name] = a
        return out


@dataclass
class LstmTape:
    """Row t of ``xs`` and ``gates`` belongs to input t; row t + 1 of ``s``
    and ``c`` is the state after input t and row 0 the initial state."""

    words: np.ndarray
    xs: np.ndarray      # T x m
    gates: np.ndarray   # T x 4n_h gate activations (i, f, g, o)
    s: np.ndarray       # (T + 1) x n_h
    c: np.ndarray       # (T + 1) x n_h

    @property
    def states(self) -> np.ndarray:
        return self.s[1:]

    @property
    def cells(self) -> np.ndarray:
        return self.c[1:]

    @property
    def final_state(self) -> HiddenState:
        return HiddenState(self.s[-1].copy(), self.c[-1].copy())


class LstmCore:
    def __init__(self, params: LstmParameters):
        self.params = params

    def run(self, inputs, h0: HiddenState | None = None) -> LstmTape:
        p = self.params
        inputs = np.asarray(inputs, dtype=np.int64)
        _check_indices(inputs, p.k)
        n_h, T = p.n_h, len(inputs)
        S, C = np.zeros((T + 1, n_h)), np.zeros((T + 1, n_h))
        if h0 is not None:
            s0 = np.asarray(h0.s, dtype=np.float64)
            c0 = np.zeros(n_h) if h0.c is None else np.asarray(h0.c, dtype=np.float64)
            if s0.shape != (n_h,) or c0.shape != (n_h,):
                raise ValueError(
                    f"initial state shapes {s0.shape}/{c0.shape}, expected ({n_h},)")
            S[0], C[0] = s0, c0
        X = p.emb[inputs]
        A = X @ p.w_x.T
        if p.b is not None:
            A += p.b
        G = np.empty((T, 4 * n_h))
        ifg = 3 * n_h
        for t in range(T):
            a = A[t] + p.w_h @ S[t]
            if p.w_peep is not None:
                a[:ifg] += p.w_peep @ C[t]
            G[t, :2 * n_h] = sigmoid(a[:2 * n_h])
            G[t, 2 * n_h:ifg] = np.tanh(a[2 * n_h:ifg])
            i, f, g = G[t, :n_h], G[t, n_h:2 * n_h], G[t, 2 * n_h:ifg]
            C[t + 1] = f * C[t] + i * g
            a_o = a[ifg:]
            if p.w_co is not None:
                a_o = a_o + p.w_co @ C[t + 1]
            G[t, ifg:] = sigmoid(a_o)
            S[t + 1] = G[t, ifg:] * np.tanh(C[t + 1])
        return LstmTape(inputs, X, G, S, C)

    def backward(self, tape: LstmTape, d_states, d_inputs=None) -> Gradients:
        """Gate deltas in one reverse pass over the recurrent carries, then
        every weight gradient as one product over the whole sentence."""
        p = self.params
        T = len(tape.states)
        if len(d_states) != T:
            raise ValueError(f"tape has {T} steps but got {len(d_states)} gradients")
        n_h, ifg = p.n_h, 3 * p.n_h
        G, C_prev = tape.gates, tape.c[:-1]
        I, F, Gc, O = (G[:, j * n_h:(j + 1) * n_h] for j in range(4))
        TC = np.tanh(tape.cells)
        # Per-step factors that do not depend on the carries: ds/da_o,
        # ds/dc through tanh(c), and dc/da for the gates i, f, g.
        k_o = TC * sigmoid_deriv(O)
        k_c = O * tanh_deriv(TC)
        k_ifg = np.concatenate([Gc * sigmoid_deriv(I), C_prev * sigmoid_deriv(F),
                                I * tanh_deriv(Gc)], axis=1).reshape(T, 3, n_h)
        dA_blocks = np.empty((T, 4, n_h))
        dA = dA_blocks.reshape(T, 4 * n_h)
        ds_carry = np.zeros(n_h)
        dc_carry = np.zeros(n_h)
        for t in range(T - 1, -1, -1):
            ds = d_states[t] + ds_carry
            np.multiply(ds, k_o[t], out=dA_blocks[t, 3])
            dc = ds * k_c[t] + dc_carry
            if p.w_co is not None:
                dc += p.w_co.T @ dA_blocks[t, 3]
            np.multiply(k_ifg[t], dc, out=dA_blocks[t, :3])
            dc_carry = dc * F[t]
            if p.w_peep is not None:
                dc_carry += p.w_peep.T @ dA[t, :ifg]
            ds_carry = p.w_h.T @ dA[t]

        gr = Gradients({"w_x": dA.T @ tape.xs, "w_h": dA.T @ tape.s[:-1]})
        if p.w_peep is not None:
            gr["w_peep"] = dA[:, :ifg].T @ C_prev
            gr["w_co"] = dA[:, ifg:].T @ tape.cells
        if p.b is not None:
            gr["b"] = dA.sum(axis=0)
        return _set_emb_grad(gr, tape.words, dA @ p.w_x, d_inputs,
                             p.emb.shape[1], step=-1)

