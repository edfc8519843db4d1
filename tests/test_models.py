import numpy as np
import pytest

from helpers import (LSTM_GATES, fnn_forward, fnn_reference,
                     lstm_gate_matrices, lstm_reference, make_model,
                     rnn_reference, rnn_step)
from nnlm.models import (FnnCore, FnnParameters, HiddenState, LstmCore,
                         LstmParameters, RnnCore, RnnParameters, zero_state)
from nnlm.numerics import init_matrix, make_rng, sigmoid, softmax

K, M, NH = 9, 4, 6


def rand_params(arch, seed=0, **kw):
    rng = make_rng(seed)
    if arch == "fnn":
        return FnnParameters.create(K, M, NH, kw.pop("n", 3), rng, **kw)
    if arch == "rnn":
        return RnnParameters.create(K, M, NH, rng, **kw)
    return LstmParameters.create(K, M, NH, rng, **kw)


def rand_model(arch, seed=0, **kw):
    """(core, full softmax) at this file's sizes."""
    return make_model(arch, seed=seed, k=K, m=M, n_h=NH, **kw)


class TestFnnForward:
    def test_matches_straight_line_evaluation(self):
        core, out = rand_model("fnn", direct=True, bias=True)
        p = core.params
        ctx = np.array([2, 5])
        y = fnn_forward(core, out, ctx)
        x = np.concatenate([p.emb[2], p.emb[5]])
        h = np.tanh(p.w_in @ x + p.b_in)
        expect = out.w_out @ h + out.w_direct @ x + out.b_out
        np.testing.assert_allclose(y, expect, atol=1e-12)

    def test_wrong_context_length_rejected(self):
        with pytest.raises(ValueError, match="3"):
            fnn_forward(*rand_model("fnn", n=4), [1, 2])

    def test_run_pads_with_first_token(self):
        p = rand_params("fnn", n=3)
        core = FnnCore(p)
        tape = core.run([7, 1, 2])
        np.testing.assert_array_equal(tape.contexts[0], [7, 7])
        np.testing.assert_array_equal(tape.contexts[1], [7, 1])
        np.testing.assert_array_equal(tape.contexts[2], [1, 2])

    def test_out_of_range_word_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            FnnCore(rand_params("fnn")).run([0, K])


FNN_CASES = {   # name: (n, inputs, which d_inputs rows are None)
    "sentence": (4, [3, 1, 4, 1, 5, 8, 2, 6, 5, 3], None),
    "one-position": (4, [7], None),
    "shorter-than-window": (5, [2, 8], None),
    "some-input-grads-none": (3, [3, 1, 4, 1, 5, 1], [1, 4]),
}


class TestFnnCoreGemm:
    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("case", sorted(FNN_CASES))
    def test_matches_per_position_reference(self, case, bias):
        """The sentence-GEMM core against the per-position loop it replaced:
        the same windows and embeddings, and hidden states and gradients
        equal up to the order of summation."""
        n, inputs, none_rows = FNN_CASES[case]
        p = rand_params("fnn", seed=3, n=n, bias=bias)
        rng = make_rng(4)
        T = len(inputs)
        d_states = rng.normal(size=(T, NH))
        d_inputs = list(rng.normal(size=(T, M * (n - 1))))
        for t in none_rows or []:
            d_inputs[t] = None
        contexts, xs, states, want = fnn_reference(p, inputs, d_states, d_inputs)

        core = FnnCore(p)
        tape = core.run(inputs)
        np.testing.assert_array_equal(tape.contexts, contexts)
        np.testing.assert_array_equal(tape.xs, xs)
        np.testing.assert_allclose(tape.states, states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tape.final_state.s, states[-1], rtol=0,
                                   atol=1e-12)
        got = core.backward(tape, d_states, d_inputs)
        assert list(got) == list(want)
        np.testing.assert_array_equal(got.rows["emb"], want.rows["emb"])
        for name, w in want.items():
            err = float(np.abs(got[name] - w).max())
            assert err <= 1e-12 * float(np.abs(w).max()), (name, err)

    def test_empty_input(self):
        p = rand_params("fnn", n=3)
        tape = FnnCore(p).run([])
        assert tape.contexts.shape == (0, 2) and tape.states.shape == (0, NH)
        g = FnnCore(p).backward(tape, np.zeros((0, NH)))
        assert not g["w_in"].any() and len(g.rows["emb"]) == 0


RNN_CASES = {   # name: (inputs, carried-in h0, which d_inputs rows are None)
    "sentence": ([3, 1, 4, 1, 5, 8, 2, 6, 5, 3], False, None),
    "repeated-words": ([2, 2, 7, 2, 7, 7, 2], False, None),
    "one-step": ([7], False, None),
    "carried-in-h0": ([4, 0, 8, 4, 1], True, None),
    "some-input-grads-none": ([3, 1, 4, 1, 5, 1], True, [1, 4]),
}


class TestRnnCoreGemm:
    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("case", sorted(RNN_CASES))
    def test_matches_per_step_reference(self, case, bias):
        """The sentence-GEMM backward pass against the per-step loop it
        replaced: the forward states bit for bit, and gradients equal up to
        the order of summation."""
        inputs, carried, none_rows = RNN_CASES[case]
        p = rand_params("rnn", seed=3, bias=bias)
        rng = make_rng(4)
        if bias:
            p.b_in[:] = rng.normal(size=NH)
        T = len(inputs)
        h0 = HiddenState(rng.normal(size=NH) * 0.5) if carried else None
        d_states = list(rng.normal(size=(T, NH)))
        d_inputs = list(rng.normal(size=(T, M)))
        for t in none_rows or []:
            d_inputs[t] = None
        xs, states, want = rnn_reference(p, inputs, h0, d_states, d_inputs)

        core = RnnCore(p)
        tape = core.run(inputs, h0=h0)
        np.testing.assert_array_equal(tape.xs, xs)
        np.testing.assert_array_equal(tape.states, states)
        np.testing.assert_array_equal(tape.final_state.s, states[-1])
        got = core.backward(tape, d_states, d_inputs)
        assert list(got) == list(want)
        np.testing.assert_array_equal(got.rows["emb"], want.rows["emb"])
        for name, w in want.items():
            err = float(np.abs(got[name] - w).max())
            assert err <= 1e-12 * float(np.abs(w).max()), (name, err)

    def test_empty_sentence(self):
        """Zero-row tapes and all-zero gradients; that the final state is
        ``h0`` is checked by ``TestRnn.test_final_state_of_empty_run_is_h0``."""
        p = rand_params("rnn", bias=True)
        h0 = HiddenState(np.arange(NH, dtype=float) / NH)
        tape = RnnCore(p).run([], h0=h0)
        assert tape.xs.shape == (0, M) and tape.states.shape == (0, NH)
        g = RnnCore(p).backward(tape, np.zeros((0, NH)))
        assert list(g) == ["w_in", "w_rec", "b_in", "emb"]
        assert not any(g[name].any() for name in g)
        assert len(g.rows["emb"]) == 0


class TestRnn:
    def test_step_matches_straight_line(self):
        core, out = rand_model("rnn", bias=True)
        p = core.params
        prev = HiddenState(make_rng(1).normal(size=NH))
        y, new = rnn_step(core, out, 3, prev)
        s = np.tanh(p.w_in @ p.emb[3] + p.w_rec @ prev.s + p.b_in)
        np.testing.assert_allclose(new.s, s, atol=1e-12)
        np.testing.assert_allclose(y, out.w_out @ s, atol=1e-12)

    def test_run_chains_steps(self):
        core, out = rand_model("rnn")
        tape = core.run([1, 4, 2])
        state = zero_state(NH)
        for t, w in enumerate([1, 4, 2]):
            _, state = rnn_step(core, out, w, state)
            np.testing.assert_allclose(tape.states[t], state.s, atol=1e-12)

    def test_zero_recurrence_equals_bigram_fnn(self):
        """With w_rec = 0 the recurrent state sees only the current word, so a
        2-gram feed-forward model with identical weights scores identically."""
        rnn = rand_model("rnn")
        rnn[0].params.w_rec[:] = 0.0
        fnn = rand_model("fnn", seed=99, n=2)
        fnn[0].params.emb[:] = rnn[0].params.emb
        fnn[0].params.w_in[:] = rnn[0].params.w_in
        fnn[1].w_out[:] = rnn[1].w_out
        sent = [3, 1, 4, 1, 5]
        state = zero_state(NH)
        for w in sent:
            y_rnn, state = rnn_step(*rnn, w, state)
            y_fnn = fnn_forward(*fnn, [w])
            np.testing.assert_allclose(y_rnn, y_fnn, atol=1e-12)

    def test_final_state_of_empty_run_is_h0(self):
        core = RnnCore(rand_params("rnn"))
        h0 = HiddenState(np.arange(NH, dtype=float))
        np.testing.assert_array_equal(core.run([], h0=h0).final_state.s, h0.s)


class TestLstm:
    def test_step_matches_straight_line(self):
        core, out = rand_model("lstm", bias=True, peepholes=True)
        p = core.params
        w = lstm_gate_matrices(p)
        rng = make_rng(2)
        prev = HiddenState(rng.normal(size=NH), rng.normal(size=NH))
        tape = core.run([5], h0=prev)
        new = tape.final_state
        y = out.scores(tape.states[0], tape.xs[0])
        x = p.emb[5]

        def pre(gate, tap):
            return (w[f"w_in_{gate}"] @ x + w[f"w_rec_{gate}"] @ prev.s
                    + w[f"w_peep_{gate}"] @ tap + w[f"b_{gate}"])

        i = sigmoid(pre("i", prev.c))
        f = sigmoid(pre("f", prev.c))
        g = np.tanh(pre("g", prev.c))
        c = f * prev.c + i * g
        o = sigmoid(pre("o", c))
        s = o * np.tanh(c)
        np.testing.assert_allclose(new.c, c, atol=1e-12)
        np.testing.assert_allclose(new.s, s, atol=1e-12)
        np.testing.assert_allclose(y, out.w_out @ s, atol=1e-12)

    def test_output_gate_taps_current_cell(self):
        """Changing only the incoming cell must move the output gate through
        f*c_prev even when the candidate path is suppressed."""
        p = rand_params("lstm", bias=True, peepholes=True)
        lstm_gate_matrices(p)["b_i"][:] = -50.0  # input gate shut
        core, s0 = LstmCore(p), np.zeros(NH)
        a = core.run([1], h0=HiddenState(s0, np.zeros(NH))).final_state
        b = core.run([1], h0=HiddenState(s0, np.ones(NH))).final_state
        assert np.abs(a.s - b.s).max() > 1e-4

    def test_gate_saturation_preserves_cell(self):
        """Forget gate pinned open and input gate pinned shut: the cell should
        survive 100 steps essentially unchanged."""
        p = rand_params("lstm", bias=True, peepholes=False)
        w = lstm_gate_matrices(p)
        w["b_f"][:] = 50.0
        w["b_i"][:] = -50.0
        core = LstmCore(p)
        c0 = make_rng(3).normal(size=NH)
        tape = core.run(np.ones(100, dtype=np.int64), h0=HiddenState(np.zeros(NH), c0))
        assert np.abs(tape.final_state.c - c0).max() < 1e-6

    def test_zero_parameters_give_zero_state(self):
        p = rand_params("lstm", peepholes=False)
        for a in p.arrays().values():
            a[:] = 0.0
        tape = LstmCore(p).run([1, 2, 3])
        # candidate tanh(0)=0 so the cell never moves off zero
        np.testing.assert_array_equal(tape.final_state.c, np.zeros(NH))
        np.testing.assert_array_equal(tape.final_state.s, np.zeros(NH))

    @pytest.mark.parametrize("words", [[3, 1, 4, 1, 5, 8, 2, 6, 5, 3], []],
                             ids=["sentence", "empty"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("peepholes", [True, False],
                             ids=["peepholes", "no-peepholes"])
    def test_stacked_core_matches_per_gate_reference(self, peepholes, bias, words):
        p = rand_params("lstm", seed=4, bias=bias, peepholes=peepholes)
        if bias:
            p.b[:] = make_rng(5).normal(scale=0.5, size=p.b.shape)
        rng = make_rng(6)
        h0 = HiddenState(rng.normal(size=NH), rng.normal(size=NH))
        d_states = [rng.normal(size=NH) for _ in words]
        d_inputs = [None if t % 3 == 1 else rng.normal(size=M)
                    for t in range(len(words))]
        states, cells, expect = lstm_reference(p, words, h0, d_states, d_inputs)

        core = LstmCore(p)
        tape = core.run(words, h0=h0)
        got = core.backward(tape, d_states, d_inputs)
        assert len(tape.states) == len(words)
        for t in range(len(words)):
            np.testing.assert_allclose(tape.states[t], states[t], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(tape.cells[t], cells[t], rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(tape.xs[t], p.emb[words[t]])
        final = (states[-1], cells[-1]) if words else (h0.s, h0.c)
        np.testing.assert_allclose(tape.final_state.s, final[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tape.final_state.c, final[1], rtol=1e-12, atol=1e-12)
        assert set(got) == set(expect) == set(p.arrays())
        assert set(got.rows) == set(expect.rows) == {"emb"}
        np.testing.assert_array_equal(got.rows["emb"], expect.rows["emb"])
        for name in expect:
            assert got[name].shape == expect[name].shape, name
            np.testing.assert_allclose(got[name], expect[name], rtol=1e-12,
                                       atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("peepholes", [True, False])
    def test_create_matches_per_gate_draws(self, peepholes):
        """A seed draws the same numbers as a model stored one matrix per
        gate, drawn in the order i, f, o, g (input, recurrent, peephole)."""
        p = LstmParameters.create(K, M, NH, make_rng(8), bias=True,
                                  peepholes=peepholes)
        rng = make_rng(8)
        np.testing.assert_array_equal(p.emb, init_matrix(K, M, rng))
        w = lstm_gate_matrices(p)
        for gate in ("i", "f", "o", "g"):
            np.testing.assert_array_equal(w[f"w_in_{gate}"], init_matrix(NH, M, rng))
            np.testing.assert_array_equal(w[f"w_rec_{gate}"], init_matrix(NH, NH, rng))
            if peepholes:
                np.testing.assert_array_equal(w[f"w_peep_{gate}"],
                                              init_matrix(NH, NH, rng))
        np.testing.assert_array_equal(p.b, np.zeros(len(LSTM_GATES) * NH))
        assert (p.w_peep is None) == (p.w_co is None) == (not peepholes)


class TestBackwardPlumbing:
    def test_wrong_gradient_count_rejected(self):
        core, _ = make_model("rnn")
        tape = core.run([1, 2, 3])
        with pytest.raises(ValueError, match="3"):
            core.backward(tape, [np.zeros(7)] * 2)

    def test_single_step_output_bias_gradient(self):
        """For one softmax step, d(NLL)/d(scores) = softmax - onehot; pushing
        that through w_out^T must equal the returned state gradient source."""
        core, strategy = make_model("rnn", bias=True, seed=5)
        tape = core.run([2])
        s = tape.states[0]
        target = 4
        _, d_states, _ = strategy.score_sentence(tape.states, tape.xs, [target],
                                                 grad=True)
        dy = softmax(strategy.w_out @ s + strategy.b_out)
        dy[target] -= 1.0
        np.testing.assert_allclose(-d_states[0], -(strategy.w_out.T @ dy),
                                   atol=1e-12)
        grads = strategy.grads()
        np.testing.assert_allclose(grads["b_out"], dy, atol=1e-12)

    def test_run_is_deterministic(self):
        core, _ = make_model("lstm", seed=11)
        t1 = core.run([1, 2, 3, 4])
        t2 = core.run([1, 2, 3, 4])
        np.testing.assert_array_equal(t1.final_state.s, t2.final_state.s)
        np.testing.assert_array_equal(t1.final_state.c, t2.final_state.c)
