"""Shared test utilities: small model factories, finite-difference checks,
and the dense reference for the row-compact training step."""

import math

import numpy as np

from nnlm.models import (FnnCore, FnnParameters, LstmCore, LstmParameters,
                         RnnCore, RnnParameters)
from nnlm.numerics import make_rng
from nnlm.output_layer import (ClassSoftmax, FullSoftmax, HierarchicalSoftmax,
                               assign_uniform_random, hierarchy_uniform_random)
from nnlm.training import _importance_sentence, sentence_gradients

K, M, NH = 12, 5, 7


def make_model(arch, strategy_kind="full", seed=0, direct=False, bias=False,
               peepholes=True, energy=False, k=K, m=M, n_h=NH, n=3):
    rng = make_rng(seed)
    full = strategy_kind == "full"
    if arch == "fnn":
        params = FnnParameters.create(k, m, n_h, n, rng, direct=direct,
                                      bias=bias, output=full)
        core = FnnCore(params)
    elif arch == "rnn":
        params = RnnParameters.create(k, m, n_h, rng, direct=direct,
                                      bias=bias, output=full)
        core = RnnCore(params)
    else:
        params = LstmParameters.create(k, m, n_h, rng, direct=direct,
                                       bias=bias, peepholes=peepholes,
                                       output=full)
        core = LstmCore(params)
    if full:
        strategy = FullSoftmax.for_model(params, energy=energy)
    elif strategy_kind == "class":
        strategy = ClassSoftmax.create(assign_uniform_random(k, 4, rng),
                                       n_h, rng, bias=bias)
    else:
        strategy = HierarchicalSoftmax.create(
            hierarchy_uniform_random(k, 2, rng), n_h, rng, bias=bias)
    return core, strategy


def merged_arrays(core, strategy):
    out = dict(core.params.core_arrays())
    out.update(strategy.params())
    return out


def dense(grads, arrays):
    """Full-shape copies of ``grads``, row-compact tensors expanded with zero
    rows (``arrays`` gives the shapes)."""
    rows = getattr(grads, "rows", {})
    out = {}
    for name, g in grads.items():
        if name in rows:
            out[name] = np.zeros_like(arrays[name])
            out[name][rows[name]] = g
        else:
            out[name] = np.array(g, copy=True)
    return out


def dense_reference_epoch(core, strategy, sentences, vocab, config, rng,
                          alpha, proposal=None):
    """The sentence loop of ``train_epoch`` with a dense clip and update:
    every gradient expanded to its parameter's shape, every matrix decayed
    and every row updated.  It draws from ``rng`` in the same order, so it
    follows the same trajectory."""
    arrays = merged_arrays(core, strategy)
    for idx in rng.permutation(len(sentences)):
        enc = vocab.encode(sentences[idx])
        if config.mode == "importance":
            _, grads = _importance_sentence(core, strategy, enc, proposal, rng,
                                            config)
        else:
            _, grads = sentence_gradients(core, strategy, enc)
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
    arrays = merged_arrays(core, strategy)
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
