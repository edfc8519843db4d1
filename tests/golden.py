"""Golden trajectories: short fixed-seed training and evaluation runs whose
numbers ``test_golden.py`` holds to 1e-12 relative.

Each case builds a model from a ``RunConfig`` on a tiny deterministic
Zipf corpus, trains it for two epochs with weight decay (the lazy path) and
a clip threshold that most sentences exceed, then scores the test split one
way: statically, with a word or class cache, with carryover, or with
dynamic evaluation.  It records every training sentence's NLL, each epoch's
validation PPL and clip count, the evaluation's per-sentence log2
probabilities and PPL, and the sum, sum of magnitudes and sum of squares of
every parameter tensor at the end.

Regenerate ``golden.json`` (from the repository root) with

    PYTHONPATH=src python tests/golden.py [CASE ...]

which rewrites the named cases, or every case when none is named, and keeps
the others as they are.

Regenerating the file changes a check: do it only when the computed numbers
are meant to change, and say why.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from nnlm import training
from nnlm.artifact import build_model
from nnlm.config import RunConfig
from nnlm.corpus import build_vocabulary
from nnlm.evaluation import perplexity
from nnlm.models import model_arrays
from nnlm.numerics import make_rng

GOLDEN = Path(__file__).resolve().parent / "golden.json"

BASE = RunConfig(m=5, n_h=8, n=3, bias=True, classes=4, alpha=0.1, beta=1e-3,
                 max_epochs=2, clip=0.5, seed=7,
                 alpha_dyn=0.05, beta_dyn=1e-3)


def _cases() -> dict[str, tuple[RunConfig, str]]:
    cases = {}
    for arch in ("fnn", "rnn", "lstm"):
        for strategy in ("full", "class", "hier"):
            cfg = replace(BASE, arch=arch, strategy=strategy,
                          direct=strategy == "full",
                          assign="uniform" if strategy == "hier" else "sqrt_freq",
                          levels=2 if strategy == "hier" else 1)
            cases[f"{arch}-{strategy}"] = (cfg, "static")
    cases["fnn-importance"] = (replace(
        BASE, arch="fnn", strategy="full", energy=True, mode="importance",
        block_size=5, min_ess=3.0, max_samples=40), "static")
    word = replace(BASE, arch="rnn", strategy="class", lam=0.7, cache_length=20,
                   cache_decay="exponential", gamma=0.8)
    cases["word-cache"] = (word, "cache")
    cases["class-cache"] = (replace(word, cache_mode="class",
                                    cache_decay="linear"), "cache")
    cases["carryover"] = (replace(BASE, arch="lstm", strategy="class",
                                  carryover=True), "carryover")
    for direct in (False, True):
        for bias in (False, True):
            cases[f"dynamic-direct{int(direct)}-bias{int(bias)}"] = (
                replace(BASE, arch="rnn", strategy="full", direct=direct,
                        bias=bias, clip=0.05), "dynamic")
    # the grouped layers' row-compact word-factor update, eager under
    # dynamic evaluation (with beta_dyn) and lazy under training
    cases["dynamic-class"] = (replace(BASE, arch="rnn", strategy="class",
                                      assign="sqrt_freq", clip=0.05), "dynamic")
    cases["dynamic-hier"] = (replace(BASE, arch="lstm", strategy="hier",
                                     assign="uniform", levels=2, clip=0.05),
                             "dynamic")
    cases["class-uniform"] = (replace(BASE, arch="rnn", strategy="class",
                                      assign="uniform"), "static")
    return cases


CASES = _cases()


def corpus():
    """(train, validation, test, test document ids): Zipf sentences over 24
    words, drawn from a fixed seed."""
    rng = make_rng(2024)
    words = [f"w{i}" for i in range(24)]
    p = 1.0 / np.arange(1, len(words) + 1)
    p /= p.sum()
    sents = [[words[i] for i in rng.choice(len(words), rng.integers(3, 9), p=p)]
             for _ in range(18)]
    return sents[:8], sents[8:12], sents[12:], [0, 0, 0, 1, 1, 1]


@contextmanager
def _recording(nlls: list):
    """Record the NLL of every training sentence, in training order."""
    originals = {name: getattr(training, name)
                 for name in ("sentence_gradients", "_importance_sentence")}

    def recorder(fn):
        def wrapper(*args, **kwargs):
            logps, grads = fn(*args, **kwargs)
            nlls.append(-sum(logps))
            return logps, grads
        return wrapper

    for name, fn in originals.items():
        setattr(training, name, recorder(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(training, name, fn)


def run_case(name: str) -> dict:
    cfg, evaluation = CASES[name]
    train, valid, test, doc_ids = corpus()
    vocab = build_vocabulary(train)
    core, strategy, _ = build_model(cfg, vocab)
    tc = cfg.training_config()
    proposal = (training.ProposalDistribution.unigram(vocab)
                if tc.mode == "importance" else None)
    rng = make_rng(tc.seed)
    nlls, valid_ppl, clips = [], [], []
    with _recording(nlls):
        for epoch in range(1, tc.max_epochs + 1):
            rep = training.train_epoch(core, strategy, train, valid, vocab, tc,
                                       rng, tc.alpha, epoch, proposal)
            valid_ppl.append(rep.valid_ppl)
            clips.append(rep.clip_events)
    if evaluation == "dynamic":
        ev = training.dynamic_evaluate(core, strategy, test, vocab,
                                       cfg.alpha_dyn, cfg.beta_dyn, tc.clip)
    else:
        ev = perplexity(core, strategy, test, vocab,
                        cache=cfg.cache_config() if evaluation == "cache" else None,
                        carryover=cfg.carryover, doc_ids=doc_ids)
    tensors = {n: {"sum": float(a.sum()), "abs": float(np.abs(a).sum()),
                   "sq": float(np.sum(a * a))}
               for n, a in sorted(model_arrays(core, strategy).items())}
    return {"nll": nlls, "valid_ppl": valid_ppl, "clip_events": clips,
            "eval_log2": ev.sentence_log2, "eval_ppl": ev.ppl,
            "tensors": tensors}


def main(names):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if names else {}
    golden.update({name: run_case(name) for name in names or CASES})
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
