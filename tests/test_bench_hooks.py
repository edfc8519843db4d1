"""The benchmark's tracer (bench/tracer.py) wraps library functions and
methods by name and reads every gradient as an ndarray, the left factor of a
factored one included.  Running it over one training epoch (and, for the
full softmax and the hierarchy, a dynamic evaluation; for the class layer, a
class-cache evaluation) here makes a renamed hook or a gradient of another
type fail in the unit tests rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from helpers import make_model
from nnlm import training
from nnlm.caching import CacheConfig
from nnlm.corpus import build_vocabulary
from nnlm.evaluation import perplexity
from nnlm.numerics import make_rng

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("kind", ["class", "hier", "importance", "full"])
def test_traced_epoch(kind):
    sents = [["green", "eggs", "and", "ham"], ["one", "fish", "two", "fish"]]
    vocab = build_vocabulary(sents + [[f"spare{i}" for i in range(20)]])
    importance = kind == "importance"
    core, strategy = make_model("fnn" if importance else "rnn",
                                "full" if importance else kind,
                                k=vocab.size, energy=importance,
                                direct=kind == "full")
    cfg = training.TrainingConfig(mode="importance" if importance else "exact",
                                  block_size=4, min_ess=2.0)
    proposal = training.ProposalDistribution.unigram(vocab) if importance else None
    tracer = load_tracer()
    tracer.install()
    try:
        tracer.instrument_model(core, strategy)
        tracer.instrument_vocab(vocab)
        with tracer.span("bench.train"):
            training.train_epoch(core, strategy, sents, sents[:1], vocab, cfg,
                                 make_rng(0), cfg.alpha, 1, proposal)
        phases = ["bench.train"]
        if kind in ("full", "hier"):
            phases.append("bench.dyn_eval")
            with tracer.span("bench.dyn_eval"):
                training.dynamic_evaluate(core, strategy, sents, vocab, 0.05)
        if kind == "class":
            with tracer.span("bench.cache_eval"):
                perplexity(core, strategy, sents, vocab,
                           cache=CacheConfig(lam=0.5, mode="class"))
    finally:
        tracer.restore()
    assert training.update_parameters.__module__ == "nnlm.training"
    counts = tracer.counts
    for phase in phases:
        updated = counts[(phase, "rows_updated")]
        assert updated > 0
        assert 0 < counts[(phase, "rows_nonzero")] <= updated
        if kind == "full":
            # every step writes all k rows of w_out, and of w_direct
            assert updated >= len(sents) * 2 * vocab.size
    names = {span[0] for span in tracer.spans}
    expected = {"training.train_epoch", "training.update_parameters",
                "training.clip_gradients", "models.run", "models.backward",
                "corpus.encode", "evaluation.perplexity"}
    if importance:
        expected.add("training.importance_sampling_gradient")
        assert counts[("bench.train", "is_calls")] > 0
    elif kind == "full":
        expected |= {"training.sentence_gradients",
                     "training.dynamic_evaluate"}
    else:
        expected |= {"training.sentence_gradients", "output_layer.zero_grads",
                     "output_layer.logprob_grad"}
    if kind == "class":
        # the class cache scores each sentence's two factors in one call
        prof = tracer.profile()
        calls = prof[("bench.cache_eval", "output_layer.factor_logprobs")]["calls"]
        assert calls == len(sents)
    if kind == "hier":
        expected.add("training.dynamic_evaluate")
    assert expected <= names
