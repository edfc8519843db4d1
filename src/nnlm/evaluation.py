"""Perplexity measurement, forward and reversed scoring.

Every token including the end mark is scored; the start mark is conditioned
on but never scored.  Perplexity is kept in bits: PPL = 2^(-mean log2 p).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import caching
from .corpus import Sentence, Vocabulary
from .models import HiddenState, LstmCore
from .output_layer import ClassSoftmax

LOG2E = 1.0 / math.log(2.0)


@dataclass
class EvalReport:
    tokens: int
    log2_total: float
    ppl: float
    words_per_s: float | None
    sentence_log2: list[float] = field(default_factory=list)

    def to_tsv(self) -> str:
        head = "tokens\tlog2_total\tppl\twords_per_s\n"
        wps = "" if self.words_per_s is None else f"{self.words_per_s:.2f}"
        return head + f"{self.tokens}\t{self.log2_total:.6f}\t{self.ppl:.4f}\t{wps}\n"


def report_from_log2(sentence_log2: list[float], tokens: int,
                     elapsed: float | None = None) -> EvalReport:
    if tokens == 0:
        raise ValueError("no tokens were scored")
    total = float(sum(sentence_log2))
    if not math.isfinite(total):
        raise FloatingPointError(
            f"perplexity is not finite (log2 total {total} over {tokens} tokens)")
    try:
        ppl = 2.0 ** (-total / tokens)
    except OverflowError:
        raise FloatingPointError(
            f"perplexity 2^{-total / tokens:.6g} overflows a float "
            f"(log2 total {total:.6g} over {tokens} tokens)") from None
    wps = None
    if elapsed is not None and elapsed > 0:
        wps = tokens / elapsed
    return EvalReport(tokens, total, ppl, wps, sentence_log2)


def reverse_sentences(sentences: list[Sentence]) -> list[Sentence]:
    """Token order flipped inside every sentence; sentence order preserved."""
    return [list(reversed(s)) for s in sentences]


def _doc_starts(n: int, doc_ids) -> list[bool]:
    if doc_ids is None:
        return [i == 0 for i in range(n)]
    if len(doc_ids) != n:
        raise ValueError("doc_ids length does not match sentence count")
    return [i == 0 or doc_ids[i] != doc_ids[i - 1] for i in range(n)]


def perplexity(core, strategy, sentences: list[Sentence], vocab: Vocabulary,
               cache: caching.CacheConfig | None = None,
               carryover: bool = False, doc_ids=None) -> EvalReport:
    """Static evaluation; scoring is side-effect-free on the parameters.

    ``cache`` enables unigram/class-cache interpolation; ``carryover``
    initializes each sentence from the previous one's final state, resetting
    at document boundaries (``doc_ids`` labels sentences by document).
    """
    if not sentences:
        raise ValueError("cannot evaluate an empty sentence list")
    use_cache = cache is not None and cache.lam < 1.0
    class_cache = use_cache and cache.mode == "class"
    if class_cache:
        if not isinstance(strategy, ClassSoftmax):
            raise ValueError("class cache requires a class-factored output layer")
        class_of = strategy.code.group_of[0]
    # the ring never holds more entries than there are tokens to score, so
    # it is no longer than that, whatever cache.length asks for
    n_tokens = sum(len(s) + 1 for s in sentences)
    ring = caching.WordCache(min(cache.length, n_tokens)) if use_cache else None
    starts = _doc_starts(len(sentences), doc_ids)
    with_cell = isinstance(core, LstmCore)
    n_h = core.params.n_h

    prev_state: HiddenState | None = None
    sent_log2: list[float] = []
    tokens = 0
    t0 = time.perf_counter()
    for sent, start in zip(sentences, starts):
        if carryover:
            h0 = caching.carryover_initial_state(prev_state, start, n_h, with_cell)
        else:
            h0 = None
        if use_cache and start:
            ring.clear()
        enc = vocab.encode(sent)
        inputs, targets = enc[:-1], enc[1:]
        tape = core.run(inputs, h0=h0)
        targets = targets.tolist()
        if class_cache:
            # the class cache needs the word factor; the class factor is
            # computed once, and lp_c + lp_w is exactly ClassSoftmax.logprob
            factors = [strategy.factor_logprobs(s, w)
                       for s, w in zip(tape.states, targets)]
            logps = [lp_c + lp_w for lp_c, lp_w in factors]
        else:
            logps = strategy.score_sentence(tape.states, tape.xs, targets)[0].tolist()
        total = 0.0
        for t, (target, lp) in enumerate(zip(targets, logps)):
            if use_cache and len(ring):
                if class_cache:
                    pc = caching.class_cache_probability(
                        ring, int(class_of[target]), cache) * math.exp(factors[t][1])
                else:
                    pc = caching.cache_probability(ring, target, cache)
                p = caching.interpolate(math.exp(lp), pc, cache.lam)
                total += math.log2(p)
            else:
                total += lp * LOG2E
            if use_cache:
                ring.push(int(class_of[target]) if class_cache else target)
        sent_log2.append(total)
        tokens += len(targets)
        if carryover:
            prev_state = tape.final_state
    elapsed = time.perf_counter() - t0
    return report_from_log2(sent_log2, tokens, elapsed)
