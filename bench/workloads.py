"""Benchmark workloads and the seeded synthetic Zipf corpus each one reads.

A workload fixes a model configuration, a vocabulary size and the sizes of
the corpus sections.  The corpus is written to a plain text file in the
format ``nnlm train`` reads: one sentence per line, blank lines between
documents.  Every word of the vocabulary occurs in the training section, so
k is the same for every seed; the test section carries words never seen in
training, so the ``<unk>`` path is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ZIPF_S = 1.0           # Zipf-Mandelbrot exponent, close to English word counts
ZIPF_Q = 2.7           # Zipf-Mandelbrot offset: flattens the few top ranks
MEAN_SENT_LEN = 20     # Brown averages about 21 tokens per sentence
DOC_SENTS = (5, 30)    # sentences per document, uniform, so carryover resets
OOV_SHARE = 0.02       # share of test tokens replaced by unseen words


@dataclass(frozen=True)
class Workload:
    """One model configuration, the corpus it reads and the work of one
    timed round, sized to take three to five and a half seconds on a 2-CPU
    Xeon with one BLAS thread."""

    name: str
    k_words: int              # distinct training words; k = k_words + 3 marks
    zipf_tokens: int          # Zipf-sampled training tokens before coverage
    valid_tokens: int         # validation split, scored by every train_epoch
    train_tokens: int         # training tokens of one epoch; each epoch new
    test_tokens: int          # test split: one static pass
    dyn_tokens: int           # test prefix adapted by one dynamic-eval pass
    trips: int                # save -> load -> save round trips
    config: dict = field(default_factory=dict)  # RunConfig fields
    cache_mode: str = "word"
    cache_tokens: int = 0     # test prefix of one cached pass; 0: all of it
    pretrain_tokens: int = 0  # if set, training starts from a model
    pretrain_alpha: float = 0.0  # pretrained on this many tokens at this rate


# Recurrent core dominant: small k, three hierarchical levels, word cache.
LSTM_HIER_3K = Workload(
    name="lstm-hier-3k", k_words=3000, zipf_tokens=60_000, valid_tokens=300,
    train_tokens=450, test_tokens=2000, dyn_tokens=200, trips=4,
    config=dict(arch="lstm", m=100, n_h=200, peepholes=True, strategy="hier",
                levels=3, assign="uniform"),
)

# Brown-scale class output: dense O(k) clip/update/zero-fill dominate
# training, factor_logprobs and the class cache dominate cached eval.
RNN_CLASS_40K = Workload(
    name="rnn-class-40k", k_words=40_000, zipf_tokens=150_000, valid_tokens=300,
    train_tokens=110, test_tokens=12_000, dyn_tokens=40, trips=2,
    config=dict(arch="rnn", m=100, n_h=200, strategy="class",
                assign="sqrt_freq"),
    cache_mode="class", cache_tokens=6000,
)

# The only path through the importance sampler and the full-softmax GEMV;
# its dynamic evaluation is the exact-gradient step the sampler should beat.
# At k=20k a model from its uniform start needs about a thousand sampled
# tokens before its PPL moves, more than one run can afford, so every run
# fine-tunes a model pretrained once per checkout (see run.pretrained).
FNN_IS_20K = Workload(
    name="fnn-is-20k", k_words=20_000, zipf_tokens=100_000, valid_tokens=60,
    train_tokens=17, test_tokens=500, dyn_tokens=30, trips=3,
    config=dict(arch="fnn", n=5, m=100, n_h=200, strategy="full", energy=True,
                mode="importance"),
    pretrain_tokens=1300, pretrain_alpha=0.3,
)

WORKLOADS = {w.name: w for w in (LSTM_HIER_3K, RNN_CLASS_40K, FNN_IS_20K)}


@dataclass
class CorpusFile:
    path: Path
    n_train: int              # tokens in the training section
    n_valid: int              # tokens in the validation section
    stats: dict               # k_words, token counts, sentence length, OOV


def _word(rank: int) -> str:
    return f"w{rank:x}"


def _sentences(tokens: list[str], rng) -> list[list[str]]:
    """Cut a token stream into sentences of Poisson length (at least 3)."""
    out, i = [], 0
    while i < len(tokens):
        n = max(3, int(rng.poisson(MEAN_SENT_LEN)))
        out.append(tokens[i:i + n])
        i += n
    if len(out) > 1 and len(out[-1]) < 3:
        out[-2].extend(out.pop())
    return out


def _documents(sentences: list[list[str]], rng) -> list[list[list[str]]]:
    docs, i = [], 0
    while i < len(sentences):
        n = int(rng.integers(*DOC_SENTS))
        docs.append(sentences[i:i + n])
        i += n
    return docs


def make_corpus(workload: Workload, seed: int, path: Path) -> CorpusFile:
    """Write the workload's corpus for ``seed``; same seed, same bytes.

    The seed draws the words.  Sentence and document lengths come from a
    stream fixed per workload, so every seed times sentences of the same
    lengths: the per-sentence work of clipping and updating does not make
    words/s depend on the seed.
    """
    rng = np.random.default_rng([seed, workload.k_words])
    k = workload.k_words
    ranks = np.arange(1, k + 1, dtype=np.float64)
    probs = (ranks + ZIPF_Q) ** -ZIPF_S
    probs /= probs.sum()

    def draw(n: int) -> list[int]:
        return rng.choice(k, size=n, p=probs).tolist()

    train = draw(workload.zipf_tokens)
    seen = np.zeros(k, dtype=bool)
    seen[train] = True
    # every word occurs in training, so k does not depend on the seed
    missing = rng.permutation(np.flatnonzero(~seen)).tolist()
    train_words = [_word(r) for r in train + missing]

    valid_words = [_word(r) for r in draw(workload.valid_tokens)]

    test = draw(workload.test_tokens)
    oov = rng.random(len(test)) < OOV_SHARE
    test_words = [f"x{i:x}" if o else _word(r)
                  for i, (r, o) in enumerate(zip(test, oov))]

    sections = []
    for i, words in enumerate((train_words, valid_words, test_words)):
        shape_rng = np.random.default_rng([workload.k_words, i])
        sections.append(_documents(_sentences(words, shape_rng), shape_rng))
    lines = []
    for docs in sections:
        for doc in docs:
            lines.extend(" ".join(s) for s in doc)
            lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")

    n_sent = sum(len(doc) for docs in sections for doc in docs)
    n_tok = len(train_words) + len(valid_words) + len(test_words)
    stats = {
        "k_words": k,
        "train_tokens": len(train_words),
        "valid_tokens": len(valid_words),
        "test_tokens": len(test_words),
        "documents": sum(len(docs) for docs in sections),
        "mean_sentence_len": round(n_tok / n_sent, 3),
        "test_oov_share": round(float(oov.mean()), 5),
    }
    return CorpusFile(path, len(train_words), len(valid_words), stats)
